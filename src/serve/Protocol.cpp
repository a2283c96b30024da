//===- serve/Protocol.cpp - Protocol parsing and rendering ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "fault/CampaignFields.h"
#include "isa/Fingerprint.h"
#include "isa/ProgramHash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>

using namespace talft;
using namespace talft::serve;

uint64_t talft::serve::optionsDigest(const SubmitSpec &S) {
  uint64_t H = fp::mix(0x74616c6673727631ull); // "talfsrv1" options domain
  auto Add = [&H](uint64_t V) { H = fp::mix(H ^ fp::mix(V)); };
  // Engine first: the table provably cannot depend on it, but the issue
  // of record is provenance — a vm-certified entry must not answer for a
  // reference-engine request.
  Add(S.Engine == "reference" ? 1 : S.Engine == "jit" ? 3 : 2);
  Add(S.Stride);
  Add(S.MaxSteps);
  Add(S.ExtraSteps);
  Add(S.OnlyMentionedRegisters);
  Add(S.Prune);
  Add(S.Converge);
  Add(S.Lanes);
  // The fixed lane-group width keeps its slot, so memo keys and WAL
  // entries written by builds where the width was a knob still match.
  Add(LaneGroupWidth);
  Add(S.Recover);
  Add(S.CheckpointInterval);
  Add(S.RetryBudget);
  return H;
}

TheoremConfig talft::serve::theoremConfig(const SubmitSpec &S,
                                          uint64_t Stride) {
  TheoremConfig Config;
  Config.MaxSteps = S.MaxSteps;
  Config.ExtraSteps = S.ExtraSteps;
  Config.InjectionStride = std::max<uint64_t>(1, Stride);
  Config.OnlyMentionedRegisters = S.OnlyMentionedRegisters;
  Config.Recovery.Enabled = S.Recover;
  Config.Recovery.CheckpointInterval = S.CheckpointInterval;
  Config.Recovery.RetryBudget = S.RetryBudget;
  return Config;
}

void talft::serve::applySpecOptions(const SubmitSpec &S, CampaignOptions &O) {
  O.Prune = S.Prune;
  O.Converge = S.Converge;
  O.Lanes = S.Lanes;
}

bool talft::serve::specFromJson(const JsonValue &V, SubmitSpec &Out,
                                std::string &Err) {
  if (!V.isObject()) {
    Err = "submit request is not an object";
    return false;
  }
  const JsonValue *Source = V.get("source");
  if (!Source || !Source->isString() || Source->asString().empty()) {
    Err = "submit request needs a non-empty \"source\" string";
    return false;
  }
  Out.Source = Source->asString();
  Out.Name = V.stringAt("name", "");
  Out.Lang = V.stringAt("lang", "wile");
  if (Out.Lang != "wile" && Out.Lang != "tal") {
    Err = "unknown lang \"" + Out.Lang + "\" (expected \"wile\" or \"tal\")";
    return false;
  }
  Out.Engine = V.stringAt("engine", "vm");
  if (Out.Engine != "vm" && Out.Engine != "reference" && Out.Engine != "jit") {
    Err = "unknown engine \"" + Out.Engine +
          "\" (expected \"vm\", \"reference\" or \"jit\")";
    return false;
  }
  Out.Stride = V.u64At("stride", Out.Stride);
  Out.MaxSteps = V.u64At("max_steps", Out.MaxSteps);
  Out.ExtraSteps = V.u64At("extra_steps", Out.ExtraSteps);
  Out.OnlyMentionedRegisters =
      V.boolAt("only_mentioned_registers", Out.OnlyMentionedRegisters);
  Out.Prune = V.boolAt("prune", Out.Prune);
  Out.Converge = V.boolAt("converge", Out.Converge);
  Out.Lanes = V.boolAt("lanes", Out.Lanes);
  Out.Recover = V.boolAt("recover", Out.Recover);
  Out.CheckpointInterval =
      V.u64At("checkpoint_interval", Out.CheckpointInterval);
  if (Out.CheckpointInterval == 0)
    Out.CheckpointInterval = 1;
  Out.RetryBudget = V.u64At("retry_budget", Out.RetryBudget);
  Out.Shards = (unsigned)V.u64At("shards", Out.Shards);
  Out.DeadlineMs = V.u64At("deadline_ms", Out.DeadlineMs);
  if (Out.MaxSteps == 0) {
    Err = "max_steps must be nonzero";
    return false;
  }
  return true;
}

std::string talft::serve::submitRequestJson(const SubmitSpec &S) {
  std::string Out = "{\"cmd\": \"submit\"";
  if (!S.Name.empty())
    Out += ", \"name\": " + jsonQuote(S.Name);
  Out += ", \"lang\": " + jsonQuote(S.Lang);
  Out += ", \"engine\": " + jsonQuote(S.Engine);
  Out += formatv(", \"stride\": %llu, \"max_steps\": %llu, "
                 "\"extra_steps\": %llu, \"only_mentioned_registers\": %s, "
                 "\"prune\": %s, \"converge\": %s, \"lanes\": %s, "
                 "\"recover\": %s, "
                 "\"checkpoint_interval\": %llu, \"retry_budget\": %llu, "
                 "\"shards\": %u",
                 (unsigned long long)S.Stride, (unsigned long long)S.MaxSteps,
                 (unsigned long long)S.ExtraSteps,
                 S.OnlyMentionedRegisters ? "true" : "false",
                 S.Prune ? "true" : "false", S.Converge ? "true" : "false",
                 S.Lanes ? "true" : "false",
                 S.Recover ? "true" : "false",
                 (unsigned long long)S.CheckpointInterval,
                 (unsigned long long)S.RetryBudget, S.Shards);
  if (S.DeadlineMs)
    Out += formatv(", \"deadline_ms\": %llu", (unsigned long long)S.DeadlineMs);
  Out += ", \"source\": " + jsonQuote(S.Source);
  Out += "}";
  return Out;
}

namespace {

/// Stats.Engine is a const char* owned by the engine implementations;
/// deserialized results intern onto matching literals.
const char *internEngineName(const std::string &Name) {
  for (const char *Engine : {"vm", "jit", "reference"})
    if (Name == Engine)
      return Engine;
  return "unknown";
}

/// Reads \p X into a stored field; false when \p X has another JSON type.
template <class T> bool readValue(const JsonValue &X, FieldFormat F, T &Out) {
  using Kind = JsonValue::Kind;
  if constexpr (std::is_same_v<T, bool>) {
    Out = X.asBool();
    return X.kind() == Kind::Bool;
  } else if constexpr (std::is_integral_v<T>) {
    uint64_t V = X.asU64();
    bool Ok = F == FieldFormat::Hash ? parseProgramHash(X.asString(), V)
                                     : X.kind() == Kind::Number;
    Out = (T)V;
    return Ok && V == (uint64_t)Out;
  } else if constexpr (std::is_same_v<T, double>) {
    Out = X.asDouble();
    return X.kind() == Kind::Number;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    for (const JsonValue &Item : X.items())
      Out.push_back(Item.asString());
    return X.isArray();
  } else if constexpr (std::is_same_v<T, VerdictTable>) {
    bool Ok = X.isObject();
    for (size_t I = 0; I != NumVerdicts; ++I) {
      const JsonValue *N = X.get(verdictJsonKey((Verdict)I));
      Ok = Ok && N && readValue(*N, F, Out.Counts[I]);
    }
    return Ok;
  } else if constexpr (std::is_same_v<T, const char *>) {
    Out = internEngineName(X.asString());
    return X.isString();
  } else if constexpr (std::is_same_v<T, std::string>) {
    Out = X.asString();
    return X.isString();
  } else {
    return false; // the reference trace is never written
  }
}

} // namespace

bool talft::serve::campaignFromJson(const JsonValue &V, CampaignResult &R,
                                    std::string &Err) {
  R = CampaignResult();
  const char *Object = "";
  const JsonValue *In = &V;
  for (const CampaignField &F : campaignFields()) {
    if (F.Format == FieldFormat::Unwritten || (F.Class & FieldClass::Derived))
      continue;
    if (std::strcmp(F.Object, Object)) {
      Object = F.Object;
      In = *Object ? V.get(Object) : &V;
    }
    const JsonValue *X = In ? In->get(F.Key) : nullptr;
    bool Read = X && std::visit(
                         [&](auto P) {
                           if constexpr (std::is_pointer_v<decltype(P)>)
                             return readValue(*X, F.Format, *P);
                           return false;
                         },
                         F.At(R));
    if (!Read) {
      Err = "campaign field \"" + F.name() + "\" is missing or mistyped";
      return false;
    }
  }
  return true;
}

std::string talft::serve::campaignJsonLine(const CampaignResult &R) {
  std::string S = campaignToJson(R, 0);
  S.erase(std::remove(S.begin(), S.end(), '\n'), S.end());
  return S;
}
