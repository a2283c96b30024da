//===- serve/Protocol.cpp - Protocol parsing and rendering ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "isa/Fingerprint.h"
#include "isa/ProgramHash.h"
#include "support/StringUtils.h"

#include <algorithm>

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
  if (Name == "vm")
    return "vm";
  if (Name == "jit")
    return "jit";
  if (Name == "reference")
    return "reference";
  return "unknown";
}

} // namespace

bool talft::serve::campaignFromJson(const JsonValue &V, CampaignResult &R,
                                    std::string &Err) {
  if (!V.isObject() || !V.get("verdicts") || !V.get("stats")) {
    Err = "not a campaign object";
    return false;
  }
  R = CampaignResult();
  R.Ok = V.boolAt("ok", false);
  R.ReferenceSteps = V.u64At("reference_steps", 0);
  R.StatesTypechecked = V.u64At("states_typechecked", 0);
  uint64_t Hash = 0;
  if (parseProgramHash(V.stringAt("program_hash", "0x0"), Hash))
    R.ProgramHash = Hash;

  const JsonValue &Verdicts = *V.get("verdicts");
  for (size_t I = 0; I != NumVerdicts; ++I)
    R.Table.Counts[I] = Verdicts.u64At(verdictJsonKey((Verdict)I), 0);

  if (const JsonValue *Viol = V.get("violations"))
    for (const JsonValue &Item : Viol->items())
      R.Violations.push_back(Item.asString());

  if (const JsonValue *Rec = V.get("recovery")) {
    R.Recovery.Rollbacks = Rec->u64At("rollbacks", 0);
    R.Recovery.Checkpoints = Rec->u64At("checkpoints", 0);
    R.Recovery.ReplayedOutputs = Rec->u64At("replayed_outputs", 0);
  }
  if (const JsonValue *Conv = V.get("convergence")) {
    R.Stats.Converge = Conv->boolAt("enabled", false);
    R.Stats.EarlyExits = Conv->u64At("early_exits", 0);
    R.Stats.WindowSum = Conv->u64At("window_sum", 0);
    R.Stats.MaxWindow = Conv->u64At("max_window", 0);
    R.Stats.StepsSaved = Conv->u64At("steps_saved", 0);
    R.Stats.LockstepSkips = Conv->u64At("lockstep_skips", 0);
    R.Stats.LockstepSteps = Conv->u64At("lockstep_steps", 0);
  }
  if (const JsonValue *Lanes = V.get("lanes")) {
    R.Stats.Lanes = Lanes->boolAt("enabled", false);
    R.Stats.LaneGroups = Lanes->u64At("groups", 0);
    R.Stats.LaneTasks = Lanes->u64At("lane_tasks", 0);
    R.Stats.LaneDeviations = Lanes->u64At("deviations", 0);
    R.Stats.LaneLockstepSteps = Lanes->u64At("lockstep_steps", 0);
  }
  if (const JsonValue *Jit = V.get("jit")) {
    R.Stats.JitNative = Jit->boolAt("native", false);
    R.Stats.JitBlocksCompiled = Jit->u64At("blocks_compiled", 0);
    R.Stats.JitCodeBytes = Jit->u64At("code_bytes", 0);
    R.Stats.JitSideExits = Jit->u64At("side_exits", 0);
    R.Stats.SimdLaneWidth = (unsigned)Jit->u64At("simd_lane_width", 0);
  }
  if (const JsonValue *Cfi = V.get("cfi")) {
    R.Stats.CfiChecked = Cfi->boolAt("checked", false);
    R.Stats.CfiCommits = Cfi->u64At("commits", 0);
    R.Stats.CfiViolations = Cfi->u64At("violations", 0);
    R.CfiFirstViolation = Cfi->stringAt("first_violation");
  }
  if (const JsonValue *Shard = V.get("shard")) {
    R.Stats.ShardCount = (unsigned)Shard->u64At("count", 1);
    R.Stats.ShardIndex = (unsigned)Shard->u64At("index", 0);
    R.Stats.ShardFirstTask = Shard->u64At("first_task", 0);
    R.Stats.TotalTasks = Shard->u64At("total_tasks", 0);
    R.Stats.ShardsFolded = (unsigned)Shard->u64At("folded", 0);
  }
  const JsonValue &Stats = *V.get("stats");
  R.Stats.Engine = internEngineName(Stats.stringAt("engine", "reference"));
  R.Stats.ThreadsUsed = (unsigned)Stats.u64At("threads", 1);
  R.Stats.Tasks = Stats.u64At("tasks", 0);
  R.Stats.ReferenceSeconds = Stats.doubleAt("reference_seconds", 0);
  R.Stats.WallSeconds = Stats.doubleAt("wall_seconds", 0);
  R.Stats.TriplesPerSecond = Stats.doubleAt("triples_per_second", 0);
  R.Stats.Pruned = Stats.boolAt("pruned", false);
  R.Stats.PrunedTasks = Stats.u64At("pruned_tasks", 0);
  R.Stats.PrunedDetected = Stats.u64At("pruned_detected", 0);
  return true;
}

std::string talft::serve::campaignJsonLine(const CampaignResult &R) {
  std::string S = campaignToJson(R, 0);
  S.erase(std::remove(S.begin(), S.end(), '\n'), S.end());
  return S;
}
