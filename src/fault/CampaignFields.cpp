//===- fault/CampaignFields.cpp - The campaign result's field table -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "fault/CampaignFields.h"

#include "isa/ProgramHash.h"
#include "support/StringUtils.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <cstring>

using namespace talft;

namespace {

using enum FieldClass::Bits;
using enum FieldFormat;
using enum FoldRule;
using CR = CampaignResult;
using RS = RecoveryStats;
using S = CampaignStats;

template <auto M> FieldRef top(CR &R) { return &(R.*M); }
template <auto M> FieldRef rec(CR &R) { return &(R.Recovery.*M); }
template <auto M> FieldRef stat(CR &R) { return &(R.Stats.*M); }

// In the JSON order of campaignToJson. Stored rows point into the result;
// derived rows compute their value.
constexpr CampaignField Fields[] = {
    {"", "ok", And, Outcome, top<&CR::Ok>},
    {"", "reference_steps", First, Outcome, top<&CR::ReferenceSteps>},
    {"", "program_hash", First, Outcome, top<&CR::ProgramHash>, Hash},
    {"", "injections", None, Derived,
     [](CR &R) -> FieldRef { return R.Table.total(); }},
    {"", "verdicts", SaturatingSum, Outcome, top<&CR::Table>},
    {"", "states_typechecked", Sum, Outcome, top<&CR::StatesTypechecked>},
    {"recovery", "rollbacks", Sum, Outcome, rec<&RS::Rollbacks>},
    {"recovery", "checkpoints", Sum, Outcome, rec<&RS::Checkpoints>},
    {"recovery", "replayed_outputs", Sum, Outcome, rec<&RS::ReplayedOutputs>},
    {"convergence", "enabled", Or, Strategy, stat<&S::Converge>},
    {"convergence", "early_exits", Sum, Strategy, stat<&S::EarlyExits>},
    {"convergence", "mean_window", None, Derived,
     [](CR &R) -> FieldRef {
       const CampaignStats &St = R.Stats;
       return St.EarlyExits ? (double)St.WindowSum / St.EarlyExits : 0.0;
     },
     Fixed2},
    {"convergence", "window_sum", Sum, Strategy, stat<&S::WindowSum>},
    {"convergence", "max_window", Max, Strategy, stat<&S::MaxWindow>},
    {"convergence", "steps_saved", Sum, Strategy, stat<&S::StepsSaved>},
    {"convergence", "lockstep_skips", Sum, Strategy, stat<&S::LockstepSkips>},
    {"convergence", "lockstep_steps", Sum, Strategy, stat<&S::LockstepSteps>},
    {"lanes", "enabled", Or, Strategy, stat<&S::Lanes>},
    {"lanes", "width", None, Derived,
     [](CR &R) -> FieldRef { return R.Stats.Lanes * LaneGroupWidth; }},
    {"lanes", "groups", Sum, ShardStrategy, stat<&S::LaneGroups>},
    {"lanes", "lane_tasks", Sum, Strategy, stat<&S::LaneTasks>},
    {"lanes", "deviations", Sum, Strategy, stat<&S::LaneDeviations>},
    {"lanes", "lockstep_steps", Sum, Strategy, stat<&S::LaneLockstepSteps>},
    {"jit", "native", Or, Strategy, stat<&S::JitNative>},
    // Compilation stats are per-program constants, equal in every shard.
    {"jit", "blocks_compiled", Max, Strategy, stat<&S::JitBlocksCompiled>},
    {"jit", "code_bytes", Max, Strategy, stat<&S::JitCodeBytes>},
    {"jit", "side_exits", Sum, ShardStrategy, stat<&S::JitSideExits>},
    {"jit", "simd_lane_width", Max, Strategy, stat<&S::SimdLaneWidth>},
    // A fold covers the union of its shards' slices.
    {"shard", "count", Max, Provenance, stat<&S::ShardCount>},
    {"shard", "index", Min, Provenance, stat<&S::ShardIndex>},
    {"shard", "first_task", Min, Provenance, stat<&S::ShardFirstTask>},
    {"shard", "tasks", None, Derived,
     [](CR &R) -> FieldRef { return R.Stats.Tasks; }},
    {"shard", "total_tasks", Max, Outcome, stat<&S::TotalTasks>},
    {"shard", "folded", Shards, Provenance, stat<&S::ShardsFolded>},
    // Each shard keeps a prefix of its slice's violations, so the capped
    // concatenation in shard order is the unsharded list.
    {"", "violations", Concat, Outcome, top<&CR::Violations>},
    {"cfi", "checked", Or, Strategy, stat<&S::CfiChecked>},
    {"cfi", "commits", Sum, Strategy, stat<&S::CfiCommits>},
    {"cfi", "violations", Sum, Strategy, stat<&S::CfiViolations>},
    {"cfi", "first_violation", First, Strategy, top<&CR::CfiFirstViolation>},
    {"stats", "engine", First, Provenance, stat<&S::Engine>},
    {"stats", "threads", Max, Provenance, stat<&S::ThreadsUsed>},
    {"stats", "tasks", Sum, Outcome, stat<&S::Tasks>},
    // Seconds sum to total compute, not elapsed time.
    {"stats", "reference_seconds", Sum, Timing,
     stat<&S::ReferenceSeconds>, Fixed6},
    {"stats", "wall_seconds", Sum, Timing, stat<&S::WallSeconds>, Fixed6},
    {"stats", "triples_per_second", Rate, Timing,
     stat<&S::TriplesPerSecond>, Fixed1},
    {"stats", "pruned", Or, Outcome, stat<&S::Pruned>},
    {"stats", "pruned_tasks", Sum, Outcome, stat<&S::PrunedTasks>},
    {"stats", "pruned_detected", Sum, Outcome, stat<&S::PrunedDetected>},
    {"", "reference_trace", First, Outcome, top<&CR::ReferenceTrace>,
     Unwritten},
};

/// A stored field's value, or a derived one.
template <class T> const T &deref(T *P) { return *P; }
template <class T> const T &deref(const T &V) { return V; }

template <class T> void appendValue(std::string &S, const T &V, FieldFormat F) {
  if constexpr (std::is_same_v<T, bool>) {
    S += V ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    S += F == Hash ? formatv("\"%s\"", programHashString(V).c_str())
                   : formatv("%llu", (unsigned long long)V);
  } else if constexpr (std::is_same_v<T, double>) {
    S += formatv(F == Fixed1 ? "%.1f" : F == Fixed2 ? "%.2f" : "%.6f", V);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    S += '[';
    for (size_t I = 0; I != V.size(); ++I)
      S += (I ? ", " : "") + jsonQuote(V[I]);
    S += ']';
  } else if constexpr (std::is_same_v<T, VerdictTable>) {
    S += '{';
    for (size_t I = 0; I != NumVerdicts; ++I)
      S += formatv(I ? ", \"%s\": %llu" : "\"%s\": %llu",
                   verdictJsonKey((Verdict)I), (unsigned long long)V.Counts[I]);
    S += '}';
  } else if constexpr (std::is_same_v<T, OutputTrace>) {
    talft_unreachable("the reference trace is never written");
  } else {
    S += jsonQuote(V); // a string or the engine name
  }
}

template <class T>
void foldValue(T &A, const T &B, FoldRule Rule, size_t MaxViolations) {
  if constexpr (std::is_same_v<T, bool>) {
    A = Rule == And ? A && B : A || B;
  } else if constexpr (std::is_integral_v<T>) {
    A = Rule == Sum     ? A + B
        : Rule == Max   ? std::max(A, B)
        : Rule == Min   ? std::min(A, B)
        : Rule == First ? (A ? A : B)
                        : (A ? A : 1) + (B ? B : 1); // Shards
  } else if constexpr (std::is_same_v<T, double>) {
    A += Rule == Sum ? B : 0; // a Rate is recomputed after the fold
  } else if constexpr (std::is_same_v<T, VerdictTable>) {
    A.merge(B);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    for (size_t I = 0; I != B.size() && A.size() < MaxViolations; ++I)
      A.push_back(B[I]);
  } else if constexpr (std::is_same_v<T, const char *>) {
    A = *A ? A : B;
  } else {
    A = A.empty() ? B : A; // a string or the reference trace
  }
}

bool sameValue(const char *A, const char *B) { return !std::strcmp(A, B); }
template <class T> bool sameValue(const T &A, const T &B) { return A == B; }

} // namespace

std::string CampaignField::name() const {
  return *Object ? std::string(Object) + "." + Key : std::string(Key);
}

std::span<const CampaignField> talft::campaignFields() { return Fields; }

const CampaignField &talft::campaignField(std::string_view Name) {
  for (const CampaignField &F : Fields)
    if (F.name() == Name)
      return F;
  talft_unreachable("no such campaign field");
}

void talft::appendFieldJson(std::string &Out, const CampaignField &F,
                            const CampaignResult &R) {
  std::visit([&](const auto &X) { appendValue(Out, deref(X), F.Format); },
             F.read(R));
}

std::string talft::campaignToJson(const CampaignResult &R, unsigned Indent) {
  std::string P(Indent, ' ');
  std::string S = P + "{\n";
  // The nested object the previous row wrote into, if any: rows of one
  // object are adjacent and share a line.
  const char *Open = nullptr;
  for (const CampaignField &F : Fields) {
    if (F.Format == Unwritten)
      continue;
    if (Open && !std::strcmp(Open, F.Object)) {
      S += ", ";
    } else {
      if (Open)
        S += '}';
      if (&F != &Fields[0])
        S += ",\n";
      S += P + "  ";
      Open = *F.Object ? F.Object : nullptr;
      if (Open)
        S.append("\"").append(Open).append("\": {");
    }
    S.append("\"").append(F.Key).append("\": ");
    appendFieldJson(S, F, R);
  }
  if (Open)
    S += '}';
  S += "\n" + P + "}";
  return S;
}

void talft::foldShardResult(CampaignResult &Acc, const CampaignResult &Shard,
                            size_t MaxViolations) {
  for (const CampaignField &F : Fields)
    std::visit(
        [&](auto A) {
          if constexpr (std::is_pointer_v<decltype(A)>)
            foldValue(*A, *std::get<decltype(A)>(F.read(Shard)), F.Fold,
                      MaxViolations);
        },
        F.At(Acc));
  CampaignStats &S = Acc.Stats;
  S.TriplesPerSecond = S.WallSeconds > 0 ? (double)S.Tasks / S.WallSeconds : 0;
}

std::string talft::campaignDiff(const CampaignResult &A,
                                const CampaignResult &B, unsigned Classes,
                                std::string_view Object) {
  std::string Differ;
  for (const CampaignField &F : Fields) {
    if (!(F.Class & Classes) || (!Object.empty() && Object != F.Object))
      continue;
    bool Same = std::visit(
        [&](const auto &X) {
          using T = std::decay_t<decltype(X)>;
          return sameValue(deref(X), deref(std::get<T>(F.read(B))));
        },
        F.read(A));
    if (!Same)
      Differ += (Differ.empty() ? "" : ", ") + F.name();
  }
  return Differ;
}
