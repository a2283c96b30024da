//===- fault/Campaign.h - Parallel fault-injection campaign engine --------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Theorem 4 sweep is embarrassingly parallel: every (reference step,
/// fault site, representative corruption) triple is an independent faulty
/// continuation. The campaign engine enumerates the full work list up
/// front, partitions it deterministically across a worker pool, classifies
/// each continuation into a Verdict, and merges per-worker tallies into a
/// single table. Results are bit-identical for any thread count and for
/// either resume mode: per-task verdicts are stored by task index, counters
/// are order-independent sums, and violation descriptions are emitted in
/// enumeration order with the cap applied after the merge.
///
/// Workers either resume from a per-step snapshot of the reference
/// MachineState (the default) or re-execute the reference prefix from step
/// 0; deterministic semantics make the two equivalent, and the test suite
/// checks they agree.
///
/// Campaigns that re-typecheck faulty states (Theorem 2 part 2) run
/// serially regardless of the requested thread count: the type checker
/// hash-conses expressions through the shared TypeContext, which is not
/// thread-safe. The classification-only sweep — the common case and the
/// scaling bottleneck — touches only MachineState, the step function and
/// the similarity relations, all of which are thread-pure.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_FAULT_CAMPAIGN_H
#define TALFT_FAULT_CAMPAIGN_H

#include "fault/Theorems.h"
#include "recover/RecoveringEngine.h"
#include "sim/ExecEngine.h"

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace talft {

/// Classification of one injected-fault continuation.
enum class Verdict : uint8_t {
  /// Completed with the reference output trace and a final state similar
  /// to the reference modulo the corrupted color (Theorem 4, case 1).
  Masked = 0,
  /// The hardware signaled a fault and the partial output was a prefix of
  /// the reference output (Theorem 4, case 2).
  Detected,
  /// Completed with a DIFFERENT output trace. Falsifies Theorem 4.
  SilentCorruption,
  /// Completed with the reference trace, but a final state not similar to
  /// the reference.
  DissimilarState,
  /// Detected, but the partial output was not a reference prefix.
  DetectedBadPrefix,
  /// Neither completed nor was detected within the step budget.
  BudgetExhausted,
  /// A faulty state got stuck (Progress, part 2, violated).
  Stuck,
  /// A faulty state failed re-typechecking (only with
  /// TheoremConfig::TypeCheckFaultyStates).
  IllTyped,
  /// Recovery campaigns only: detection triggered rollback and the run
  /// completed with the output trace bit-identical to the reference
  /// (strictly stronger than Theorem 4's prefix).
  Recovered,
  /// Recovery campaigns only: the recovery layer gave up and escalated to
  /// fail-stop — retry budget exhausted, replay divergence, or the shared
  /// step budget running out during a rollback replay — with the emitted
  /// output still a verified reference prefix.
  RecoveryEscalated,
  /// Prune mode only: the static analysis proved the site dead (the
  /// zapped register is not live at the injection point), so the
  /// continuation is Masked without simulation (analysis/ZapCoverage.h).
  StaticallyMasked,
  /// Prune mode only: the static analysis proved the corruption trips a
  /// hardware cross-check — a d-zap with a control instruction still
  /// ahead in the reference run (the d-protocol reads d at every control
  /// step), or a pc-zap with no committing blue control in flight (the
  /// next fetch compares the pcs) — so the continuation is Detected
  /// without simulation.
  StaticallyDetected,
};

inline constexpr size_t NumVerdicts = 12;

/// Human-readable name ("masked", "detected", ...).
const char *verdictName(Verdict V);
/// Stable snake_case key used in JSON reports ("silent_corruption", ...).
const char *verdictJsonKey(Verdict V);

/// Per-verdict tallies, mergeable across workers.
struct VerdictTable {
  std::array<uint64_t, NumVerdicts> Counts{};

  uint64_t &operator[](Verdict V) { return Counts[size_t(V)]; }
  uint64_t operator[](Verdict V) const { return Counts[size_t(V)]; }

  uint64_t total() const;
  /// The benign outcomes: Masked + Detected (the two Theorem 4 cases),
  /// under recovery Recovered + RecoveryEscalated, and under pruning
  /// StaticallyMasked + StaticallyDetected.
  uint64_t benign() const;
  /// Adds \p O's tallies, saturating at UINT64_MAX instead of wrapping.
  void merge(const VerdictTable &O);

  bool operator==(const VerdictTable &) const = default;
};

/// How a worker reconstructs the reference state at an injection step.
enum class ResumeMode : uint8_t {
  /// Copy the per-step snapshot taken during the reference run (default).
  Snapshot,
  /// Re-execute the reference prefix from step 0 (slower; used to
  /// cross-check snapshot integrity).
  Replay,
};

/// Lanes per lockstep group in batched lane execution
/// (CampaignOptions::Lanes). Groups narrower than this form when a pool
/// has fewer batched tasks left.
inline constexpr unsigned LaneGroupWidth = 16;

struct CampaignProgress {
  uint64_t Completed = 0;
  uint64_t Total = 0;
};

/// Execution knobs for a campaign. Theorem-level knobs (stride, budgets,
/// site filters) stay in TheoremConfig.
struct CampaignOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Forced to 1
  /// when the campaign re-typechecks faulty states (see file comment).
  unsigned Threads = 1;
  ResumeMode Resume = ResumeMode::Snapshot;
  /// The execution engine faulty continuations replay on (null = the
  /// structural reference interpreter). Engines are required to be
  /// observationally bit-identical, so the verdict table cannot depend on
  /// this choice; the campaign records which engine produced it in
  /// Stats.Engine. Campaigns that re-typecheck faulty states always run on
  /// the reference interpreter (TrackedRun owns the typing bookkeeping).
  const ExecEngine *Engine = nullptr;
  /// Invoke Progress after roughly every this many completed tasks
  /// (0 disables). Calls are serialized but may fire on any worker.
  uint64_t ProgressInterval = 0;
  std::function<void(const CampaignProgress &)> Progress;
  /// Discharge provably-classifiable injection sites statically instead
  /// of simulating them. Sites whose zapped register the liveness
  /// analysis proves is never read again are tallied as StaticallyMasked;
  /// when the analysis additionally vouches that the special registers
  /// appear only in their control-protocol roles, d- and pc-zaps whose
  /// outcome the d-protocol/fetch-compare semantics force are tallied as
  /// StaticallyMasked or StaticallyDetected from the reference trace
  /// alone. The verdict table keeps the same total, every pruned site
  /// folds into Masked or Detected, and the violation list is untouched —
  /// pruned and unpruned campaigns are equivalent modulo those splits.
  /// Silently ignored when the analysis cannot vouch for the CFG (a
  /// non-Exact target set makes liveness advisory only); the
  /// special-register discharge is additionally skipped for recovery and
  /// typed campaigns and when the step budget cannot cover the predicted
  /// fault.
  bool Prune = false;
  /// Validate every committed indirect control transfer (jmpB, taken
  /// bzB) in every engine against the static target sets (sim/Step.h's
  /// CfiTable). Record-only — verdicts are bit-identical with and
  /// without this flag; a nonzero violation count is a hard analysis bug
  /// surfaced in Stats.CfiViolations / CampaignResult::CfiFirstViolation.
  bool CfiCheck = false;
  /// Convergence acceleration by sparse differential replay: the
  /// reference phase records the operands and result of every executed
  /// instruction and dense snapshots, then links each record to the next
  /// record that accesses each register it reads or writes. A
  /// register-site continuation provably executes the reference
  /// instruction stream with divergence confined to a small set of
  /// register payloads, so the classifier walks only the reference
  /// instructions that touch a tainted register (following the links,
  /// one step per event) instead of simulating every step, in one walk
  /// for all the corruption values of a fault site. One extra fault-free
  /// run of the reference on the engine sizes the recording. A run whose
  /// taint drains has re-joined the reference exactly and is Masked
  /// without executing the rest of the program; a run whose taint is
  /// never touched again reduces to a similarity check; a run that
  /// reaches a hardware check (paired store, jump, branch, wild load)
  /// that must fail on its tainted operands is Detected there; anything
  /// outside the provable cases resumes concretely from the reference
  /// state at the bail step with its taint patched in. Only the runs the
  /// walk does not settle reach the engine, so CfiCheck counts their
  /// commits alone. This is the first
  /// stage of the classifier's one pipeline (settle, pool by resume step,
  /// run); off, every task runs from its injection step. Verdict tables
  /// and violation lists are bit-identical with and without this flag
  /// (the differential oracle asserts the fold); only wall-clock time
  /// changes, so it selects the reference configuration fold oracles
  /// compare against. Ignored by recovery campaigns (rollback replays
  /// re-diverge from the reference), typed campaigns (they must type
  /// every intermediate state) and plan campaigns (an earlier injection
  /// already diverged the state).
  bool Converge = true;
  /// Batched lane execution, the pipeline's run stage: the tasks of one
  /// pool (same resume step) advance in lockstep groups of LaneGroupWidth
  /// through one decoded micro-op stream (vm/LaneEngine.h), amortizing
  /// fetch and boundary checks across the group. Register sites on the
  /// program counters run continuation by continuation (they diverge at
  /// the very next fetch). Lane groups run vm micro-ops, so they serve
  /// the interpreted engines only: when continuations would execute
  /// native code (a native JIT engine without CfiCheck) every pool runs
  /// continuation by continuation and Stats.Lanes reports false. Verdict
  /// tables and violation lists are bit-identical with and without lanes,
  /// for every engine, thread count and resume mode; only wall-clock time
  /// and the lane statistics change, so off it selects the reference
  /// configuration fold oracles compare against. Ignored by recovery
  /// campaigns, typed campaigns and plan campaigns.
  bool Lanes = true;
  /// Deterministic shard partition of the task list: the enumerated tasks
  /// are split into ShardCount contiguous ranges (shard I covers
  /// [I*T/N, (I+1)*T/N) of the T enumerated tasks) and only shard
  /// ShardIndex is classified. Because enumeration order is deterministic
  /// and per-task verdicts are independent, folding the N shard results in
  /// index order (foldShardResult) reproduces the unsharded campaign bit
  /// for bit — table, violation list and Ok flag. Statically pruned sites
  /// are tallied by shard 0 alone so the shard tables sum exactly.
  /// ShardCount 0 or 1 means no sharding; ShardIndex >= ShardCount is a
  /// campaign-level violation. Ignored by plan campaigns (their work list
  /// is the caller's plan vector — slice it directly instead).
  unsigned ShardCount = 1;
  unsigned ShardIndex = 0;
  /// Invoked exactly once, after the shard's classification phase has
  /// fully retired (every task verdict merged) and before the stats are
  /// finalized — i.e. at the shard boundary. The serve layer's
  /// crash-isolated workers use it as the chaos injection point: a worker
  /// told to die "at a shard boundary" raises its signal here, after the
  /// work is provably complete but before any result escapes the process,
  /// which is the worst case the retry path must mask. Null = no hook.
  std::function<void(unsigned ShardIndex, unsigned ShardCount)>
      ShardRetiredHook;
};

struct CampaignStats {
  /// Injection phase only (excludes the reference run).
  double WallSeconds = 0;
  /// The reference phase this result paid for: enumerating the shard's
  /// own slice, plus recording the sweep's SweepReference — the fault-free
  /// reference run with its injection snapshots, the differential
  /// replay's sizing run, recording and link pass (when Converge is on),
  /// and counting the tasks per fault site, including the static pruning
  /// analysis — when this is the first shard run from it. Later shards of
  /// the same reference report only their slice, so the sum over a
  /// sweep's shards counts the recording once.
  double ReferenceSeconds = 0;
  double TriplesPerSecond = 0;
  /// Workers that ran: the requested count capped by the units they
  /// share out (task blocks of one injection step in single-fault sweeps,
  /// plans in plan campaigns); always 1 for typed campaigns.
  unsigned ThreadsUsed = 1;
  uint64_t Tasks = 0;
  /// Name of the engine that produced the verdicts ("reference", "vm",
  /// "jit").
  const char *Engine = "reference";
  /// True when CampaignOptions::Prune was requested and the analysis
  /// accepted the program (pruning actually ran).
  bool Pruned = false;
  /// Injections discharged statically (== Table[StaticallyMasked] +
  /// Table[StaticallyDetected]).
  uint64_t PrunedTasks = 0;
  /// Injections discharged as StaticallyDetected (the control-register
  /// plane; included in PrunedTasks).
  uint64_t PrunedDetected = 0;
  /// True when CampaignOptions::CfiCheck was requested and a target table
  /// could be built (the CFG analysis accepted the program).
  bool CfiChecked = false;
  /// Committed indirect transfers observed / flagged by the CFI hook.
  /// Commit counts are an execution-strategy diagnostic (lane grouping
  /// and the differential replay legitimately change how many commits
  /// execute); the soundness claim is CfiViolations == 0.
  uint64_t CfiCommits = 0;
  uint64_t CfiViolations = 0;
  /// True when the differential replay was armed for this campaign.
  bool Converge = false;
  /// Register-site continuations the differential replay classified
  /// Masked because their taint drained: the faulty state re-joined the
  /// reference exactly, so the rest of the run was never executed.
  uint64_t EarlyExits = 0;
  /// Sum and max of the divergence windows (reference steps between the
  /// injection and the taint draining) over all early exits.
  uint64_t WindowSum = 0;
  uint64_t MaxWindow = 0;
  /// Reference-tail steps the early exits skipped (what the full runs
  /// would have executed past the convergence points).
  uint64_t StepsSaved = 0;
  /// Register-site continuations the sparse differential replay advanced
  /// past at least one reference step without concrete simulation, and
  /// the total reference steps so discharged (fully replayed runs and
  /// the skipped prefix of runs that bailed to concrete simulation).
  uint64_t LockstepSkips = 0;
  uint64_t LockstepSteps = 0;
  /// True when batched lane execution was active for this campaign.
  bool Lanes = false;
  /// Lane groups executed, continuations classified through the lane
  /// path, lanes that deviated to the scalar fallback mid-group, and the
  /// total lane-steps executed inside lockstep groups. All are
  /// order-independent sums, as thread-deterministic as the table — but
  /// unlike the verdict counters they legitimately differ between lane
  /// and scalar runs of the same campaign (they describe the execution
  /// strategy, not the outcome).
  uint64_t LaneGroups = 0;
  uint64_t LaneTasks = 0;
  uint64_t LaneDeviations = 0;
  uint64_t LaneLockstepSteps = 0;
  /// True when the selected engine was the JIT tier (vm/JitEngine.h) and
  /// it actually emitted native code; false under --engine jit on a host
  /// without executable mappings (the campaign then ran on the embedded
  /// vm fallback — Engine still reports "jit" so the fallback is visible
  /// as JitNative == false).
  bool JitNative = false;
  /// Micro-ops lowered to native templates and the emitted code size:
  /// per-program constants.
  uint64_t JitBlocksCompiled = 0;
  uint64_t JitCodeBytes = 0;
  /// Native-to-driver transitions during this campaign. Like the lane
  /// counters this describes the execution strategy, not the outcome:
  /// the replay's bail points and the continuation budgets shape it.
  uint64_t JitSideExits = 0;
  /// int64 lanes per vector op in the batched lane banks (vm/LaneSimd.h):
  /// 4 = AVX2, 2 = SSE2, 1 = portable scalar build; 0 when the campaign
  /// ran no lane groups (Lanes false).
  unsigned SimdLaneWidth = 0;
  /// Shard provenance: which contiguous slice of the enumerated task list
  /// this result covers. ShardCount 1 / TotalTasks == Tasks describes an
  /// unsharded run; after foldShardResult, ShardsFolded counts the shard
  /// results merged in and the slice grows back toward [0, TotalTasks).
  unsigned ShardCount = 1;
  unsigned ShardIndex = 0;
  /// First task (enumeration index) of this shard's slice.
  uint64_t ShardFirstTask = 0;
  /// Size of the full task enumeration before shard slicing (Tasks is the
  /// slice actually classified here).
  uint64_t TotalTasks = 0;
  /// Number of shard results folded into this one (0 = a direct campaign
  /// run that never went through foldShardResult).
  unsigned ShardsFolded = 0;
};

/// The merged outcome of a campaign.
struct CampaignResult {
  /// False when any continuation received a non-benign verdict, or the
  /// reference run itself failed.
  bool Ok = true;
  uint64_t ReferenceSteps = 0;
  OutputTrace ReferenceTrace;
  VerdictTable Table;
  /// States re-typed in faulty continuations (typed campaigns only).
  uint64_t StatesTypechecked = 0;
  /// Violation descriptions in task-enumeration order, capped at
  /// TheoremConfig::MaxViolations after the merge.
  std::vector<std::string> Violations;
  CampaignStats Stats;
  /// Summed checkpoint/rollback activity of all faulty continuations
  /// (recovery campaigns only; all-zero otherwise). Sums are
  /// order-independent, so this is as thread-deterministic as the table.
  RecoveryStats Recovery;
  /// Whole-program content hash (isa/ProgramHash.h) of the campaigned
  /// program: the identity half of the serve-layer memo key, recorded in
  /// every JSON report as provenance. 0 only when the initial state could
  /// not be built.
  uint64_t ProgramHash = 0;
  /// Description of the first CFI violation (empty when none or when
  /// CfiCheck was off).
  std::string CfiFirstViolation;
};

/// The Theorem 4 exhaustive single-fault sweep, parallelized. With one
/// thread this reproduces checkFaultTolerance exactly (Theorems.cpp
/// delegates here); with N threads the verdict table, violation list and
/// every counter are bit-identical to the serial run. Without
/// TypeCheckFaultyStates this is runSingleFaultCampaign on CP.Prog;
/// with it the sweep runs serially on the reference interpreter.
CampaignResult runFaultToleranceCampaign(TypeContext &TC,
                                         const CheckedProgram &CP,
                                         const TheoremConfig &Config,
                                         const CampaignOptions &Opts);

/// The same exhaustive single-fault sweep on the raw semantics (no
/// typing), so it also covers programs the checker rejects — e.g. the
/// Figure 10 kernels with dynamic addressing. Identical enumeration,
/// classification and determinism guarantees; TypeCheckFaultyStates is a
/// configuration error here. With Config.Recovery.Enabled the faulty
/// continuations run under the checkpoint/rollback layer
/// (recover/RecoveringEngine.h) and the benign verdicts become
/// Masked / Recovered / RecoveryEscalated.
///
/// This is SweepReference(Prog, Config, Opts).runShard(Opts). Callers that
/// run several shards of one sweep build the reference once and run each
/// shard from it instead.
CampaignResult runSingleFaultCampaign(const Program &Prog,
                                      const TheoremConfig &Config,
                                      const CampaignOptions &Opts);

/// The shard-independent half of runSingleFaultCampaign: everything a
/// shard needs before it classifies its slice of the task list. It holds
/// the program hash, the fault-free reference run with its injection
/// snapshots, output trace and final state, the differential replay's
/// recording and links (Opts.Converge), and the tasks each fault site
/// contributes, counted after the OnlyMentionedRegisters filter and the
/// static discharges (Opts.Prune), whose tallies it keeps. The prune
/// oracle and the control-ahead flags of the injection snapshots decide
/// those discharges while it is built and are dropped after. When the
/// reference run fails, it holds that failure, and every shard returns it.
///
/// Building one runs the campaign's whole reference phase on Opts.Engine
/// under Opts's Converge, Prune and CfiCheck; the shards only read it
/// (the first one also claims its recording time), so any number of them
/// may run from one reference, in any order. The recorded states point
/// into \p Prog, which must outlive the reference.
class SweepReference {
public:
  SweepReference(const Program &Prog, const TheoremConfig &Config,
                 const CampaignOptions &Opts);
  ~SweepReference();

  /// Enumerates shard Opts.ShardIndex of Opts.ShardCount, in one walk over
  /// the sites of its slice, and classifies it. Reads the execution knobs
  /// of \p Opts (Threads, Resume, Engine, Lanes, progress, the shard slice
  /// and ShardRetiredHook); Converge, Prune and CfiCheck are the
  /// reference's. The result equals runSingleFaultCampaign's with the same
  /// options in every field but the timings, whose ReferenceSeconds covers
  /// the recording only in the first shard run from this reference (see
  /// CampaignStats::ReferenceSeconds). Under CfiCheck its counts are the
  /// reference run's plus the shard's own, as when every shard recorded
  /// its own reference.
  CampaignResult runShard(const CampaignOptions &Opts) const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// One scheduled corruption of an explicit multi-fault plan: when the run
/// reaches \p Step transitions, replace the payload at \p Site with
/// \p Value.
struct InjectionPoint {
  uint64_t Step = 0;
  FaultSite Site;
  int64_t Value = 0;
};

/// A plan is a step-ordered list of injections (one point = the SEU model;
/// two points = the double-fault ablation).
using InjectionPlan = std::vector<InjectionPoint>;

/// A batch of explicit plans classified against one reference run. Plans
/// run on the raw semantics (no typing), so this also works for programs
/// the checker rejects.
struct PlanCampaign {
  const Program *Prog = nullptr;
  StepPolicy Policy;
  /// Budget for the reference execution.
  uint64_t MaxReferenceSteps = 100000;
  /// Faulty continuations get the remaining reference steps plus this.
  uint64_t ExtraSteps = 2000;
  std::vector<InjectionPlan> Plans;
};

/// Classifies every plan in parallel. Final-state similarity is only
/// meaningful when every injection of a plan corrupts the same color (the
/// zap tag is a single color); cross-color plans classify on the output
/// trace alone. Ok here means no plan got stuck or exhausted its budget —
/// SilentCorruption is tallied, not treated as a violation, because
/// multi-fault ablations *expect* it; callers judge the table themselves.
CampaignResult runInjectionPlans(const PlanCampaign &Spec,
                                 const CampaignOptions &Opts);

/// Folds shard result \p Shard into the accumulator \p Acc, which must be
/// initialized from the preceding shard's result (fold shard 0's result
/// into shard 1's accumulator copy, and so on, in shard-index order). Each
/// field folds by its rule in the field table (fault/CampaignFields.h);
/// violations are capped at \p MaxViolations. After folding all N shards
/// the result equals the unsharded campaign on every outcome and strategy
/// field of the table.
void foldShardResult(CampaignResult &Acc, const CampaignResult &Shard,
                     size_t MaxViolations = 16);

/// Renders a campaign result as a JSON object (no trailing newline), one
/// member per row of the field table (fault/CampaignFields.h). \p Indent
/// is the number of spaces prefixed to every line, letting callers nest
/// the object in a larger report.
std::string campaignToJson(const CampaignResult &R, unsigned Indent = 0);

} // namespace talft

#endif // TALFT_FAULT_CAMPAIGN_H
