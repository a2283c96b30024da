//===- fault/Campaign.cpp -------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"

#include "analysis/ZapCoverage.h"
#include "isa/ProgramHash.h"
#include "support/StringUtils.h"
#include "support/Unreachable.h"
#include "vm/JitEngine.h"
#include "vm/LaneEngine.h"
#include "vm/LaneSimd.h"
#include "vm/LaneState.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace talft;

const char *talft::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Masked:
    return "masked";
  case Verdict::Detected:
    return "detected";
  case Verdict::SilentCorruption:
    return "silent corruption";
  case Verdict::DissimilarState:
    return "dissimilar state";
  case Verdict::DetectedBadPrefix:
    return "detected (bad prefix)";
  case Verdict::BudgetExhausted:
    return "budget exhausted";
  case Verdict::Stuck:
    return "stuck";
  case Verdict::IllTyped:
    return "ill-typed";
  case Verdict::Recovered:
    return "recovered";
  case Verdict::RecoveryEscalated:
    return "recovery escalated";
  case Verdict::StaticallyMasked:
    return "statically masked";
  case Verdict::StaticallyDetected:
    return "statically detected";
  }
  talft_unreachable("unknown verdict");
}

const char *talft::verdictJsonKey(Verdict V) {
  switch (V) {
  case Verdict::Masked:
    return "masked";
  case Verdict::Detected:
    return "detected";
  case Verdict::SilentCorruption:
    return "silent_corruption";
  case Verdict::DissimilarState:
    return "dissimilar_state";
  case Verdict::DetectedBadPrefix:
    return "detected_bad_prefix";
  case Verdict::BudgetExhausted:
    return "budget_exhausted";
  case Verdict::Stuck:
    return "stuck";
  case Verdict::IllTyped:
    return "ill_typed";
  case Verdict::Recovered:
    return "recovered";
  case Verdict::RecoveryEscalated:
    return "recovery_escalated";
  case Verdict::StaticallyMasked:
    return "statically_masked";
  case Verdict::StaticallyDetected:
    return "statically_detected";
  }
  talft_unreachable("unknown verdict");
}

uint64_t VerdictTable::total() const {
  uint64_t N = 0;
  for (uint64_t C : Counts)
    N += C;
  return N;
}

uint64_t VerdictTable::benign() const {
  return (*this)[Verdict::Masked] + (*this)[Verdict::Detected] +
         (*this)[Verdict::Recovered] + (*this)[Verdict::RecoveryEscalated] +
         (*this)[Verdict::StaticallyMasked] +
         (*this)[Verdict::StaticallyDetected];
}

void VerdictTable::merge(const VerdictTable &O) {
  for (size_t I = 0; I != NumVerdicts; ++I) {
    uint64_t &C = Counts[I];
    C = (O.Counts[I] > UINT64_MAX - C) ? UINT64_MAX : C + O.Counts[I];
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

bool isBenign(Verdict V) {
  return V == Verdict::Masked || V == Verdict::Detected ||
         V == Verdict::Recovered || V == Verdict::RecoveryEscalated ||
         V == Verdict::StaticallyMasked || V == Verdict::StaticallyDetected;
}

/// The violation text for an abnormal single-fault verdict, matching the
/// wording the serial checker has always produced.
const char *abnormalMessage(Verdict V) {
  switch (V) {
  case Verdict::SilentCorruption:
    return "completed with a DIFFERENT output trace (silent data corruption)";
  case Verdict::DissimilarState:
    return "completed but the final state is not similar to the reference "
           "final state";
  case Verdict::DetectedBadPrefix:
    return "detected, but the faulty output is not a prefix of the "
           "reference output";
  case Verdict::BudgetExhausted:
    return "faulty run exceeded its step budget without detection or "
           "completion";
  case Verdict::Stuck:
    return "faulty run got stuck";
  default:
    talft_unreachable("verdict has no violation message");
  }
}

std::string describeInjection(const FaultSite &Site, int64_t Value,
                              uint64_t AtStep, const char *What) {
  return formatv("inject %s := %lld at step %llu: %s", Site.str().c_str(),
                 (long long)Value, (unsigned long long)AtStep, What);
}

/// Runs \p RunOne over every index in [0, Total) across \p Threads workers.
/// Workers pull fixed-size chunks off an atomic cursor; because each task
/// writes only its own slot, the schedule cannot affect results.
void dispatchTasks(unsigned Threads, uint64_t Total,
                   const std::function<void(uint64_t)> &RunOne,
                   uint64_t ProgressInterval,
                   const std::function<void(const CampaignProgress &)> &Progress) {
  if (Total == 0)
    return;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = (unsigned)std::min<uint64_t>(Threads, Total);
  uint64_t Chunk =
      std::max<uint64_t>(1, std::min<uint64_t>(64, Total / (uint64_t(Threads) * 8)));

  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Completed{0};
  std::mutex ProgressMu;
  auto Work = [&] {
    while (true) {
      uint64_t Begin = Next.fetch_add(Chunk, std::memory_order_relaxed);
      if (Begin >= Total)
        return;
      uint64_t End = std::min(Total, Begin + Chunk);
      for (uint64_t I = Begin; I != End; ++I)
        RunOne(I);
      uint64_t Prev = Completed.fetch_add(End - Begin, std::memory_order_acq_rel);
      uint64_t Done = Prev + (End - Begin);
      if (Progress && ProgressInterval &&
          (Done == Total || Done / ProgressInterval != Prev / ProgressInterval)) {
        std::lock_guard<std::mutex> Lock(ProgressMu);
        Progress({Done, Total});
      }
    }
  };

  if (Threads == 1) {
    Work();
    return;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  for (unsigned T = 0; T + 1 < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &Th : Pool)
    Th.join();
}

/// Registers the program mentions anywhere, plus the specials.
std::set<unsigned> mentionedRegisters(const Program &Prog) {
  std::set<unsigned> Used;
  for (const Block &B : Prog.blocks()) {
    for (const ProgInst &PI : B.Insts) {
      const Inst &I = PI.I;
      Used.insert(I.Rd.denseIndex());
      Used.insert(I.Rs.denseIndex());
      if (!I.HasImm)
        Used.insert(I.Rt.denseIndex());
    }
  }
  Used.insert(Reg::dest().denseIndex());
  Used.insert(Reg::pcG().denseIndex());
  Used.insert(Reg::pcB().denseIndex());
  return Used;
}

/// The reference state at one injection step, without typing bookkeeping.
struct UntypedSnapshot {
  MachineState S;
  uint64_t Steps = 0;
  size_t TraceLen = 0;
};

/// One (step, site, corruption) triple of the work list.
struct InjectionTask {
  uint32_t SnapIdx = 0;
  FaultSite Site;
  int64_t Value = 0;
};

/// Tracks whether a faulty run's outputs are still the prefix
/// RefTrace[0, MatchPos): one mismatched output makes both the prefix and
/// equality checks fail forever, so no faulty trace needs materializing.
struct PrefixTracker {
  const OutputTrace &RefTrace;
  size_t MatchPos;
  bool Diverged = false;

  void track(const QueueEntry &Out) {
    if (!Diverged && MatchPos < RefTrace.size() && Out == RefTrace[MatchPos])
      ++MatchPos;
    else
      Diverged = true;
  }
};

/// Phase-1 record of which reference transitions may touch each register.
/// Transition k (1-based: the step that produces reference state k) is
/// recorded against a *superset* of the registers whose payload or color
/// can influence its behavior or be written by it: the executed
/// instruction's named operands, plus d for control flow (jmp and bz read
/// and write it). Fetch transitions read only the pcs, which every
/// execute transition also touches (incrementPCs or an explicit set), so
/// the pcs are treated as always-accessed instead of being recorded.
/// Over-approximating the access set only shrinks the skippable prefix;
/// missing a genuine access would be unsound, so the superset property is
/// what the forced-collision and differential tests pin down.
struct AccessLog {
  static constexpr uint64_t None = ~uint64_t{0};
  std::array<std::vector<uint64_t>, Reg::NumRegs> Access;

  void record(Reg R, uint64_t K) {
    std::vector<uint64_t> &V = Access[R.denseIndex()];
    if (V.empty() || V.back() != K)
      V.push_back(K);
  }

  /// Records transition \p K given the pre-step state \p S.
  void recordTransition(const MachineState &S, uint64_t K) {
    if (!S.IR)
      return; // fetch reads only the (always-accessed) pcs
    const Inst &I = *S.IR;
    record(I.Rd, K);
    record(I.Rs, K);
    if (!I.HasImm)
      record(I.Rt, K);
    if (I.Op == Opcode::Jmp || I.Op == Opcode::Bz)
      record(Reg::dest(), K);
  }

  /// First transition index > \p Step that may access \p R, or None when
  /// the reference never touches it again. The pcs are read by the very
  /// next transition, whatever it is.
  uint64_t firstAccessAfter(Reg R, uint64_t Step) const {
    if (R.isPC())
      return Step + 1;
    const std::vector<uint64_t> &V = Access[R.denseIndex()];
    auto It = std::upper_bound(V.begin(), V.end(), Step);
    return It == V.end() ? None : *It;
  }
};

/// Phase-1 record of one executed reference instruction with its read
/// operand values and its result, the raw material of the sparse
/// differential replay. Fetch and execute transitions strictly alternate
/// (step() fetches into the empty IR, executing resets it), so execute
/// transitions are exactly the even step indices and the record of
/// execute step k lives at index k/2 - 1.
struct ExecRec {
  /// The instruction's opcode and operand names; an immediate operand is
  /// SrcRt. (Not the whole Inst: the log holds one record per executed
  /// instruction, so every byte here counts on long reference runs.)
  Opcode Op = Opcode::Mov;
  bool HasImm = false;
  Reg Rd, Rs, Rt;
  /// Pre-step val(Rs) — the ALU first operand, the Ld/St address/value
  /// source, or the Bz test register (rz == Rs).
  int64_t SrcRs = 0;
  /// Pre-step val(Rt), or the immediate payload under HasImm.
  int64_t SrcRt = 0;
  /// Post-step val(Rd) (the written result for Alu/Mov/Ld; stale
  /// otherwise).
  int64_t Result = 0;
};

/// Everything the differential replay needs: dense snapshots to
/// reconstruct an arbitrary reference state from (Snaps[k].Steps ==
/// k * Stride by construction), the register access log and the recorded
/// instruction stream.
struct ConvergenceContext {
  const std::vector<UntypedSnapshot> *Snaps = nullptr;
  uint64_t Stride = 1;
  const AccessLog *Accesses = nullptr;
  const std::vector<ExecRec> *Execs = nullptr;
};

/// The faulty payloads of a differential replay: (dense register index,
/// value) pairs for exactly the registers whose payload differs from the
/// reference. Taint never touches color tags (injectFault preserves them
/// and instruction results take their colors from operand colors, which
/// are payload-independent), so "reference state with these payloads
/// patched in" describes the faulty state completely. The set stays tiny
/// (usually one to three registers), so linear scans beat any map.
struct TaintMap {
  std::vector<std::pair<unsigned, int64_t>> V;

  const int64_t *find(unsigned R) const {
    for (const auto &P : V)
      if (P.first == R)
        return &P.second;
    return nullptr;
  }
  void set(unsigned R, int64_t Val) {
    for (auto &P : V)
      if (P.first == R) {
        P.second = Val;
        return;
      }
    V.push_back({R, Val});
  }
  void erase(unsigned R) {
    for (size_t I = 0; I != V.size(); ++I)
      if (V[I].first == R) {
        V[I] = V.back();
        V.pop_back();
        return;
      }
  }
  bool empty() const { return V.empty(); }
};

/// Writes the taint payloads into \p S, keeping every color tag.
void patchTaint(MachineState &S, const TaintMap &T) {
  for (const auto &P : T.V) {
    Reg R = Reg::fromDenseIndex(P.first);
    Value V = S.Regs.get(R);
    V.N = P.second;
    S.Regs.set(R, V);
  }
}

/// One task's differential-replay outcome, written by the classifier and
/// merged deterministically after the parallel phase.
struct ConvergenceHit {
  bool Hit = false;
  uint64_t Window = 0; ///< Steps from injection to the taint draining.
  uint64_t Saved = 0;  ///< Reference-tail steps skipped by the early exit.
  uint64_t Skipped = 0; ///< Lockstep-prefix steps discharged unsimulated.
};

/// Phase-1 collector for the differential replay: the register access
/// log, the executed-instruction records and the dense reconstruction
/// snapshots. The snapshot stride starts small and doubles (dropping the
/// odd-indexed half) whenever the cap is hit, bounding memory at MaxSnaps
/// states while preserving the indexing invariant Snaps[k].Steps ==
/// k * Stride.
struct ConvergenceRecorder {
  bool Enabled = false;
  AccessLog Accesses;
  std::vector<ExecRec> Execs;
  std::vector<UntypedSnapshot> Snaps;
  uint64_t Stride = 16;
  static constexpr size_t MaxSnaps = 512;

  void start(const MachineState &S) {
    if (!Enabled)
      return;
    Snaps.push_back({S, 0, 0});
  }

  /// Call with the pre-step state; \p NextStep is the 1-based index of the
  /// transition about to execute.
  void beforeStep(const MachineState &S, uint64_t NextStep) {
    if (!Enabled)
      return;
    Accesses.recordTransition(S, NextStep);
    if (!S.IR)
      return;
    assert(NextStep == 2 * (Execs.size() + 1) &&
           "fetch/execute alternation broken");
    const Inst &I = *S.IR;
    ExecRec Rec;
    Rec.Op = I.Op;
    Rec.HasImm = I.HasImm;
    Rec.Rd = I.Rd;
    Rec.Rs = I.Rs;
    Rec.Rt = I.Rt;
    Rec.SrcRs = S.Regs.val(I.Rs);
    Rec.SrcRt = I.HasImm ? I.Imm.N : S.Regs.val(I.Rt);
    Execs.push_back(Rec);
  }

  void afterStep(const MachineState &S, uint64_t Steps, size_t TraceLen) {
    if (!Enabled)
      return;
    // Execute transitions are the even steps; patch the freshly executed
    // record with the written result (post-step val(Rd)).
    if ((Steps & 1) == 0 && !Execs.empty())
      Execs.back().Result = S.Regs.val(Execs.back().Rd);
    if (Steps % Stride)
      return;
    if (Snaps.size() >= MaxSnaps) {
      size_t W = 0;
      for (size_t I = 0; I < Snaps.size(); I += 2)
        Snaps[W++] = std::move(Snaps[I]);
      Snaps.resize(W);
      Stride *= 2;
      if (Steps % Stride)
        return;
    }
    Snaps.push_back({S, Steps, TraceLen});
  }
};

/// Sparse differential replay of one register-site continuation against
/// the recorded reference instruction stream: the campaign's convergence
/// shortcut. Faults whose taint drains, long-latency Detected runs and
/// color-divergent Masked runs all resolve here without stepping the
/// machine, where full-state simulation would classify them step by step.
///
/// The soundness backbone is *structural lockstep*: as long as every
/// register payload that differs from the reference is confined to the
/// TaintMap, the faulty run executes exactly the reference's instruction
/// sequence. Fetches read only the (untainted) pcs; memory changes only
/// through stB commits, and a commit whose inputs are tainted is never
/// reached differentially (its stG or stB is an event that bails first),
/// so memory and queue stay reference-equal throughout; similarly a
/// control transition bails unless it is a bz that falls through in both
/// runs with d untainted. Every transition whose accessed registers are
/// all untainted therefore reads reference values, fires the reference
/// rule, writes reference values and emits the reference outputs — only
/// the *events*, the transitions the access log says may touch a tainted
/// register, need attention:
///
///   - alu: the faulty result is evalAluOp over the recorded source
///     values with taint overrides; equal to the recorded result it
///     kills the Rd taint, different it retaints Rd;
///   - mov: Rd takes the immediate — the reference result — killing Rd's
///     taint unconditionally;
///   - ld with an untainted address: reads reference-equal memory (and,
///     for ldG, a reference-equal queue), so Rd gets the reference
///     result, killing its taint; a tainted address bails;
///   - bz with d untainted that falls through in both runs: a
///     fall-through reads only the test register and d, so even a
///     tainted target register is never read; no register writes, taint
///     unchanged. A branch taken in either run bails;
///   - everything else (st, jmp, a tainted d) bails to the
///     concrete classifier.
///
/// Three ways out, all verdict-exact against the full simulation:
///
///   - the taint set empties: the faulty state now equals the reference
///     state exactly, so the remainder is the reference tail — Masked;
///   - no tainted register is ever accessed again: the run is lockstep
///     to the halt, the trace completes, and the final state is RefFinal
///     with the taint patched in — only the similarity check remains;
///   - bail: the reference state just before the event is reconstructed
///     from the dense snapshots, the taint payloads are patched in (that
///     IS the faulty state there, by the invariant), and nullopt tells
///     the caller to classify concretely from that point with \p S,
///     \p AtSteps and \p TraceLen repositioned and the fault already in
///     place. With \p DB (the batched lane path) the bail instead leaves
///     \p S, \p AtSteps and \p TraceLen untouched and reports the resume
///     step and the taint map through \p DB: the bail step depends only
///     on the taint *set*, not the corrupted payloads, so every value
///     zapped into the same site bails at the same event — the caller
///     pools those continuations, reconstructs their shared base state
///     once and patches each lane's taint in.
///
/// Event processing costs an order of magnitude more than one raw
/// interpreter step, so a run whose taint is touched at nearly every
/// instruction caps its event count and bails instead of losing the race
/// (see GateEvents below).
struct DeferredBail {
  /// Absolute reference step to resume from (post-fetch: the event
  /// instruction is in flight there and re-executes for real).
  uint64_t Resume = 0;
  /// The register payloads that differ from the reference at Resume.
  TaintMap Taint;
};

/// The replay's progress gate: once GateEvents events have been processed,
/// the replay bails to concrete simulation unless they discharged at
/// least GateStepsPerEvent reference steps each. One event (access-log
/// search, taint update) costs about as much as 20-30 native JIT steps,
/// so dense taint is cheaper to simulate than to replay. Chosen by an
/// interleaved sweep over both default paths on the fifteen Figure 10
/// kernels (pruned jit at stride steps/24; unpruned vm with lanes at
/// steps/6), eight rounds on a 4-vCPU x86-64 VM, median injection
/// seconds per path (the first four tie within noise; (8, 32) is kept):
///
///   (GateEvents, GateStepsPerEvent)   jit    vm
///   (8, 32)                           0.354  0.121
///   (16, 32)                          0.360  0.125
///   (8, 64)                           0.356  0.122
///   (16, 64)                          0.355  0.120
///   (32, 8), the previous gate        0.746  0.193
constexpr uint64_t GateEvents = 8;
constexpr uint64_t GateStepsPerEvent = 32;

std::optional<Verdict>
differentialReplay(const ExecEngine &E, const StepPolicy &Policy,
                   const ConvergenceContext &Conv, const FaultSite &Site,
                   int64_t Value, const MachineState &RefFinal,
                   uint64_t RefSteps, ZapTag Z, MachineState &S,
                   uint64_t &AtSteps, size_t &TraceLen, ConvergenceHit *Hit,
                   DeferredBail *DB = nullptr) {
  const AccessLog &AL = *Conv.Accesses;
  const std::vector<ExecRec> &Execs = *Conv.Execs;
  const uint64_t InjectedAt = AtSteps;
  TaintMap T;
  T.set(Site.R.denseIndex(), Value);

  uint64_t Cur = AtSteps;
  uint64_t Events = 0;
  uint64_t Bail = 0;
  while (true) {
    // The next reference transition that may touch any tainted register.
    uint64_t K = AccessLog::None;
    for (const auto &P : T.V)
      K = std::min(K, AL.firstAccessAfter(Reg::fromDenseIndex(P.first), Cur));
    if (K == AccessLog::None) {
      if (Hit)
        Hit->Skipped = RefSteps - InjectedAt;
      // The faulty final state is RefFinal with the taint payloads patched
      // in — identical everywhere else — so the similarity check reduces
      // to the tainted registers; no state copy needed.
      if (RefFinal.isFault())
        return Verdict::Masked;
      for (const auto &P : T.V) {
        talft::Value RefV = RefFinal.Regs.get(Reg::fromDenseIndex(P.first));
        if (!similarValues(Z, talft::Value(RefV.C, P.second), RefV))
          return Verdict::DissimilarState;
      }
      return Verdict::Masked;
    }
    assert((K & 1) == 0 && K / 2 <= Execs.size() &&
           "event is not a recorded execute transition");
    // Progress gate: the replay only pays off while events stay sparse.
    // Dense taint (many hot registers) discharges few steps per event;
    // hand such runs to the concrete classifier before the bookkeeping
    // loses the race.
    if (++Events >= GateEvents &&
        K - InjectedAt < GateStepsPerEvent * Events) {
      Bail = K;
      break;
    }
    const ExecRec &Rec = Execs[K / 2 - 1];
    bool Handled = true;
    switch (Rec.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul: {
      const int64_t *TA = T.find(Rec.Rs.denseIndex());
      int64_t A = TA ? *TA : Rec.SrcRs;
      int64_t B = Rec.SrcRt;
      if (!Rec.HasImm)
        if (const int64_t *TB = T.find(Rec.Rt.denseIndex()))
          B = *TB;
      int64_t R = evalAluOp(Rec.Op, A, B);
      if (R == Rec.Result)
        T.erase(Rec.Rd.denseIndex());
      else
        T.set(Rec.Rd.denseIndex(), R);
      break;
    }
    case Opcode::Mov:
      T.erase(Rec.Rd.denseIndex());
      break;
    case Opcode::Ld:
      if (T.find(Rec.Rs.denseIndex()))
        Handled = false;
      else
        T.erase(Rec.Rd.denseIndex());
      break;
    case Opcode::Bz: {
      if (T.find(Reg::dest().denseIndex())) {
        Handled = false;
        break;
      }
      const int64_t *TZ = T.find(Rec.Rs.denseIndex());
      int64_t Zf = TZ ? *TZ : Rec.SrcRs;
      if (Zf == 0 || Rec.SrcRs == 0)
        Handled = false; // taken in either run
      break;
    }
    default:
      Handled = false; // st, jmp: hand over to the concrete classifier
      break;
    }
    if (!Handled) {
      Bail = K;
      break;
    }
    Cur = K;
    if (T.empty()) {
      if (Hit) {
        Hit->Hit = true;
        Hit->Window = K - InjectedAt;
        Hit->Saved = RefSteps - K;
        Hit->Skipped = K - InjectedAt;
      }
      return Verdict::Masked;
    }
  }

  // Bail: resume concretely just before the event (post-fetch, so the
  // event instruction re-executes for real). A short discharged prefix is
  // cheaper to re-simulate than to reconstruct from a snapshot.
  if (DB) {
    DB->Resume = Bail - 1;
    DB->Taint = std::move(T);
    return std::nullopt;
  }
  uint64_t Resume = Bail - 1;
  if (Resume > InjectedAt + 64) {
    const UntypedSnapshot &Base = (*Conv.Snaps)[Resume / Conv.Stride];
    assert(Base.Steps <= Resume && "snapshot stride invariant violated");
    MachineState Ref = Base.S;
    OutputTrace Replayed;
    E.replaySteps(Ref, Resume - Base.Steps, Replayed, Policy);
    S = std::move(Ref);
    TraceLen = Base.TraceLen + Replayed.size();
    AtSteps = Resume;
    if (Hit)
      Hit->Skipped = Resume - InjectedAt;
    patchTaint(S, T);
  } else {
    injectFault(S, Site, Value);
  }
  return std::nullopt;
}

/// Maps a finished continuation's RunStatus to its verdict — the single
/// source of truth shared by the scalar classifier and the batched lane
/// path, so the two can never drift. Only the Halted case consults the
/// final state.
Verdict verdictForStatus(RunStatus St, const PrefixTracker &Prefix,
                         const OutputTrace &RefTrace, ZapTag Z,
                         const MachineState &S, const MachineState &RefFinal) {
  switch (St) {
  case RunStatus::OutOfSteps:
    return Verdict::BudgetExhausted;
  case RunStatus::Stuck:
    return Verdict::Stuck;
  case RunStatus::FaultDetected:
    return Prefix.Diverged ? Verdict::DetectedBadPrefix : Verdict::Detected;
  case RunStatus::Halted:
    break;
  }
  if (Prefix.Diverged || Prefix.MatchPos != RefTrace.size())
    return Verdict::SilentCorruption;
  if (!similarStates(Z, S, RefFinal))
    return Verdict::DissimilarState;
  return Verdict::Masked;
}

/// Classifies one faulty continuation on the raw semantics via \p E. \p S
/// is the reference state at the injection step; \p TraceLen the reference
/// trace length there. The engine's runContinuation reproduces the serial
/// checker's control flow exactly (exit check before budget check) so
/// verdicts agree bit-for-bit with the historical classifier — and, since
/// engines are observationally identical, for every engine.
///
/// With \p Conv, the differential replay above tries to discharge the run
/// first; what it cannot discharge is simulated concretely from the point
/// where the replay bailed.
Verdict classifyContinuation(const ExecEngine &E, Addr ExitAddr,
                             const StepPolicy &Policy, uint64_t ExtraSteps,
                             const OutputTrace &RefTrace,
                             const MachineState &RefFinal, uint64_t RefSteps,
                             MachineState S, uint64_t AtSteps, size_t TraceLen,
                             const FaultSite &Site, int64_t Value,
                             const ConvergenceContext *Conv = nullptr,
                             ConvergenceHit *Hit = nullptr) {
  ZapTag Z = ZapTag::color(faultColor(S, Site));

  if (Conv && Conv->Accesses && Conv->Execs && !Conv->Execs->empty() &&
      Site.K == FaultSite::Kind::Register && !Site.R.isPC()) {
    // pc sites are accessed by the very next transition, so the replay
    // cannot discharge anything for them; everything else goes through
    // the differential engine, which either returns the final verdict or
    // repositions S/AtSteps/TraceLen with the taint already injected.
    if (std::optional<Verdict> V =
            differentialReplay(E, Policy, *Conv, Site, Value, RefFinal,
                               RefSteps, Z, S, AtSteps, TraceLen, Hit))
      return *V;
  } else {
    injectFault(S, Site, Value);
  }

  uint64_t Budget = RefSteps - AtSteps + ExtraSteps;
  PrefixTracker Prefix{RefTrace, TraceLen};
  RunStatus St = E.runContinuation(
      S, ExitAddr, Budget, Policy,
      [&Prefix](const QueueEntry &Out) { Prefix.track(Out); });
  return verdictForStatus(St, Prefix, RefTrace, Z, S, RefFinal);
}

/// Outcome of one injection under recovery: a verdict, the violation text
/// when non-empty, and the run's checkpoint/rollback activity.
struct RecoveredOutcome {
  Verdict V = Verdict::Masked;
  std::string Detail;
  RecoveryStats Stats;
};

/// The recovery-mode classifier: same injection, but the continuation
/// runs under the checkpoint/rollback layer. The fault is injected by the
/// step hook at hook time 0, after the RecoveringEngine has captured the
/// pre-injection state as its seed checkpoint — the last commit point the
/// hardware verified before the upset.
RecoveredOutcome classifyRecoveringContinuation(
    const ExecEngine &E, Addr ExitAddr, const StepPolicy &Policy,
    const RecoveryPolicy &RP, uint64_t ExtraSteps, const OutputTrace &RefTrace,
    const MachineState &RefFinal, uint64_t RefSteps, MachineState S,
    uint64_t AtSteps, size_t TraceLen, const FaultSite &Site, int64_t Value) {
  RecoveredOutcome O;
  ZapTag Z = ZapTag::color(faultColor(S, Site));

  PrefixTracker Prefix{RefTrace, TraceLen};
  RecoveringEngine RE(E, RP);
  RecoveringEngine::RunSpec Spec;
  Spec.ExitAddr = ExitAddr;
  Spec.Budget = RefSteps - AtSteps + ExtraSteps;
  Spec.Policy = Policy;
  Spec.OnOutput = [&Prefix](const QueueEntry &Out) { Prefix.track(Out); };
  Spec.Hook = [&Site, Value](MachineState &MS, uint64_t Taken) {
    if (Taken == 0)
      injectFault(MS, Site, Value);
  };
  RecoveryResult RR = RE.run(S, Spec);
  O.Stats = RR.Stats;

  auto Abnormal = [&](Verdict V) {
    O.V = V;
    O.Detail = describeInjection(Site, Value, AtSteps, abnormalMessage(V));
  };
  bool PrefixOk = !Prefix.Diverged;
  switch (RR.Status) {
  case RecoveryStatus::OutOfSteps:
    // Satellite fix: the step budget is shared by rollback replays, so
    // exhausting it mid-recovery is an escalation with its own message,
    // not a plain BudgetExhausted.
    if (RR.Stats.Rollbacks > 0) {
      O.V = Verdict::RecoveryEscalated;
      O.Detail = describeInjection(
          Site, Value, AtSteps,
          formatv("faulty run exceeded its shared step budget during "
                  "recovery (%llu rollback replay%s); escalated to fail-stop",
                  (unsigned long long)RR.Stats.Rollbacks,
                  RR.Stats.Rollbacks == 1 ? "" : "s")
              .c_str());
    } else {
      Abnormal(Verdict::BudgetExhausted);
    }
    return O;
  case RecoveryStatus::Stuck:
    Abnormal(Verdict::Stuck);
    return O;
  case RecoveryStatus::Escalated:
    // Fail-stop with every emitted output verified: the prefix guarantee
    // holds and the escalation is benign. A diverged prefix is the same
    // violation it always was.
    if (PrefixOk)
      O.V = Verdict::RecoveryEscalated;
    else
      Abnormal(Verdict::DetectedBadPrefix);
    return O;
  case RecoveryStatus::Halted:
    break;
  }

  if (Prefix.Diverged || Prefix.MatchPos != RefTrace.size()) {
    Abnormal(Verdict::SilentCorruption);
    return O;
  }
  if (!similarStates(Z, S, RefFinal)) {
    Abnormal(Verdict::DissimilarState);
    return O;
  }
  O.V = RR.Stats.Rollbacks > 0 ? Verdict::Recovered : Verdict::Masked;
  return O;
}

/// Outcome of one typed-mode injection (serial path).
struct TypedOutcome {
  Verdict V = Verdict::Masked;
  std::string Detail;
  uint64_t Typechecked = 0;
};

/// The typed-mode continuation: identical classification, but every state
/// (strided) is re-typed under the corrupted color's zap tag (Theorem 2
/// part 2). Runs through TrackedRun and the shared TypeContext, hence
/// serial-only.
TypedOutcome runTypedInjection(const TheoremConfig &Config, TrackedRun &Run,
                               const TrackedRun::Snapshot &At,
                               const FaultSite &Site, int64_t Corruption,
                               const TrackedRun::Snapshot &RefFinal,
                               const OutputTrace &RefTrace) {
  TypedOutcome O;
  Run.restore(At);
  Run.injectSingleFault(Site, Corruption);

  auto Fail = [&](Verdict V, const char *What) {
    O.V = V;
    O.Detail = describeInjection(Site, Corruption, At.Steps, What);
  };

  uint64_t TypeStride = std::max<uint64_t>(1, Config.FaultyTypeCheckStride);
  uint64_t Budget = RefFinal.Steps - At.Steps + Config.ExtraSteps;
  uint64_t Taken = 0;
  uint64_t SinceInjection = 0;
  while (true) {
    if (SinceInjection % TypeStride == 0) {
      if (Error E = Run.checkTyped()) {
        Fail(Verdict::IllTyped,
             ("faulty state not well-typed: " + E.message()).c_str());
        return O;
      }
      ++O.Typechecked;
    }
    if (Run.atExitBlock())
      break;
    if (Taken >= Budget) {
      Fail(Verdict::BudgetExhausted, abnormalMessage(Verdict::BudgetExhausted));
      return O;
    }
    StepResult SR = Run.stepOnce();
    ++Taken;
    ++SinceInjection;
    if (SR.Status == StepStatus::Stuck) {
      Fail(Verdict::Stuck, abnormalMessage(Verdict::Stuck));
      return O;
    }
    if (SR.Status == StepStatus::Fault) {
      if (isTracePrefix(Run.trace(), RefTrace)) {
        O.V = Verdict::Detected;
      } else {
        Fail(Verdict::DetectedBadPrefix,
             abnormalMessage(Verdict::DetectedBadPrefix));
      }
      return O;
    }
  }

  if (!(Run.trace() == RefTrace)) {
    Fail(Verdict::SilentCorruption, abnormalMessage(Verdict::SilentCorruption));
    return O;
  }
  if (!similarStates(Run.zapTag(), Run.state(), RefFinal.S)) {
    Fail(Verdict::DissimilarState, abnormalMessage(Verdict::DissimilarState));
    return O;
  }
  O.V = Verdict::Masked;
  return O;
}

/// Builds the static pruning oracle when the caller asked for one and the
/// analysis can vouch for the program (fully resolved CFG). Analysis
/// failures quietly fall back to the unpruned sweep — pruning is an
/// optimization, never a requirement.
std::optional<analysis::ZapCoverage>
buildPruneOracle(const Program &Prog, const CampaignOptions &Opts) {
  if (!Opts.Prune)
    return std::nullopt;
  Expected<analysis::ZapCoverage> Z = analysis::ZapCoverage::compute(Prog);
  if (!Z || !Z->pruneSound())
    return std::nullopt;
  return std::move(*Z);
}

/// Builds the CFI target table for --cfi-check campaigns: every commit's
/// per-jump resolved set, whatever its provenance — validating the
/// type-narrowed sets dynamically is the point. Analysis failures quietly
/// disable checking (the table is a soundness oracle, not a requirement).
std::unique_ptr<CfiTable> buildCfiTable(const Program &Prog,
                                        const CampaignOptions &Opts) {
  if (!Opts.CfiCheck)
    return nullptr;
  Expected<analysis::CFG> G = analysis::CFG::build(Prog);
  if (!G)
    return nullptr;
  auto Table = std::make_unique<CfiTable>(G->minAddr(), G->numInsts());
  for (Addr A = G->minAddr(); A != G->limitAddr(); ++A) {
    if (!G->isCommit(A))
      continue;
    const std::vector<Addr> &Targets = G->controlTargets(A);
    Table->setAllowed(A, std::vector<int64_t>(Targets.begin(), Targets.end()));
  }
  return Table;
}

/// Phase 2: the work list in the order the serial checker visits it,
/// so merged violation lists match it exactly. \p StateAt resolves the
/// reference state of snapshot \p SI (typed and untyped campaigns store
/// snapshots differently). With \p Prune, provably-dead register sites are
/// tallied into \p Table as StaticallyMasked instead of being enumerated —
/// exactly the triples the unpruned sweep would have classified, so the
/// table total is invariant under pruning.
///
/// A non-null \p CtrlAhead ("some control instruction executes at or after
/// this snapshot in the reference run", per snapshot) additionally arms
/// the control-register discharge, which the caller enables only when the
/// oracle vouches that the specials appear in control positions alone
/// (ZapCoverage::specialSiteDischargeSound), the campaign is untyped and
/// recovery-free, and ExtraSteps covers the predicted fault. The rules
/// mirror the dynamic classifier exactly:
///
///   d-zap — no non-control instruction can read or write d, so the
///   corrupted value survives verbatim until the next control executes,
///   where the d-protocol compares it (jmpG/bz demand d = 0; jmpB/bzB
///   demand d equal to the blue replica): with a control ahead the faulty
///   run faults on a reference-prefix trace (Detected); with none the run
///   replays the reference and ends similar modulo the green d (Masked).
///
///   pc-zap — the pcs are equal at every snapshot boundary, so corrupting
///   one desynchronizes them and the next fetch faults (Detected) —
///   unless the in-flight instruction is a committing blue control about
///   to succeed (it must: the reference completed), which overwrites both
///   pcs with the verified target and reproduces the reference state
///   exactly (Masked).
///
/// Only shard \p Shard of \p Shards is kept: the contiguous slice
/// [I*T/N, (I+1)*T/N) of the T tasks in enumeration order (none for an
/// out-of-range shard), with T returned in \p Total. A sharded call counts
/// the tasks in a first walk, so no shard ever holds the whole work list.
std::vector<InjectionTask>
enumerateTasks(const Program &Prog, const TheoremConfig &Config,
               size_t NumSnaps,
               const std::function<const MachineState &(size_t)> &StateAt,
               const analysis::ZapCoverage *Prune, VerdictTable &Table,
               const std::vector<uint8_t> *CtrlAhead, unsigned Shard,
               unsigned Shards, uint64_t &Total) {
  std::set<unsigned> UsedRegs;
  if (Config.OnlyMentionedRegisters)
    UsedRegs = mentionedRegisters(Prog);
  std::vector<int64_t> Corruptions = representativeCorruptions(Prog);

  // Visits every triple in enumeration order, tallying the static
  // discharges into Tab and handing each task left to simulate to Emit.
  auto Walk = [&](VerdictTable &Tab, auto &&Emit) {
    for (size_t SI = 0; SI != NumSnaps; ++SI) {
      const MachineState &S = StateAt(SI);
      // The pcs are only bumped when the next rule fires, so pcG's
      // payload is the address of the instruction the next transition
      // executes — whether or not it is already fetched into IR.
      Addr Here = S.pcG().N;
      for (const FaultSite &Site : enumerateFaultSites(S)) {
        if (Config.OnlyMentionedRegisters &&
            Site.K == FaultSite::Kind::Register &&
            !UsedRegs.count(Site.R.denseIndex()))
          continue;
        int64_t Current = currentValueAt(S, Site);
        if (Prune && Site.K == FaultSite::Kind::Register &&
            Prune->deadRegisterSite(Here, Site.R)) {
          for (int64_t Corruption : Corruptions)
            if (Corruption != Current)
              ++Tab[Verdict::StaticallyMasked];
          continue;
        }
        if (Prune && CtrlAhead && Site.K == FaultSite::Kind::Register &&
            (Site.R.isDest() || Site.R.isPC())) {
          Verdict V;
          if (Site.R.isDest()) {
            V = (*CtrlAhead)[SI] ? Verdict::StaticallyDetected
                                 : Verdict::StaticallyMasked;
          } else {
            bool CommitInFlight =
                S.IR && S.IR->isControlFlow() && S.IR->C == Color::Blue &&
                (S.IR->Op == Opcode::Jmp || S.Regs.val(S.IR->rz()) == 0);
            V = CommitInFlight ? Verdict::StaticallyMasked
                               : Verdict::StaticallyDetected;
          }
          for (int64_t Corruption : Corruptions)
            if (Corruption != Current)
              ++Tab[V];
          continue;
        }
        for (int64_t Corruption : Corruptions) {
          if (Corruption == Current)
            continue; // reg-zap replaces the value with a *different* one.
          Emit(InjectionTask{(uint32_t)SI, Site, Corruption});
        }
      }
    }
  };

  uint64_t Lo = 0, Hi = ~uint64_t{0};
  if (Shards > 1 || Shard != 0) {
    VerdictTable Ignored;
    uint64_t T = 0;
    Walk(Ignored, [&T](const InjectionTask &) { ++T; });
    Lo = Shard < Shards ? T * Shard / Shards : 0;
    Hi = Shard < Shards ? T * (Shard + 1) / Shards : 0;
  }
  std::vector<InjectionTask> Tasks;
  if (Hi != ~uint64_t{0})
    Tasks.reserve(Hi - Lo);
  uint64_t Idx = 0;
  Walk(Table, [&](const InjectionTask &T) {
    if (Idx >= Lo && Idx < Hi)
      Tasks.push_back(T);
    ++Idx;
  });
  Total = Idx;
  return Tasks;
}

/// Records in \p R the provenance of the shard enumerateTasks kept out of
/// \p Total tasks. Enumeration is deterministic and tasks classify
/// independently, so folding the N shard results in index order
/// (foldShardResult) reproduces the unsharded campaign bit for bit.
/// Returns false (with a campaign-level violation) on an out-of-range
/// shard index.
bool applyShardSlice(const CampaignOptions &Opts, const TheoremConfig &Config,
                     uint64_t Total, CampaignResult &R) {
  unsigned Count = std::max(1u, Opts.ShardCount);
  R.Stats.ShardCount = Count;
  R.Stats.ShardIndex = Opts.ShardIndex;
  R.Stats.TotalTasks = Total;
  if (Count == 1 && Opts.ShardIndex == 0)
    return true;
  if (Opts.ShardIndex >= Count) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(formatv("shard index %u out of range for %u "
                                     "shard(s)",
                                     Opts.ShardIndex, Count));
    return false;
  }
  R.Stats.ShardFirstTask = Total * Opts.ShardIndex / Count;
  // Statically pruned sites are tallied during enumeration, which every
  // shard repeats; assign them to shard 0 alone so the N shard tables sum
  // to the unsharded table exactly.
  if (Opts.ShardIndex != 0) {
    R.Table[Verdict::StaticallyMasked] = 0;
    R.Table[Verdict::StaticallyDetected] = 0;
  }
  return true;
}

/// Phase 3, untyped: classifies every task in parallel on the raw
/// semantics — with or without the recovery layer — and merges verdicts,
/// violations and recovery stats into \p R deterministically. Non-empty
/// \p ConvSnaps (dense reconstruction snapshots at stride \p ConvStride,
/// recorded by phase 1 when convergence is on) arm the differential
/// replay, which \p Accesses and \p Execs drive.
void classifyUntypedTasks(const Program &Prog, const TheoremConfig &Config,
                          const CampaignOptions &Opts,
                          const std::vector<InjectionTask> &Tasks,
                          const std::vector<UntypedSnapshot> &Snaps,
                          const OutputTrace &RefTrace,
                          const MachineState &RefFinal, uint64_t RefSteps,
                          const std::vector<UntypedSnapshot> &ConvSnaps,
                          uint64_t ConvStride, const AccessLog *Accesses,
                          const std::vector<ExecRec> *Execs,
                          CampaignResult &R) {
  auto AddViolation = [&](std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  };

  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  R.Stats.Engine = E.name();
  // JIT-tier provenance: compilation stats are per-program constants; the
  // side-exit counter is cumulative across the engine's lifetime, so this
  // campaign's share is the delta over the classification phase.
  const auto *JE = dynamic_cast<const vm::JitEngine *>(&E);
  uint64_t JitExitsBefore = JE ? JE->sideExits() : 0;
  if (JE) {
    R.Stats.JitNative = JE->native();
    R.Stats.JitBlocksCompiled = JE->blocksCompiled();
    R.Stats.JitCodeBytes = JE->codeBytes();
  }
  unsigned Threads = Opts.Threads
                         ? Opts.Threads
                         : std::max(1u, std::thread::hardware_concurrency());
  R.Stats.ThreadsUsed =
      (unsigned)std::min<uint64_t>(Threads, std::max<size_t>(1, Tasks.size()));
  Expected<MachineState> Initial = Prog.initialState();
  if (Error Err = Initial.takeError()) {
    AddViolation("cannot start: " + Err.message());
    return;
  }

  bool Recover = Config.Recovery.Enabled;
  bool Converge = !Recover && Opts.Converge && !ConvSnaps.empty();
  R.Stats.Converge = Converge;
  ConvergenceContext Conv{&ConvSnaps, std::max<uint64_t>(1, ConvStride),
                          Accesses, Execs};
  Addr ExitAddr = Prog.exitAddress();
  std::vector<uint8_t> Verdicts(Tasks.size(), 0);
  std::vector<std::string> Details(Tasks.size());
  std::vector<RecoveryStats> TaskStats(Recover ? Tasks.size() : 0);
  std::vector<ConvergenceHit> Hits(Converge ? Tasks.size() : 0);
  auto RunOne = [&](uint64_t I) {
    const InjectionTask &T = Tasks[I];
    const UntypedSnapshot &Snap = Snaps[T.SnapIdx];
    MachineState S;
    size_t TraceLen;
    if (Opts.Resume == ResumeMode::Snapshot) {
      S = Snap.S;
      TraceLen = Snap.TraceLen;
    } else {
      S = *Initial;
      OutputTrace Prefix;
      E.replaySteps(S, Snap.Steps, Prefix, Config.Policy);
      TraceLen = Prefix.size();
    }
    if (Recover) {
      RecoveredOutcome O = classifyRecoveringContinuation(
          E, ExitAddr, Config.Policy, Config.Recovery, Config.ExtraSteps,
          RefTrace, RefFinal, RefSteps, std::move(S), Snap.Steps, TraceLen,
          T.Site, T.Value);
      Verdicts[I] = (uint8_t)O.V;
      Details[I] = std::move(O.Detail);
      TaskStats[I] = O.Stats;
    } else {
      Verdict V = classifyContinuation(
          E, ExitAddr, Config.Policy, Config.ExtraSteps, RefTrace, RefFinal,
          RefSteps, std::move(S), Snap.Steps, TraceLen, T.Site, T.Value,
          Converge ? &Conv : nullptr, Converge ? &Hits[I] : nullptr);
      Verdicts[I] = (uint8_t)V;
      if (!isBenign(V))
        Details[I] =
            describeInjection(T.Site, T.Value, Snap.Steps, abnormalMessage(V));
    }
  };
  // Batched lane execution. Each worker owns whole blocks of the
  // snapshot-major task list: it discharges the scalar-only residue task
  // by task — pc sites (they deviate at the very next fetch), memory and
  // queue sites (the paired-store cross-check catches them within a
  // couple of transitions), and register sites the differential replay
  // settles outright — and pools what remains into lockstep lane groups
  // of LaneWidth. With the differential replay armed, the pooled
  // register continuations are grouped by their *bail step*: every value
  // zapped into one site bails at the same event, so the group shares
  // one reconstructed base state (snapshot + replay, amortized across
  // the lanes) with each lane's taint patched in — the lanes execute
  // only the post-bail tail the scalar classifier would also execute,
  // at group-amortized dispatch cost. Without it (no access log, or
  // --no-converge), register continuations group by snapshot and run
  // from the injection point. Per-task result slots keep the merge
  // deterministic regardless of how tasks were batched.
  //
  // Lane groups execute vm micro-ops, so they pay only against an
  // interpreted engine: continuations that would run native JIT code
  // (a native JitEngine without --cfi-check, which routes it to its vm
  // fallback) stay on the scalar path, where one native entry usually
  // runs a whole continuation.
  bool NativeScalar = JE && JE->native() && !Config.Policy.Cfi;
  bool UseLanes = !Recover && Opts.Lanes && !NativeScalar && !Tasks.empty();
  R.Stats.Lanes = UseLanes;
  if (UseLanes) {
    uint64_t Width = std::max(1u, Opts.LaneWidth);
    R.Stats.LaneWidth = (unsigned)Width;
    R.Stats.SimdLaneWidth = vm::simd::laneWidth();
    vm::LaneEngine LE(Prog.code());
    bool DiffReplay =
        Converge && Conv.Accesses && Conv.Execs && !Conv.Execs->empty();

    struct LaneBlock {
      uint64_t Begin, End;
    };
    uint64_t BlockCap = std::max<uint64_t>(32 * Width, 256);
    std::vector<LaneBlock> Blocks;
    for (uint64_t I = 0; I != Tasks.size();) {
      uint64_t J = I + 1;
      while (J != Tasks.size() && Tasks[J].SnapIdx == Tasks[I].SnapIdx &&
             J - I < BlockCap)
        ++J;
      Blocks.push_back({I, J});
      I = J;
    }

    struct LaneBlockStats {
      uint64_t Groups = 0, LaneTasks = 0, Deviations = 0, Steps = 0;
    };
    std::vector<LaneBlockStats> BlockStats(Blocks.size());

    // Task-granularity progress across block-granularity dispatch.
    std::atomic<uint64_t> TasksDone{0};
    std::mutex ProgressMu;
    auto ReportProgress = [&](uint64_t N) {
      if (!Opts.Progress || !Opts.ProgressInterval)
        return;
      uint64_t Prev = TasksDone.fetch_add(N, std::memory_order_acq_rel);
      uint64_t Done = Prev + N;
      if (Done == Tasks.size() ||
          Done / Opts.ProgressInterval != Prev / Opts.ProgressInterval) {
        std::lock_guard<std::mutex> Lock(ProgressMu);
        Opts.Progress({Done, Tasks.size()});
      }
    };

    // Reusable per-block scratch: the SoA lane bank and the per-lane
    // bookkeeping arrays. A block runs dozens of small groups; reusing one
    // full-width allocation across them removes the dominant fixed cost of
    // short-lived groups (most post-bail lanes detect within a few steps).
    struct LaneScratch {
      vm::LaneState Bank;
      std::vector<MachineState> States;
      std::vector<ZapTag> Zs;
      std::vector<PrefixTracker> Prefixes;
      std::vector<LaneOutcome> Outs;
      explicit LaneScratch(unsigned W)
          : Bank(W), States(W), Zs(W, ZapTag::color(Color::Green)), Outs(W) {
        Prefixes.reserve(W);
      }
      /// Rebinds slot \p L to a fresh copy of \p Base minus the value
      /// memory, which stays shared across the group: the fault model
      /// never corrupts memory (it sits in the protected sphere), so
      /// register and queue injections alike leave it untouched.
      /// Container capacity survives the assignments.
      MachineState &rebind(unsigned L, const MachineState &Base) {
        MachineState &S = States[L];
        S.Faulted = false;
        S.Code = Base.Code;
        S.Regs = Base.Regs;
        S.Mem = ValueMemory();
        S.Queue = Base.Queue;
        S.IR = Base.IR;
        return S;
      }
    };

    // Runs the W lanes \p SC holds — states, zap tags and prefix
    // trackers already set up, every lane at reference step \p At over
    // the shared value memory \p Mem — in lockstep, and maps each lane's
    // outcome through the shared verdict logic into task TaskOf(L)'s slot.
    auto RunGroup = [&](LaneScratch &SC, unsigned W, uint64_t At,
                        const ValueMemory &Mem, LaneBlockStats &BS,
                        auto TaskOf) {
      LaneGroupSpec GSpec;
      GSpec.ExitAddr = ExitAddr;
      GSpec.Budget = RefSteps - At + Config.ExtraSteps;
      GSpec.Policy = Config.Policy;
      GSpec.SharedMem = &Mem;
      GSpec.OnOutput = [&SC](unsigned L, const QueueEntry &Out) {
        SC.Prefixes[L].track(Out);
      };
      LaneOutcome *Outs = SC.Outs.data();
      LE.run(SC.States.data(), W, GSpec, Outs, SC.Bank);

      ++BS.Groups;
      for (unsigned L = 0; L != W; ++L) {
        uint64_t I = TaskOf(L);
        const InjectionTask &T = Tasks[I];
        Verdict V = verdictForStatus(Outs[L].Status, SC.Prefixes[L], RefTrace,
                                     SC.Zs[L], SC.States[L], RefFinal);
        Verdicts[I] = (uint8_t)V;
        if (!isBenign(V))
          Details[I] = describeInjection(T.Site, T.Value,
                                         Snaps[T.SnapIdx].Steps,
                                         abnormalMessage(V));
        ++BS.LaneTasks;
        if (Outs[L].Deviated)
          ++BS.Deviations;
        BS.Steps += Outs[L].GroupSteps;
      }
    };

    // One lane group: resume + inject W same-snapshot tasks and run them
    // from the snapshot.
    auto RunLaneGroup = [&](LaneScratch &SC, const uint64_t *Idx, unsigned W,
                            LaneBlockStats &BS) {
      const UntypedSnapshot &Snap = Snaps[Tasks[Idx[0]].SnapIdx];
      // One base reconstruction serves the whole group: in Replay mode the
      // snapshot prefix is re-simulated once and every lane copies the
      // result (the scalar path replays it per task).
      MachineState ReplayBase;
      size_t TraceLen = Snap.TraceLen;
      const MachineState *BasePtr = &Snap.S;
      if (Opts.Resume != ResumeMode::Snapshot) {
        ReplayBase = *Initial;
        OutputTrace Prefix;
        E.replaySteps(ReplayBase, Snap.Steps, Prefix, Config.Policy);
        TraceLen = Prefix.size();
        BasePtr = &ReplayBase;
      }
      const MachineState &Base = *BasePtr;
      std::vector<PrefixTracker> &Prefixes = SC.Prefixes;
      Prefixes.clear();
      for (unsigned L = 0; L != W; ++L) {
        const InjectionTask &T = Tasks[Idx[L]];
        MachineState &S = SC.rebind(L, Base);
        SC.Zs[L] = ZapTag::color(faultColor(Base, T.Site));
        injectFault(S, T.Site, T.Value);
        Prefixes.push_back(PrefixTracker{RefTrace, TraceLen});
      }
      RunGroup(SC, W, Snap.Steps, Base.Mem, BS,
               [Idx](unsigned L) { return Idx[L]; });
    };

    // A register continuation the differential replay could not settle,
    // waiting to be pooled with its bail-step neighbors.
    struct BailEntry {
      uint64_t Resume;
      uint64_t Task;
      ZapTag Z;
      TaintMap Taint;
    };

    // One post-bail lane group: every entry bails at the same reference
    // step \p Resume, where the caller's rolled reconstruction \p Ref
    // already sits; each lane is that state with its own taint payloads
    // patched in (exactly the repositioned state the scalar bail path
    // builds). The lanes then run only the post-bail tail and map
    // through the shared verdict logic.
    auto RunLaneGroupAtResume = [&](LaneScratch &SC, const BailEntry *Ent,
                                    unsigned W, LaneBlockStats &BS,
                                    const MachineState &Ref,
                                    size_t TraceLenAt) {
      uint64_t Resume = Ent[0].Resume;
      std::vector<PrefixTracker> &Prefixes = SC.Prefixes;
      Prefixes.clear();
      for (unsigned L = 0; L != W; ++L) {
        const InjectionTask &T = Tasks[Ent[L].Task];
        const UntypedSnapshot &Snap = Snaps[T.SnapIdx];
        SC.Zs[L] = Ent[L].Z;
        // Registers, queue and in-flight instruction are per-lane copies
        // of the base; the value memory stays shared (RunGroup passes it
        // as the group's SharedMem) — taints only touch register payloads.
        MachineState &S = SC.rebind(L, Ref);
        patchTaint(S, Ent[L].Taint);
        Prefixes.push_back(PrefixTracker{RefTrace, TraceLenAt});
        // Mirror the scalar bail's skip accounting, including its "short
        // prefixes are re-simulated, not skipped" threshold, so the
        // lockstep-skip statistics fold onto the scalar sweep's.
        if (Resume > Snap.Steps + 64)
          Hits[Ent[L].Task].Skipped = Resume - Snap.Steps;
      }
      RunGroup(SC, W, Resume, Ref.Mem, BS,
               [Ent](unsigned L) { return Ent[L].Task; });
    };

    auto RunBlock = [&](uint64_t B) {
      const LaneBlock &Blk = Blocks[B];
      LaneBlockStats &BS = BlockStats[B];
      LaneScratch SC((unsigned)Width);
      std::vector<uint64_t> Pending;
      std::vector<BailEntry> Bails;
      for (uint64_t I = Blk.Begin; I != Blk.End; ++I) {
        const InjectionTask &T = Tasks[I];
        // pc sites deviate at the very next fetch (lanes cannot share a
        // pc pair with them), so they stay on the scalar classifier.
        if (T.Site.K == FaultSite::Kind::Register && T.Site.R.isPC()) {
          RunOne(I);
          continue;
        }
        // Queue corruptions ride the reference control flow until the
        // paired-store cross-check reaches the damaged entry, so they
        // pool from the snapshot like unreplayed register faults.
        if (T.Site.K != FaultSite::Kind::Register) {
          Pending.push_back(I);
          continue;
        }
        if (DiffReplay) {
          // Same fast path as the scalar classifier, in defer mode: the
          // differential replay either settles the verdict outright or
          // reports where the continuation must resume concretely.
          const UntypedSnapshot &Snap = Snaps[T.SnapIdx];
          ZapTag Z = ZapTag::color(faultColor(Snap.S, T.Site));
          uint64_t AtSteps = Snap.Steps;
          size_t TraceLen = Snap.TraceLen;
          MachineState Untouched; // defer mode never writes it
          DeferredBail DB;
          if (std::optional<Verdict> V = differentialReplay(
                  E, Config.Policy, Conv, T.Site, T.Value, RefFinal, RefSteps,
                  Z, Untouched, AtSteps, TraceLen, &Hits[I], &DB)) {
            Verdicts[I] = (uint8_t)*V;
            if (!isBenign(*V))
              Details[I] = describeInjection(T.Site, T.Value, Snap.Steps,
                                             abnormalMessage(*V));
          } else {
            Bails.push_back({DB.Resume, I, Z, std::move(DB.Taint)});
          }
          continue;
        }
        Pending.push_back(I);
      }
      // Queue-site groups and — without the differential replay —
      // register-site groups share a snapshot (blocks never cross one)
      // and run from the injection.
      for (size_t P = 0; P < Pending.size(); P += Width)
        RunLaneGroup(SC, &Pending[P],
                     (unsigned)std::min<size_t>(Width, Pending.size() - P), BS);
      // With it, pool by bail step: the stable sort keeps task order
      // within a pool, so grouping stays deterministic.
      std::stable_sort(Bails.begin(), Bails.end(),
                       [](const BailEntry &A, const BailEntry &B) {
                         return A.Resume < B.Resume;
                       });
      // The pools resume at increasing reference steps, so one rolled
      // reconstruction serves them all: each pool replays the reference
      // forward from the previous pool's bail step (or from the closest
      // snapshot, whichever is nearer) instead of re-deriving its base
      // from a snapshot — the whole block's reconstruction cost becomes
      // one pass over the bail-step span.
      MachineState Roll;
      uint64_t RollAt = 0;
      size_t RollLen = 0;
      bool HaveRoll = false;
      for (size_t P = 0; P != Bails.size();) {
        size_t Q = P + 1;
        while (Q != Bails.size() && Bails[Q].Resume == Bails[P].Resume &&
               Q - P < Width)
          ++Q;
        uint64_t Resume = Bails[P].Resume;
        const UntypedSnapshot &CB = ConvSnaps[Resume / Conv.Stride];
        const UntypedSnapshot &IS = Snaps[Tasks[Bails[P].Task].SnapIdx];
        const UntypedSnapshot &SB = IS.Steps > CB.Steps ? IS : CB;
        assert(SB.Steps <= Resume && "snapshot stride invariant violated");
        OutputTrace Rep;
        if (HaveRoll && RollAt <= Resume && RollAt >= SB.Steps) {
          E.replaySteps(Roll, Resume - RollAt, Rep, Config.Policy);
          RollLen += Rep.size();
        } else {
          Roll = SB.S;
          E.replaySteps(Roll, Resume - SB.Steps, Rep, Config.Policy);
          RollLen = SB.TraceLen + Rep.size();
          HaveRoll = true;
        }
        RollAt = Resume;
        RunLaneGroupAtResume(SC, &Bails[P], (unsigned)(Q - P), BS, Roll,
                             RollLen);
        P = Q;
      }
      ReportProgress(Blk.End - Blk.Begin);
    };

    dispatchTasks(Threads, Blocks.size(), RunBlock, 0, nullptr);

    for (const LaneBlockStats &BS : BlockStats) {
      R.Stats.LaneGroups += BS.Groups;
      R.Stats.LaneTasks += BS.LaneTasks;
      R.Stats.LaneDeviations += BS.Deviations;
      R.Stats.LaneLockstepSteps += BS.Steps;
    }
  } else {
    dispatchTasks(Threads, Tasks.size(), RunOne, Opts.ProgressInterval,
                  Opts.Progress);
  }

  // Deterministic merge: counters sum (order-independent), violations keep
  // enumeration order, the window maximum commutes.
  for (size_t I = 0; I != Tasks.size(); ++I) {
    R.Table[(Verdict)Verdicts[I]] += 1;
    if (!Details[I].empty())
      AddViolation(std::move(Details[I]));
    if (Recover)
      R.Recovery.merge(TaskStats[I]);
    if (Converge) {
      if (Hits[I].Hit) {
        ++R.Stats.EarlyExits;
        R.Stats.WindowSum += Hits[I].Window;
        R.Stats.MaxWindow = std::max(R.Stats.MaxWindow, Hits[I].Window);
        R.Stats.StepsSaved += Hits[I].Saved;
      }
      if (Hits[I].Skipped) {
        ++R.Stats.LockstepSkips;
        R.Stats.LockstepSteps += Hits[I].Skipped;
      }
    }
  }
  if (JE)
    R.Stats.JitSideExits = JE->sideExits() - JitExitsBefore;
}

} // namespace

CampaignResult talft::runFaultToleranceCampaign(TypeContext &TC,
                                                const CheckedProgram &CP,
                                                const TheoremConfig &ConfigIn,
                                                const CampaignOptions &Opts) {
  CampaignResult R;
  // The CFI table (when requested) rides on the step policy, so every
  // engine — reference interpreter, vm, lanes — validates commits through
  // the same hook. Record-only: verdicts cannot depend on it.
  std::unique_ptr<CfiTable> Cfi = buildCfiTable(*CP.Prog, Opts);
  TheoremConfig Config = ConfigIn;
  if (Cfi)
    Config.Policy.Cfi = Cfi.get();
  auto FinishCfi = [&] {
    if (!Cfi)
      return;
    R.Stats.CfiChecked = true;
    R.Stats.CfiCommits = Cfi->commits();
    R.Stats.CfiViolations = Cfi->violations();
    R.CfiFirstViolation = Cfi->firstViolation();
  };
  auto AddViolation = [&](std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  };

  // Phase 1 (serial): the reference execution, snapshotting every
  // injection step. Typed campaigns keep full TrackedRun snapshots (state
  // plus closing substitution); classification-only campaigns keep just
  // the machine state and the trace length.
  Clock::time_point RefStart = Clock::now();
  bool Typed = Config.TypeCheckFaultyStates;
  if (Typed && Config.Recovery.Enabled) {
    AddViolation("recovery cannot be combined with TypeCheckFaultyStates: "
                 "rollback replays run on the raw semantics");
    FinishCfi();
    return R;
  }
  uint64_t Stride = std::max<uint64_t>(1, Config.InjectionStride);

  TrackedRun Run(TC, CP, Config.Policy);
  if (Error E = Run.start()) {
    AddViolation("cannot start: " + E.message());
    FinishCfi();
    return R;
  }

  std::vector<TrackedRun::Snapshot> TypedSnaps;
  std::vector<UntypedSnapshot> Snaps;
  auto TakeSnapshot = [&] {
    if (Typed)
      TypedSnaps.push_back(Run.snapshot());
    else
      Snaps.push_back({Run.state(), Run.steps(), Run.trace().size()});
  };

  // The convergence recorder: the register access log and instruction
  // records the differential replay walks, and the dense snapshots its
  // bails resume from. Typed and recovery campaigns never replay, so they
  // skip the recording.
  ConvergenceRecorder CR;
  CR.Enabled = !Typed && !Config.Recovery.Enabled && Opts.Converge;

  // Step count of the latest point where a control instruction was
  // in-flight (about to execute). A snapshot taken at or before that
  // count still has a control instruction ahead of it in the reference
  // run — the input to the d-register discharge rule.
  int64_t LastCtrl = -1;
  TakeSnapshot(); // Step 0 is always an injection point.
  CR.start(Run.state());
  while (!Run.atExitBlock()) {
    if (Run.steps() >= Config.MaxSteps) {
      AddViolation("reference run exceeded MaxSteps");
      FinishCfi();
      return R;
    }
    if (Run.state().IR && Run.state().IR->isControlFlow())
      LastCtrl = (int64_t)Run.steps();
    CR.beforeStep(Run.state(), Run.steps() + 1);
    StepResult SR = Run.stepOnce();
    if (SR.Status != StepStatus::Ok) {
      AddViolation(formatv("reference run failed at step %llu (%s)",
                           (unsigned long long)Run.steps(),
                           SR.Status == StepStatus::Stuck ? "stuck"
                                                          : "false positive"));
      FinishCfi();
      return R;
    }
    CR.afterStep(Run.state(), Run.steps(), Run.trace().size());
    if (Run.steps() % Stride == 0)
      TakeSnapshot();
  }
  TrackedRun::Snapshot RefFinal = Run.snapshot();
  R.ReferenceSteps = RefFinal.Steps;
  R.ReferenceTrace = RefFinal.Trace;

  std::optional<analysis::ZapCoverage> Oracle =
      buildPruneOracle(*CP.Prog, Opts);
  // Control-register discharge needs the oracle's guarantee that specials
  // never appear as instruction operands, the raw semantics (typed
  // campaigns re-check states, recovery rewrites continuations), and
  // enough extra steps for the corrupted run to reach its next control.
  bool SpecialDischarge = Oracle && Oracle->specialSiteDischargeSound() &&
                          !Typed && !Config.Recovery.Enabled &&
                          Config.ExtraSteps >= 2;
  std::vector<uint8_t> CtrlAhead;
  if (SpecialDischarge) {
    CtrlAhead.resize(Snaps.size());
    for (size_t I = 0; I != Snaps.size(); ++I)
      CtrlAhead[I] = LastCtrl >= 0 && (uint64_t)LastCtrl >= Snaps[I].Steps;
  }
  uint64_t TotalTasks = 0;
  std::vector<InjectionTask> Tasks = enumerateTasks(
      *CP.Prog, Config, Typed ? TypedSnaps.size() : Snaps.size(),
      [&](size_t SI) -> const MachineState & {
        return Typed ? TypedSnaps[SI].S : Snaps[SI].S;
      },
      Oracle ? &*Oracle : nullptr, R.Table,
      SpecialDischarge ? &CtrlAhead : nullptr, Opts.ShardIndex,
      std::max(1u, Opts.ShardCount), TotalTasks);
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  if (Expected<MachineState> Init = CP.Prog->initialState())
    R.ProgramHash =
        programContentHash(CP.Prog->code(), CP.Prog->entryAddress(),
                           CP.Prog->exitAddress(), *Init);
  if (!applyShardSlice(Opts, Config, TotalTasks, R)) {
    FinishCfi();
    return R;
  }
  R.Stats.Tasks = Tasks.size();
  R.Stats.Pruned = Oracle.has_value();
  R.Stats.PrunedTasks = R.Table[Verdict::StaticallyMasked] +
                        R.Table[Verdict::StaticallyDetected];
  R.Stats.PrunedDetected = R.Table[Verdict::StaticallyDetected];

  // Phase 3: classify every continuation. Typed campaigns run serially
  // through the shared TypeContext; classification-only campaigns fan out.
  Clock::time_point InjectStart = Clock::now();
  if (Typed) {
    // Typed campaigns re-check ⊢Z S through TrackedRun, which owns the
    // typing bookkeeping; they always replay on the reference semantics.
    R.Stats.Engine = referenceEngine().name();
    R.Stats.ThreadsUsed = 1;
    uint64_t Done = 0;
    for (const InjectionTask &T : Tasks) {
      const TrackedRun::Snapshot *At = &TypedSnaps[T.SnapIdx];
      TrackedRun::Snapshot Replayed;
      if (Opts.Resume == ResumeMode::Replay) {
        // Rebuild the snapshot by re-executing the reference prefix.
        TrackedRun Fresh(TC, CP, Config.Policy);
        if (Error E = Fresh.start()) {
          AddViolation("cannot start: " + E.message());
          FinishCfi();
          return R;
        }
        while (Fresh.steps() < TypedSnaps[T.SnapIdx].Steps)
          Fresh.stepOnce();
        Replayed = Fresh.snapshot();
        At = &Replayed;
      }
      TypedOutcome O = runTypedInjection(Config, Run, *At, T.Site, T.Value,
                                         RefFinal, RefFinal.Trace);
      R.Table[O.V] += 1;
      R.StatesTypechecked += O.Typechecked;
      if (!isBenign(O.V))
        AddViolation(std::move(O.Detail));
      ++Done;
      if (Opts.Progress && Opts.ProgressInterval &&
          (Done % Opts.ProgressInterval == 0 || Done == Tasks.size()))
        Opts.Progress({Done, Tasks.size()});
    }
  } else {
    classifyUntypedTasks(*CP.Prog, Config, Opts, Tasks, Snaps, RefFinal.Trace,
                         RefFinal.S, RefFinal.Steps, CR.Snaps,
                         CR.Stride, &CR.Accesses, &CR.Execs, R);
  }

  if (Opts.ShardRetiredHook)
    Opts.ShardRetiredHook(R.Stats.ShardIndex, R.Stats.ShardCount);
  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond = (double)Tasks.size() / R.Stats.WallSeconds;
  FinishCfi();
  return R;
}

CampaignResult talft::runSingleFaultCampaign(const Program &Prog,
                                             const TheoremConfig &ConfigIn,
                                             const CampaignOptions &Opts) {
  CampaignResult R;
  std::unique_ptr<CfiTable> Cfi = buildCfiTable(Prog, Opts);
  TheoremConfig Config = ConfigIn;
  if (Cfi)
    Config.Policy.Cfi = Cfi.get();
  auto FinishCfi = [&] {
    if (!Cfi)
      return;
    R.Stats.CfiChecked = true;
    R.Stats.CfiCommits = Cfi->commits();
    R.Stats.CfiViolations = Cfi->violations();
    R.CfiFirstViolation = Cfi->firstViolation();
  };
  auto AddViolation = [&](std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  };
  if (Config.TypeCheckFaultyStates) {
    AddViolation("the raw-semantics sweep cannot re-typecheck faulty states; "
                 "use runFaultToleranceCampaign on a checked program");
    FinishCfi();
    return R;
  }

  // Phase 1 (serial): the reference execution on the raw semantics,
  // snapshotting every injection step — the same loop shape as the typed
  // campaign's, so the violation wording matches.
  Clock::time_point RefStart = Clock::now();
  uint64_t Stride = std::max<uint64_t>(1, Config.InjectionStride);
  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();

  Expected<MachineState> S0 = Prog.initialState();
  if (Error Err = S0.takeError()) {
    AddViolation("cannot start: " + Err.message());
    FinishCfi();
    return R;
  }
  MachineState S = *S0;
  Addr ExitAddr = Prog.exitAddress();
  R.ProgramHash =
      programContentHash(Prog.code(), Prog.entryAddress(), ExitAddr, S);
  OutputTrace Trace;
  uint64_t Steps = 0;
  ConvergenceRecorder CR;
  CR.Enabled = !Config.Recovery.Enabled && Opts.Converge;
  std::vector<UntypedSnapshot> Snaps;
  int64_t LastCtrl = -1;
  Snaps.push_back({S, 0, 0}); // Step 0 is always an injection point.
  CR.start(S);
  while (!atExit(S, ExitAddr)) {
    if (Steps >= Config.MaxSteps) {
      AddViolation("reference run exceeded MaxSteps");
      FinishCfi();
      return R;
    }
    if (S.IR && S.IR->isControlFlow())
      LastCtrl = (int64_t)Steps;
    CR.beforeStep(S, Steps + 1);
    StepResult SR = E.step(S, Config.Policy);
    ++Steps;
    if (SR.Output)
      Trace.push_back(*SR.Output);
    if (SR.Status != StepStatus::Ok) {
      AddViolation(formatv("reference run failed at step %llu (%s)",
                           (unsigned long long)Steps,
                           SR.Status == StepStatus::Stuck ? "stuck"
                                                          : "false positive"));
      FinishCfi();
      return R;
    }
    CR.afterStep(S, Steps, Trace.size());
    if (Steps % Stride == 0)
      Snaps.push_back({S, Steps, Trace.size()});
  }
  R.ReferenceSteps = Steps;
  R.ReferenceTrace = Trace;

  std::optional<analysis::ZapCoverage> Oracle = buildPruneOracle(Prog, Opts);
  bool SpecialDischarge = Oracle && Oracle->specialSiteDischargeSound() &&
                          !Config.Recovery.Enabled && Config.ExtraSteps >= 2;
  std::vector<uint8_t> CtrlAhead;
  if (SpecialDischarge) {
    CtrlAhead.resize(Snaps.size());
    for (size_t I = 0; I != Snaps.size(); ++I)
      CtrlAhead[I] = LastCtrl >= 0 && (uint64_t)LastCtrl >= Snaps[I].Steps;
  }
  uint64_t TotalTasks = 0;
  std::vector<InjectionTask> Tasks =
      enumerateTasks(Prog, Config, Snaps.size(),
                     [&](size_t SI) -> const MachineState & {
                       return Snaps[SI].S;
                     },
                     Oracle ? &*Oracle : nullptr, R.Table,
                     SpecialDischarge ? &CtrlAhead : nullptr, Opts.ShardIndex,
                     std::max(1u, Opts.ShardCount), TotalTasks);
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  if (!applyShardSlice(Opts, Config, TotalTasks, R)) {
    FinishCfi();
    return R;
  }
  R.Stats.Tasks = Tasks.size();
  R.Stats.Pruned = Oracle.has_value();
  R.Stats.PrunedTasks = R.Table[Verdict::StaticallyMasked] +
                        R.Table[Verdict::StaticallyDetected];
  R.Stats.PrunedDetected = R.Table[Verdict::StaticallyDetected];

  Clock::time_point InjectStart = Clock::now();
  classifyUntypedTasks(Prog, Config, Opts, Tasks, Snaps, Trace, S, Steps,
                       CR.Snaps, CR.Stride, &CR.Accesses,
                       &CR.Execs, R);
  if (Opts.ShardRetiredHook)
    Opts.ShardRetiredHook(R.Stats.ShardIndex, R.Stats.ShardCount);
  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond = (double)Tasks.size() / R.Stats.WallSeconds;
  FinishCfi();
  return R;
}

namespace {

/// Classifies one explicit injection plan on the raw semantics via \p E.
Verdict classifyPlan(const ExecEngine &E, const Program &Prog,
                     const StepPolicy &Policy, uint64_t ExtraSteps,
                     const OutputTrace &RefTrace, const MachineState &RefFinal,
                     uint64_t RefSteps, MachineState S,
                     const InjectionPlan &Plan) {
  PrefixTracker Prefix{RefTrace, 0};

  uint64_t Now = 0;
  std::optional<Color> ZapColor;
  bool MixedColors = false;
  for (const InjectionPoint &P : Plan) {
    assert(P.Step >= Now && "injection plan must be step-ordered");
    // Fault and stuck transitions never emit output, so match-tracking the
    // chunk after the replay is equivalent to tracking each step inline.
    OutputTrace Chunk;
    ReplayResult RR = E.replaySteps(S, P.Step - Now, Chunk, Policy);
    Now += RR.Taken;
    for (const QueueEntry &Out : Chunk)
      Prefix.track(Out);
    if (RR.Last == StepStatus::Stuck)
      return Verdict::Stuck;
    if (RR.Last == StepStatus::Fault)
      return Prefix.Diverged ? Verdict::DetectedBadPrefix : Verdict::Detected;
    Color C = faultColor(S, P.Site);
    if (ZapColor && *ZapColor != C)
      MixedColors = true;
    ZapColor = C;
    injectFault(S, P.Site, P.Value);
  }

  uint64_t Budget = (RefSteps > Now ? RefSteps - Now : 0) + ExtraSteps;
  RunStatus St = E.runContinuation(
      S, Prog.exitAddress(), Budget, Policy,
      [&Prefix](const QueueEntry &Out) { Prefix.track(Out); });
  switch (St) {
  case RunStatus::OutOfSteps:
    return Verdict::BudgetExhausted;
  case RunStatus::Stuck:
    return Verdict::Stuck;
  case RunStatus::FaultDetected:
    return Prefix.Diverged ? Verdict::DetectedBadPrefix : Verdict::Detected;
  case RunStatus::Halted:
    break;
  }

  if (Prefix.Diverged || Prefix.MatchPos != RefTrace.size())
    return Verdict::SilentCorruption;
  // Similarity is indexed by a single zap color; a cross-color plan has no
  // such index, so it classifies on the trace alone.
  if (!MixedColors && ZapColor &&
      !similarStates(ZapTag::color(*ZapColor), S, RefFinal))
    return Verdict::DissimilarState;
  return Verdict::Masked;
}

std::string describePlan(const InjectionPlan &Plan, const char *What) {
  std::string S = "plan [";
  for (size_t I = 0; I != Plan.size(); ++I) {
    if (I)
      S += "; ";
    S += formatv("%s := %lld at step %llu", Plan[I].Site.str().c_str(),
                 (long long)Plan[I].Value, (unsigned long long)Plan[I].Step);
  }
  S += "]: ";
  S += What;
  return S;
}

} // namespace

CampaignResult talft::runInjectionPlans(const PlanCampaign &Spec,
                                        const CampaignOptions &Opts) {
  CampaignResult R;
  assert(Spec.Prog && "plan campaign needs a program");

  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  R.Stats.Engine = E.name();
  const auto *JE = dynamic_cast<const vm::JitEngine *>(&E);
  uint64_t JitExitsBefore = JE ? JE->sideExits() : 0;
  if (JE) {
    R.Stats.JitNative = JE->native();
    R.Stats.JitBlocksCompiled = JE->blocksCompiled();
    R.Stats.JitCodeBytes = JE->codeBytes();
  }

  Clock::time_point RefStart = Clock::now();
  Expected<MachineState> S0 = Spec.Prog->initialState();
  if (!S0) {
    R.Ok = false;
    R.Violations.push_back("cannot build initial state: " + S0.message());
    return R;
  }
  MachineState Final = *S0;
  R.ProgramHash =
      programContentHash(Spec.Prog->code(), Spec.Prog->entryAddress(),
                         Spec.Prog->exitAddress(), *S0);
  RunResult RefRun = E.run(Final, Spec.Prog->exitAddress(),
                           Spec.MaxReferenceSteps, Spec.Policy);
  if (RefRun.Status != RunStatus::Halted) {
    R.Ok = false;
    R.Violations.push_back(formatv("reference run did not halt (%s after %llu steps)",
                                   runStatusName(RefRun.Status),
                                   (unsigned long long)RefRun.Steps));
    return R;
  }
  R.ReferenceSteps = RefRun.Steps;
  R.ReferenceTrace = RefRun.Trace;
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  R.Stats.Tasks = Spec.Plans.size();
  R.Stats.TotalTasks = Spec.Plans.size();

  Clock::time_point InjectStart = Clock::now();
  unsigned Threads = Opts.Threads ? Opts.Threads
                                  : std::max(1u, std::thread::hardware_concurrency());
  R.Stats.ThreadsUsed = (unsigned)std::min<uint64_t>(
      Threads, std::max<size_t>(1, Spec.Plans.size()));

  std::vector<uint8_t> Verdicts(Spec.Plans.size(), 0);
  auto RunOne = [&](uint64_t I) {
    Verdicts[I] = (uint8_t)classifyPlan(E, *Spec.Prog, Spec.Policy,
                                        Spec.ExtraSteps, RefRun.Trace, Final,
                                        RefRun.Steps, *S0, Spec.Plans[I]);
  };
  dispatchTasks(Threads, Spec.Plans.size(), RunOne, Opts.ProgressInterval,
                Opts.Progress);

  for (size_t I = 0; I != Spec.Plans.size(); ++I) {
    Verdict V = (Verdict)Verdicts[I];
    R.Table[V] += 1;
    // Multi-fault plans legitimately produce SilentCorruption (that is what
    // the double-fault ablation demonstrates); only a wedged machine is a
    // campaign-level violation here.
    if (V == Verdict::Stuck || V == Verdict::BudgetExhausted) {
      R.Ok = false;
      if (R.Violations.size() < 16)
        R.Violations.push_back(describePlan(Spec.Plans[I], abnormalMessage(V)));
    }
  }

  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond =
        (double)Spec.Plans.size() / R.Stats.WallSeconds;
  if (JE)
    R.Stats.JitSideExits = JE->sideExits() - JitExitsBefore;
  return R;
}

void talft::foldShardResult(CampaignResult &Acc, const CampaignResult &Shard,
                            size_t MaxViolations) {
  Acc.Ok = Acc.Ok && Shard.Ok;
  Acc.Table.merge(Shard.Table);
  Acc.StatesTypechecked += Shard.StatesTypechecked;
  // Each shard keeps a prefix of its slice's violations (the cap applies
  // per shard), so appending in shard-index order up to the same cap
  // reproduces the unsharded list exactly.
  for (const std::string &V : Shard.Violations)
    if (Acc.Violations.size() < MaxViolations)
      Acc.Violations.push_back(V);
  Acc.Recovery.merge(Shard.Recovery);
  if (!Acc.ProgramHash)
    Acc.ProgramHash = Shard.ProgramHash;
  if (!Acc.ReferenceSteps) {
    Acc.ReferenceSteps = Shard.ReferenceSteps;
    Acc.ReferenceTrace = Shard.ReferenceTrace;
  }

  CampaignStats &A = Acc.Stats;
  const CampaignStats &B = Shard.Stats;
  A.WallSeconds += B.WallSeconds;
  A.ReferenceSeconds += B.ReferenceSeconds;
  A.Tasks += B.Tasks;
  A.ThreadsUsed = std::max(A.ThreadsUsed, B.ThreadsUsed);
  A.Pruned = A.Pruned || B.Pruned;
  A.PrunedTasks += B.PrunedTasks;
  A.PrunedDetected += B.PrunedDetected;
  A.CfiChecked = A.CfiChecked || B.CfiChecked;
  A.CfiCommits += B.CfiCommits;
  A.CfiViolations += B.CfiViolations;
  if (Acc.CfiFirstViolation.empty())
    Acc.CfiFirstViolation = Shard.CfiFirstViolation;
  A.Converge = A.Converge || B.Converge;
  A.EarlyExits += B.EarlyExits;
  A.WindowSum += B.WindowSum;
  A.MaxWindow = std::max(A.MaxWindow, B.MaxWindow);
  A.StepsSaved += B.StepsSaved;
  A.LockstepSkips += B.LockstepSkips;
  A.LockstepSteps += B.LockstepSteps;
  A.Lanes = A.Lanes || B.Lanes;
  A.LaneWidth = std::max(A.LaneWidth, B.LaneWidth);
  A.LaneGroups += B.LaneGroups;
  A.LaneTasks += B.LaneTasks;
  A.LaneDeviations += B.LaneDeviations;
  A.LaneLockstepSteps += B.LaneLockstepSteps;
  // Compilation stats are per-program constants (identical in every
  // shard); side exits are an activity sum.
  A.JitNative = A.JitNative || B.JitNative;
  A.JitBlocksCompiled = std::max(A.JitBlocksCompiled, B.JitBlocksCompiled);
  A.JitCodeBytes = std::max(A.JitCodeBytes, B.JitCodeBytes);
  A.JitSideExits += B.JitSideExits;
  A.SimdLaneWidth = std::max(A.SimdLaneWidth, B.SimdLaneWidth);
  A.ShardCount = std::max(A.ShardCount, B.ShardCount);
  A.ShardIndex = std::min(A.ShardIndex, B.ShardIndex);
  A.ShardFirstTask = std::min(A.ShardFirstTask, B.ShardFirstTask);
  A.TotalTasks = std::max(A.TotalTasks, B.TotalTasks);
  A.ShardsFolded = (A.ShardsFolded ? A.ShardsFolded : 1) +
                   (B.ShardsFolded ? B.ShardsFolded : 1);
  A.TriplesPerSecond = A.WallSeconds > 0 ? (double)A.Tasks / A.WallSeconds : 0;
}

namespace {

void appendJsonEscaped(std::string &Out, const std::string &In) {
  Out += '"';
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if ((unsigned char)C < 0x20)
        Out += formatv("\\u%04x", (unsigned)(unsigned char)C);
      else
        Out += C;
    }
  }
  Out += '"';
}

} // namespace

std::string talft::campaignToJson(const CampaignResult &R, unsigned Indent) {
  std::string P(Indent, ' ');
  std::string S;
  S += P + "{\n";
  S += P + formatv("  \"ok\": %s,\n", R.Ok ? "true" : "false");
  S += P + formatv("  \"reference_steps\": %llu,\n",
                   (unsigned long long)R.ReferenceSteps);
  S += P + formatv("  \"program_hash\": \"%s\",\n",
                   programHashString(R.ProgramHash).c_str());
  S += P + formatv("  \"injections\": %llu,\n",
                   (unsigned long long)R.Table.total());
  S += P + "  \"verdicts\": {";
  for (size_t I = 0; I != NumVerdicts; ++I) {
    if (I)
      S += ", ";
    S += formatv("\"%s\": %llu", verdictJsonKey((Verdict)I),
                 (unsigned long long)R.Table.Counts[I]);
  }
  S += "},\n";
  S += P + formatv("  \"states_typechecked\": %llu,\n",
                   (unsigned long long)R.StatesTypechecked);
  S += P + formatv("  \"recovery\": {\"rollbacks\": %llu, "
                   "\"checkpoints\": %llu, \"replayed_outputs\": %llu},\n",
                   (unsigned long long)R.Recovery.Rollbacks,
                   (unsigned long long)R.Recovery.Checkpoints,
                   (unsigned long long)R.Recovery.ReplayedOutputs);
  S += P + formatv("  \"convergence\": {\"enabled\": %s, \"early_exits\": %llu, "
                   "\"mean_window\": %.2f, \"window_sum\": %llu, "
                   "\"max_window\": %llu, "
                   "\"steps_saved\": %llu, \"lockstep_skips\": %llu, "
                   "\"lockstep_steps\": %llu},\n",
                   R.Stats.Converge ? "true" : "false",
                   (unsigned long long)R.Stats.EarlyExits,
                   R.Stats.EarlyExits
                       ? (double)R.Stats.WindowSum / (double)R.Stats.EarlyExits
                       : 0.0,
                   (unsigned long long)R.Stats.WindowSum,
                   (unsigned long long)R.Stats.MaxWindow,
                   (unsigned long long)R.Stats.StepsSaved,
                   (unsigned long long)R.Stats.LockstepSkips,
                   (unsigned long long)R.Stats.LockstepSteps);
  S += P + formatv("  \"lanes\": {\"enabled\": %s, \"width\": %u, "
                   "\"groups\": %llu, \"lane_tasks\": %llu, "
                   "\"deviations\": %llu, \"lockstep_steps\": %llu},\n",
                   R.Stats.Lanes ? "true" : "false", R.Stats.LaneWidth,
                   (unsigned long long)R.Stats.LaneGroups,
                   (unsigned long long)R.Stats.LaneTasks,
                   (unsigned long long)R.Stats.LaneDeviations,
                   (unsigned long long)R.Stats.LaneLockstepSteps);
  S += P + formatv("  \"jit\": {\"native\": %s, \"blocks_compiled\": %llu, "
                   "\"code_bytes\": %llu, \"side_exits\": %llu, "
                   "\"simd_lane_width\": %u},\n",
                   R.Stats.JitNative ? "true" : "false",
                   (unsigned long long)R.Stats.JitBlocksCompiled,
                   (unsigned long long)R.Stats.JitCodeBytes,
                   (unsigned long long)R.Stats.JitSideExits,
                   R.Stats.SimdLaneWidth);
  S += P + formatv("  \"shard\": {\"count\": %u, \"index\": %u, "
                   "\"first_task\": %llu, \"tasks\": %llu, "
                   "\"total_tasks\": %llu, \"folded\": %u},\n",
                   R.Stats.ShardCount, R.Stats.ShardIndex,
                   (unsigned long long)R.Stats.ShardFirstTask,
                   (unsigned long long)R.Stats.Tasks,
                   (unsigned long long)R.Stats.TotalTasks,
                   R.Stats.ShardsFolded);
  S += P + "  \"violations\": [";
  for (size_t I = 0; I != R.Violations.size(); ++I) {
    S += I ? ", " : "";
    appendJsonEscaped(S, R.Violations[I]);
  }
  S += "],\n";
  S += P + formatv("  \"cfi\": {\"checked\": %s, \"commits\": %llu, "
                   "\"violations\": %llu, \"first_violation\": ",
                   R.Stats.CfiChecked ? "true" : "false",
                   (unsigned long long)R.Stats.CfiCommits,
                   (unsigned long long)R.Stats.CfiViolations);
  appendJsonEscaped(S, R.CfiFirstViolation);
  S += "},\n";
  S += P + formatv("  \"stats\": {\"engine\": \"%s\", \"threads\": %u, "
                   "\"tasks\": %llu, "
                   "\"reference_seconds\": %.6f, \"wall_seconds\": %.6f, "
                   "\"triples_per_second\": %.1f, "
                   "\"pruned\": %s, \"pruned_tasks\": %llu, "
                   "\"pruned_detected\": %llu}\n",
                   R.Stats.Engine, R.Stats.ThreadsUsed,
                   (unsigned long long)R.Stats.Tasks,
                   R.Stats.ReferenceSeconds, R.Stats.WallSeconds,
                   R.Stats.TriplesPerSecond, R.Stats.Pruned ? "true" : "false",
                   (unsigned long long)R.Stats.PrunedTasks,
                   (unsigned long long)R.Stats.PrunedDetected);
  S += P + "}";
  return S;
}
