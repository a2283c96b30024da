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
#include <bit>
#include <bitset>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
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

/// Runs \p RunOne over every index in [0, Count) across at most \p Threads
/// workers (0 = hardware concurrency) and returns how many ran. Workers
/// pull fixed-size chunks off an atomic cursor; because each index writes
/// only its own slots, the schedule cannot affect results. \p RunOne
/// returns how many of the \p TotalTasks tasks the index completed, and
/// Opts.Progress fires after roughly every Opts.ProgressInterval of them.
unsigned dispatchTasks(unsigned Threads, uint64_t Count, uint64_t TotalTasks,
                       const std::function<uint64_t(uint64_t)> &RunOne,
                       const CampaignOptions &Opts) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = (unsigned)std::min<uint64_t>(Threads, std::max<uint64_t>(1, Count));
  if (Count == 0)
    return Threads;
  uint64_t Chunk =
      std::max<uint64_t>(1, std::min<uint64_t>(64, Count / (uint64_t(Threads) * 8)));

  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Completed{0};
  std::mutex ProgressMu;
  uint64_t Interval = Opts.Progress ? Opts.ProgressInterval : 0;
  auto Work = [&] {
    while (true) {
      uint64_t Begin = Next.fetch_add(Chunk, std::memory_order_relaxed);
      if (Begin >= Count)
        return;
      uint64_t End = std::min(Count, Begin + Chunk);
      uint64_t N = 0;
      for (uint64_t I = Begin; I != End; ++I)
        N += RunOne(I);
      uint64_t Prev = Completed.fetch_add(N, std::memory_order_acq_rel);
      uint64_t Done = Prev + N;
      if (Interval &&
          (Done == TotalTasks || Done / Interval != Prev / Interval)) {
        std::lock_guard<std::mutex> Lock(ProgressMu);
        Opts.Progress({Done, TotalTasks});
      }
    }
  };

  if (Threads == 1) {
    Work();
    return Threads;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  for (unsigned T = 0; T + 1 < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &Th : Pool)
    Th.join();
  return Threads;
}

/// Registers the program mentions anywhere, plus the specials, as a mask
/// over dense register indices.
std::bitset<Reg::NumRegs> mentionedRegisters(const Program &Prog) {
  std::bitset<Reg::NumRegs> Used;
  for (const Block &B : Prog.blocks()) {
    for (const ProgInst &PI : B.Insts) {
      const Inst &I = PI.I;
      Used.set(I.Rd.denseIndex());
      Used.set(I.Rs.denseIndex());
      if (!I.HasImm)
        Used.set(I.Rt.denseIndex());
    }
  }
  Used.set(Reg::dest().denseIndex());
  Used.set(Reg::pcG().denseIndex());
  Used.set(Reg::pcB().denseIndex());
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

/// Phase-1 record of one executed reference instruction with its read
/// operand values, its result and its access links, the raw material of
/// the sparse differential replay. Fetch and execute transitions strictly
/// alternate (step() fetches into the empty IR, executing resets it), so
/// execute transitions are exactly the even step indices and the record
/// of execute step k lives at index k/2 - 1.
///
/// A record *accesses* exactly the registers its transition reads or
/// writes: an ALU op Rd, Rs and Rt (Rt only without an immediate), mov
/// Rd, ld and st Rd and Rs, bz Rd, Rs and d, jmp Rd and d. Unused operand
/// slots hold Reg(), which is r0, so naming every slot would make r0 —
/// the green copy of a Wile kernel's first variable — an access of almost
/// every record. Fetch transitions read only the pcs, which never carry
/// taint (instruction operands are general registers, and a pc site never
/// enters the replay). A missing access would be unsound, so the access
/// sets are what the fold oracles pin down: the ConvergenceFold tests
/// (tests/convergence_test.cpp) at injection strides 1 and 2 and on every
/// Figure 10 kernel, together with the replay's event-set counters pinned
/// there.
struct ExecRec {
  static constexpr uint32_t None = ~uint32_t{0};
  static constexpr uint8_t DenseD = NumGeneralRegs;
  static_assert(Reg::NumRegs <= 256, "dense register indices fit a byte");
  /// The link slot a st record leaves free, holding the stG partner.
  static constexpr unsigned PartnerSlot = 2;

  /// The instruction's opcode, color and the dense indices of its operand
  /// registers; an immediate operand is SrcRt. (Not the whole Inst: the
  /// recording holds one record per executed instruction, so every byte
  /// here counts on long reference runs.)
  Opcode Op = Opcode::Mov;
  bool HasImm = false;
  uint8_t Rd = 0, Rs = 0, Rt = 0;
  Color C = Color::Green;
  /// bz only: col(Rd) == col(d) before the step, so a green branch the
  /// faulty run takes differently leaves d's color the reference's.
  bool TargetColorIsD = false;
  /// Per access slot (Rd, Rs, Rt, d), the index of the next record that
  /// accesses the same register, or None. Set by ConvergenceRecorder::link.
  /// A stG record's PartnerSlot holds its partner instead: the stB record
  /// that pops its queue entry, provided no ld or control record lies
  /// strictly between them (None otherwise).
  std::array<uint32_t, 4> Next = {None, None, None, None};
  /// Pre-step val(Rs) — the ALU first operand, the ld address, the st
  /// value, or the bz test register (rz == Rs).
  int64_t SrcRs = 0;
  /// Pre-step val(Rt), or the immediate payload under HasImm.
  int64_t SrcRt = 0;
  /// Post-step val(Rd): the written result for alu/mov/ld, the st address
  /// and the bz/jmp target (those never write Rd).
  int64_t Result = 0;

  uint32_t partner() const { return Next[PartnerSlot]; }

  /// Calls \p F(Slot, DenseReg) for every register the record accesses.
  template <typename Fn> void forEachAccess(Fn F) const {
    F(0, Rd);
    switch (Op) {
    case Opcode::Mov:
      return;
    case Opcode::Jmp:
      F(3, DenseD);
      return;
    case Opcode::Bz:
      F(1, Rs);
      F(3, DenseD);
      return;
    case Opcode::Ld:
    case Opcode::St:
      F(1, Rs);
      return;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
      F(1, Rs);
      if (!HasImm)
        F(2, Rt);
      return;
    }
  }
};
static_assert(sizeof(ExecRec) == 48,
              "one record per executed instruction: keep it at 48 bytes");

/// The faulty payloads of a bailed differential replay: (dense register
/// index, value) pairs for exactly the registers whose payload differs
/// from the reference. Taint never touches color tags (injectFault
/// preserves them and instruction results take their colors from operand
/// colors, which are payload-independent), so "reference state with these
/// payloads patched in" describes the faulty state completely. The set
/// stays tiny (usually one to three registers).
struct TaintMap {
  struct Entry {
    uint32_t R;
    int64_t Val;
  };
  std::vector<Entry> V;

  bool empty() const { return V.empty(); }
};

/// Writes the taint payloads into \p S, keeping every color tag.
void patchTaint(MachineState &S, const TaintMap &T) {
  for (const TaintMap::Entry &E : T.V) {
    Reg R = Reg::fromDenseIndex(E.R);
    Value V = S.Regs.get(R);
    V.N = E.Val;
    S.Regs.set(R, V);
  }
}

/// The differential replay's counters over some set of tasks; sums, so
/// blocks merge them in any order (CampaignStats has the meanings).
struct ConvergenceSums {
  uint64_t EarlyExits = 0, WindowSum = 0, MaxWindow = 0, StepsSaved = 0;
  uint64_t LockstepSkips = 0, LockstepSteps = 0;

  /// A task whose taint drained \p Window steps after the injection,
  /// skipping \p Saved reference-tail steps.
  void earlyExit(uint64_t Window, uint64_t Saved) {
    ++EarlyExits;
    WindowSum += Window;
    MaxWindow = std::max(MaxWindow, Window);
    StepsSaved += Saved;
  }
  /// A task whose replay discharged \p Steps lockstep steps unsimulated.
  void skip(uint64_t Steps) {
    if (!Steps)
      return;
    ++LockstepSkips;
    LockstepSteps += Steps;
  }
  void merge(const ConvergenceSums &O) {
    EarlyExits += O.EarlyExits;
    WindowSum += O.WindowSum;
    MaxWindow = std::max(MaxWindow, O.MaxWindow);
    StepsSaved += O.StepsSaved;
    LockstepSkips += O.LockstepSkips;
    LockstepSteps += O.LockstepSteps;
  }
};

/// Phase-1 collector for the differential replay: the executed-instruction
/// records, the dense reconstruction snapshots and, once the run is
/// recorded, the access links. sizeFor() fixes the snapshot stride from the
/// reference run's length before recording starts: the smallest 16 * 2^j
/// that keeps the run under MaxSnaps snapshots, with the indexing
/// invariant Snaps[k].Steps == k * Stride.
struct ConvergenceRecorder {
  bool Enabled = false;
  std::vector<ExecRec> Execs;
  std::vector<UntypedSnapshot> Snaps;
  uint64_t Stride = 16;
  static constexpr uint64_t MaxSnaps = 512;
  /// Per injection snapshot of the campaign, the first record at or after
  /// it that accesses each dense register, or ExecRec::None.
  std::vector<std::array<uint32_t, Reg::NumRegs>> FirstAccess;
  /// Every address a load of the reference run could find defined, sorted
  /// and unique: the initial memory domain and queue addresses, and every
  /// store address of the run. A load from any other address is wild.
  std::vector<Addr> Loadable;

  /// Fixes the stride and reserves the recording of a \p RefSteps-step
  /// reference run.
  void sizeFor(uint64_t RefSteps) {
    while (RefSteps / Stride >= MaxSnaps)
      Stride *= 2;
    Execs.reserve(RefSteps / 2 + 1);
    Snaps.reserve(RefSteps / Stride + 1);
  }

  void start(const MachineState &S) {
    if (!Enabled)
      return;
    Snaps.push_back({S, 0, 0});
    UntilSnap = Stride;
  }

  /// Call with the pre-step state; \p NextStep is the 1-based index of the
  /// transition about to execute.
  void beforeStep(const MachineState &S, [[maybe_unused]] uint64_t NextStep) {
    if (!Enabled || !S.IR)
      return;
    assert(NextStep == 2 * (Execs.size() + 1) &&
           "fetch/execute alternation broken");
    const Inst &I = *S.IR;
    ExecRec Rec;
    Rec.Op = I.Op;
    Rec.HasImm = I.HasImm;
    Rec.Rd = (uint8_t)I.Rd.denseIndex();
    Rec.Rs = (uint8_t)I.Rs.denseIndex();
    Rec.Rt = (uint8_t)I.Rt.denseIndex();
    Rec.C = I.C;
    Rec.TargetColorIsD = S.Regs.col(I.Rd) == S.Regs.col(Reg::dest());
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
      Execs.back().Result = S.Regs.val(Reg::fromDenseIndex(Execs.back().Rd));
    if (--UntilSnap)
      return;
    UntilSnap = Stride;
    Snaps.push_back({S, Steps, TraceLen});
  }

  /// The passes over the finished recording of a run that ended in
  /// \p Final. A forward pass pairs every stB with the stG whose entry it
  /// pops (the queue is FIFO: stG pushes the front, stB pops the back, and
  /// the reference never fails a check). A backward pass links every record
  /// to the next record accessing each register it accesses, and fills
  /// FirstAccess for the campaign's injection snapshots \p Inject. A
  /// snapshot at step s is followed first by the record of execute step
  /// 2 * (s/2 + 1), index s/2.
  void link(const std::vector<UntypedSnapshot> &Inject,
            const MachineState &Final) {
    if (!Enabled)
      return;
    // 2^32 records would be 192 GiB; sizeFor's reservation fails first.
    assert(Execs.size() < ExecRec::None && "record index overflows a link");
    // Memory grows only by stB commits, and every queued entry is either
    // still queued at the end or committed, so the final memory domain and
    // queue hold every loadable address.
    for (const auto &[A, V] : Final.Mem)
      Loadable.push_back(A);
    for (const QueueEntry &Q : Final.Queue)
      Loadable.push_back(Q.Address);
    std::sort(Loadable.begin(), Loadable.end());
    Loadable.erase(std::unique(Loadable.begin(), Loadable.end()),
                   Loadable.end());

    // The stG records whose entries are queued, oldest first; entries
    // queued before the run have no record.
    std::vector<uint32_t> Pending(Snaps.front().S.Queue.size(), ExecRec::None);
    size_t Oldest = 0;
    uint32_t LastLdOrControl = ExecRec::None;
    for (uint32_t I = 0; I != (uint32_t)Execs.size(); ++I) {
      ExecRec &Rec = Execs[I];
      if (Rec.Op == Opcode::Ld || Rec.Op == Opcode::Jmp ||
          Rec.Op == Opcode::Bz) {
        LastLdOrControl = I;
      } else if (Rec.Op == Opcode::St && Rec.C == Color::Green) {
        Pending.push_back(I);
      } else if (Rec.Op == Opcode::St) {
        assert(Oldest != Pending.size() && "the reference stB found no entry");
        uint32_t G = Pending[Oldest++];
        if (G != ExecRec::None &&
            (LastLdOrControl == ExecRec::None || LastLdOrControl < G))
          Execs[G].Next[ExecRec::PartnerSlot] = I;
        if (Oldest == Pending.size()) {
          Pending.clear();
          Oldest = 0;
        }
      }
    }

    std::array<uint32_t, Reg::NumRegs> Next;
    Next.fill(ExecRec::None);
    FirstAccess.resize(Inject.size());
    size_t SI = Inject.size();
    for (uint32_t I = (uint32_t)Execs.size();; --I) {
      // Next[R] is the first record at or after I that accesses R.
      for (; SI && Inject[SI - 1].Steps / 2 >= I; --SI)
        FirstAccess[SI - 1] = Next;
      if (I == 0)
        break;
      ExecRec &Rec = Execs[I - 1];
      Rec.forEachAccess(
          [&](unsigned Slot, unsigned R) { Rec.Next[Slot] = Next[R]; });
      Rec.forEachAccess([&](unsigned, unsigned R) { Next[R] = I - 1; });
    }
  }

private:
  uint64_t UntilSnap = 0; ///< Steps left until the next dense snapshot.
};

/// The replay's progress gate: once a continuation has seen GateEvents
/// events, it bails to concrete simulation unless they discharged at least
/// GateStepsPerEvent reference steps each. With the gate off, an event
/// of a site walk costs about 200-260 cycles on the fig10 sweeps below
/// (9-11 per continuation it touches, about 23 per event; walk setup
/// included), against 0.8-4.7 cycles per fused native JIT step and
/// 5.0-9.7 per vm step, so dense taint is still cheaper to simulate than
/// to replay. Chosen by an interleaved sweep over both default paths on
/// the fifteen Figure 10 kernels (pruned jit at stride steps/24; unpruned
/// vm with lanes at steps/6, one thread), two runs of sixteen rounds on a
/// 4-vCPU x86-64 VM, median injection seconds per path in each run (the
/// ratios are per-kernel medians against (8, 16)):
///
///   (GateEvents, GateStepsPerEvent)   jit          vm
///   (8, 16)                           0.135/0.140  0.057/0.059
///   (8, 8)                            0.141/0.146  0.057/0.057
///   (16, 16)                          0.131/0.132  0.053/0.056
///   (8, 4)                            0.162/0.163  0.046/0.044  (jit:
///                                          crafty 1.7x, g721 1.5x)
///   (8, 32)                           0.242/0.257  0.110/0.103  (parser
///                                          5.3x jit, 5.6x vm; vortex 3.8x)
///   off                               0.154/0.162  0.046/0.044  (jit:
///                                          crafty 1.7x, g721 1.5x)
///   more than 4 tainted registers     0.141/0.152  0.061/0.065  (jpeg
///                                          7x jit)
///
/// (16, 16) lowers both totals within noise, but in two more runs of
/// twenty-four rounds g721's vm median rose by more than its interquartile
/// range both times, and g721 is one of the kernels that set the slowest
/// cold certifications; so (8, 16) stays. Without a gate the vm path is a
/// fifth faster and the jit path a sixth slower.
constexpr uint64_t GateEvents = 8;
constexpr uint64_t GateStepsPerEvent = 16;

/// Bails within this many steps of the injection do not count as lockstep
/// skips: CampaignStats::LockstepSkips and LockstepSteps tally the
/// replay's long discharges, and the cutoff keeps their values stable
/// across execution strategies.
constexpr uint64_t MinCountedSkip = 64;

/// Lanes per site walk: one bit each of a uint64_t lane mask.
constexpr unsigned SiteBatchWidth = 64;

/// One continuation's outcome of a site walk: its verdict, or where its
/// replay bailed.
struct ReplayOutcome {
  std::optional<Verdict> V;
  /// Absolute reference step to resume from when V is empty (post-fetch:
  /// the event instruction is in flight there and re-executes for real).
  uint64_t Resume = 0;
  /// The register payloads that differ from the reference at Resume.
  TaintMap Taint;
};

/// The union taint of a site walk, reused by every walk of a block: per
/// dense register, the lanes holding it tainted, each lane's faulty
/// payload and the register's link (the next record accessing it, which
/// every lane shares). A walk resets only the masks; it writes the other
/// rows before reading them.
struct SiteWalk {
  std::array<uint64_t, Reg::NumRegs> Mask;
  std::array<uint32_t, Reg::NumRegs> Link;
  std::array<std::array<int64_t, SiteBatchWidth>, Reg::NumRegs> Val;
  /// The registers with a non-empty mask.
  std::array<uint8_t, Reg::NumRegs> Live;
  unsigned NumLive = 0;
  /// The open lanes grouped by how many events each has seen, the
  /// progress gate's count. Lanes whose taint was touched equally often
  /// share a group, so counting costs a few word operations per event
  /// rather than one per lane; the groups stay few and disjoint.
  struct EventCount {
    uint64_t Lanes;
    uint64_t Events;
  };
  std::array<EventCount, SiteBatchWidth> Counts;
  unsigned NumCounts = 0;
  std::array<ReplayOutcome, SiteBatchWidth> Out;
};

/// Sparse differential replay of one register site's continuations against
/// the recorded reference instruction stream: the campaign's convergence
/// shortcut. Faults whose taint drains, runs whose hardware check must
/// fail, and color-divergent Masked runs all resolve here without stepping
/// the machine, where full-state simulation would classify them step by
/// step.
///
/// The soundness backbone is *structural lockstep*: as long as every
/// register payload that differs from the reference is confined to the
/// taint set, the faulty run executes exactly the reference's instruction
/// sequence. Taint never touches a color tag: the fault keeps its
/// register's color, and every rule below that writes a tainted payload
/// writes the color the reference writes. Fetches read only the
/// (untainted) pcs; memory changes only through stB commits and the queue
/// only through stores, and a store with a tainted operand either closes
/// its lane or bails, so memory and queue stay reference-equal
/// throughout; a control transition whose outcome differs from the
/// reference's likewise closes or bails. Every transition whose accessed
/// registers (ExecRec::forEachAccess) are all untainted therefore reads
/// reference values, fires the reference rule, writes reference values and
/// emits the reference outputs — only the *events*, the records that
/// access a tainted register, need attention. The reference never fails a
/// check, which fixes what each event's operands are in the reference run:
///
///   - alu: the faulty result is evalAluOp over the recorded source
///     values with taint overrides; equal to the recorded result it
///     kills the Rd taint, different it retaints Rd;
///   - mov: Rd takes the immediate — the reference result — killing Rd's
///     taint unconditionally;
///   - ld with an untainted address: reads reference-equal memory (and,
///     for ldG, a reference-equal queue), so Rd gets the reference
///     result, killing its taint. A tainted address outside
///     ConvergenceRecorder::Loadable is defined neither in memory nor in
///     the queue: under WildLoadPolicy::Trap the load faults (Detected),
///     under Garbage Rd takes GarbageValue in the load's color, tainted
///     iff that differs from the recorded result. Any other tainted
///     address bails;
///   - stB: the queue back is the reference entry, which the reference
///     operands match, so a tainted address or value fails the check
///     (Detected);
///   - stG: the lane pushes an entry the reference did not. It is decided
///     at its partner, the stB that pops it, when (1) no ld or control
///     record lies strictly between the pair (an ldG could forward the
///     entry into a register, and the link pass records no partner then),
///     (2) the lane has no event of its own before the partner, so its
///     taint is frozen until the partner reads it (an alu event could
///     retaint the partner's operands), and (3) the entry differs from the
///     partner's operands as the lane sees them there: then the partner's
///     check fails (Detected). Otherwise it bails;
///   - jmpG: the reference d is 0, so a tainted d fails the check
///     (Detected). Otherwise d takes the target, color and payload, in
///     both runs: a tainted target moves into d;
///   - jmpB: the reference d equals the target and is non-zero. Taint on
///     exactly one of them fails the check (Detected); with both tainted
///     the lane is Detected if they differ or d is 0, and bails otherwise
///     (a commit the reference did not make);
///   - bz: the reference d before the step is the target at a blue taken
///     branch and 0 otherwise. A lane whose d is non-zero where its
///     branch requires 0, or differs from the target at a blue branch it
///     takes, fails the check (Detected). A green branch moves the target
///     into d where taken: when both runs take it, the target's taint
///     moves into d; when they take it differently, d takes a payload
///     difference, which keeps the reference's color only if the recorded
///     col(Rd) == col(d) (ExecRec::TargetColorIsD), and bails otherwise.
///     A blue commit the two runs do not share bails; a fall-through in
///     both runs changes nothing.
///
/// Four ways out per continuation, all verdict-exact against the full
/// simulation:
///
///   - the taint set empties: the faulty state now equals the reference
///     state exactly, so the remainder is the reference tail — Masked;
///   - no tainted register is ever accessed again: the run is lockstep
///     to the halt, the trace completes, and the final state is RefFinal
///     with the taint patched in — only the similarity check remains;
///   - a check that must fail: the run faults at the event with the
///     reference's output prefix behind it — Detected;
///   - bail: the outcome holds the step to resume from (just before the
///     event) and the taint payloads there. The reference state at that
///     step with the taint patched in IS the faulty state there, by the
///     invariant, so the caller resumes concretely from it. Values zapped
///     into one site usually bail at the same event, so the caller pools
///     continuations by resume step and reconstructs each pool's base
///     state once.
///
/// A Detected lane counts its lockstep skip as a bail at the same event
/// would, so the skip counters do not depend on which events settle.
///
/// One walk settles up to SiteBatchWidth corruption values of one site,
/// one lane each. Every lane walks the same reference records, so the
/// walk keeps one *union* taint (SiteWalk) and visits each event record
/// once: the next event is the smallest link over the registers tainted
/// in any lane, and it is an event for exactly the lanes that hold a
/// tainted register it accesses, so each lane sees precisely the event
/// sequence of a walk of its own. A link is a property of the reference
/// (the next record accessing the register after the current one), so all
/// lanes share it. Every event re-links each register it accesses,
/// tainted or not: a register is only ever tainted again by an event that
/// writes it, so its link is current the moment its mask refills. Lanes
/// never influence each other — the gate counts each lane's own events and
/// a lane's outcome depends only on its own payloads — so a batch of one
/// is the single-continuation walk.
///
/// An event costs several native steps per value it touches, so a run
/// whose taint is touched at nearly every instruction caps its event count
/// and bails instead of losing the race (see GateEvents above).
void replaySite(const ConvergenceRecorder &CR, const StepPolicy &Policy,
                const InjectionTask *Lane, unsigned N, uint64_t InjectedAt,
                const MachineState &RefFinal, uint64_t RefSteps, ZapTag Z,
                ConvergenceSums &Sums, SiteWalk &W) {
  assert(N && N <= SiteBatchWidth && "a site batch fills one lane mask");
  auto EachLane = [](uint64_t M, auto &&F) {
    for (; M; M &= M - 1)
      F((unsigned)std::countr_zero(M));
  };
  constexpr unsigned D = ExecRec::DenseD;
  const std::vector<ExecRec> &Execs = CR.Execs;
  uint64_t Open = N == SiteBatchWidth ? ~uint64_t{0} : (uint64_t{1} << N) - 1;
  unsigned Injected = Lane[0].Site.R.denseIndex();
  W.Mask.fill(0);
  W.Mask[Injected] = Open;
  W.Link[Injected] = CR.FirstAccess[Lane[0].SnapIdx][Injected];
  W.Live[0] = (uint8_t)Injected;
  W.NumLive = 1;
  W.Counts[0] = {Open, 0};
  W.NumCounts = 1;
  for (unsigned L = 0; L != N; ++L) {
    W.Val[Injected][L] = Lane[L].Value;
    W.Out[L].V.reset();
    W.Out[L].Taint.V.clear();
  }

  while (Open) {
    // The next reference record that may touch any tainted register.
    uint32_t K = ExecRec::None;
    for (unsigned I = 0; I != W.NumLive; ++I)
      K = std::min(K, W.Link[W.Live[I]]);
    if (K == ExecRec::None) {
      // The faulty final state is RefFinal with the lane's taint payloads
      // patched in — identical everywhere else — so the similarity check
      // reduces to the tainted registers; no state copy needed.
      EachLane(Open, [&](unsigned L) {
        Sums.skip(RefSteps - InjectedAt);
        W.Out[L].V = Verdict::Masked;
        if (RefFinal.isFault())
          return;
        for (unsigned I = 0; I != W.NumLive; ++I) {
          unsigned R = W.Live[I];
          if (!(W.Mask[R] >> L & 1))
            continue;
          talft::Value RefV = RefFinal.Regs.get(Reg::fromDenseIndex(R));
          if (!similarValues(Z, talft::Value(RefV.C, W.Val[R][L]), RefV)) {
            W.Out[L].V = Verdict::DissimilarState;
            return;
          }
        }
      });
      return;
    }
    assert(K < Execs.size() && "a link points past the recording");
    const ExecRec &Rec = Execs[K];
    // The event's execute transition.
    uint64_t Step = 2 * (uint64_t(K) + 1);
    uint64_t Ev = 0;
    Rec.forEachAccess([&](unsigned, unsigned R) { Ev |= W.Mask[R]; });
    Rec.forEachAccess(
        [&](unsigned Slot, unsigned R) { W.Link[R] = Rec.Next[Slot]; });

    // Progress gate: the replay only pays off while events stay sparse.
    // Dense taint (many hot registers) discharges few steps per event;
    // hand such runs to the concrete classifier before the bookkeeping
    // loses the race.
    uint64_t Bail = 0;
    for (unsigned C = 0, E = W.NumCounts; C != E; ++C) {
      SiteWalk::EventCount &Cnt = W.Counts[C];
      uint64_t Hit = Cnt.Lanes & Ev;
      if (!Hit)
        continue;
      uint64_t Events = Cnt.Events + 1;
      if (Events >= GateEvents &&
          Step - InjectedAt < GateStepsPerEvent * Events)
        Bail |= Hit;
      if (Hit == Cnt.Lanes) {
        Cnt.Events = Events;
      } else {
        Cnt.Lanes &= ~Hit;
        W.Counts[W.NumCounts++] = {Hit, Events};
      }
    }
    // The event's lanes split three ways: Go lanes carry on (the switch
    // updates their taint), Detected lanes fail a check here, and Bail
    // lanes resume concretely with their taint as it stood before the
    // event. Only Go lanes' masks and payloads change.
    uint64_t Go = Ev & ~Bail;
    uint64_t Detected = 0;
    // Lane L's view of register R: its faulty payload or the reference's.
    auto View = [&](unsigned L, unsigned R, int64_t Ref) {
      return W.Mask[R] >> L & 1 ? W.Val[R][L] : Ref;
    };
    bool RdWasLive = W.Mask[Rec.Rd] != 0, DWasLive = W.Mask[D] != 0;
    switch (Rec.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul: {
      uint64_t TaintS = W.Mask[Rec.Rs];
      uint64_t TaintT = Rec.HasImm ? 0 : W.Mask[Rec.Rt];
      const int64_t *ValS = W.Val[Rec.Rs].data();
      const int64_t *ValT = W.Val[Rec.Rt].data();
      int64_t *ValD = W.Val[Rec.Rd].data();
      // A lane whose result differs from the recorded one (re)taints Rd;
      // the others drain it.
      uint64_t Differs = 0;
      EachLane(Go, [&](unsigned L) {
        int64_t A = TaintS >> L & 1 ? ValS[L] : Rec.SrcRs;
        int64_t B = TaintT >> L & 1 ? ValT[L] : Rec.SrcRt;
        int64_t R = evalAluOp(Rec.Op, A, B);
        ValD[L] = R;
        Differs |= uint64_t(R != Rec.Result) << L;
      });
      W.Mask[Rec.Rd] = (W.Mask[Rec.Rd] & ~Go) | Differs;
      break;
    }
    case Opcode::Mov:
      W.Mask[Rec.Rd] &= ~Go;
      break;
    case Opcode::Ld: {
      uint64_t TaintA = Go & W.Mask[Rec.Rs], Wild = 0;
      EachLane(TaintA, [&](unsigned L) {
        if (!std::binary_search(CR.Loadable.begin(), CR.Loadable.end(),
                                W.Val[Rec.Rs][L]))
          Wild |= uint64_t{1} << L;
      });
      Bail |= TaintA & ~Wild;
      if (Policy.WildLoad == WildLoadPolicy::Trap) {
        Detected |= Wild;
        Go &= ~TaintA;
        W.Mask[Rec.Rd] &= ~Go;
        break;
      }
      Go &= ~(TaintA & ~Wild);
      uint64_t Garbage = Policy.GarbageValue != Rec.Result ? Wild : 0;
      EachLane(Garbage,
               [&](unsigned L) { W.Val[Rec.Rd][L] = Policy.GarbageValue; });
      W.Mask[Rec.Rd] = (W.Mask[Rec.Rd] & ~Go) | Garbage;
      break;
    }
    case Opcode::St: {
      uint32_t P = Rec.partner();
      if (Rec.C == Color::Blue) {
        Detected |= Go;
      } else if (P == ExecRec::None) {
        Bail |= Go;
      } else {
        const ExecRec &Pop = Execs[P];
        EachLane(Go, [&](unsigned L) {
          uint32_t NextEvent = ExecRec::None;
          for (unsigned I = 0; I != W.NumLive; ++I)
            if (W.Mask[W.Live[I]] >> L & 1)
              NextEvent = std::min(NextEvent, W.Link[W.Live[I]]);
          bool Fails = NextEvent >= P &&
                       (View(L, Rec.Rd, Rec.Result) !=
                            View(L, Pop.Rd, Pop.Result) ||
                        View(L, Rec.Rs, Rec.SrcRs) !=
                            View(L, Pop.Rs, Pop.SrcRs));
          (Fails ? Detected : Bail) |= uint64_t{1} << L;
        });
      }
      Go = 0;
      break;
    }
    case Opcode::Jmp: {
      uint64_t TaintD = W.Mask[D], TaintT = W.Mask[Rec.Rd];
      if (Rec.C == Color::Green) {
        Detected |= Go & TaintD;
        Go &= ~TaintD;
        // Every remaining lane holds a tainted target.
        EachLane(Go, [&](unsigned L) { W.Val[D][L] = W.Val[Rec.Rd][L]; });
        W.Mask[D] |= Go;
        break;
      }
      Detected |= Go & (TaintD ^ TaintT);
      EachLane(Go & TaintD & TaintT, [&](unsigned L) {
        int64_t Dest = W.Val[D][L];
        (Dest == 0 || Dest != W.Val[Rec.Rd][L] ? Detected : Bail) |=
            uint64_t{1} << L;
      });
      Go = 0;
      break;
    }
    case Opcode::Bz: {
      bool Blue = Rec.C == Color::Blue;
      bool RefTaken = Rec.SrcRs == 0;
      int64_t RefT = Rec.Result;
      int64_t RefD = RefTaken && Blue ? RefT : 0;
      uint64_t Stop = 0, Moves = 0;
      EachLane(Go, [&](unsigned L) {
        uint64_t Bit = uint64_t{1} << L;
        int64_t Dest = View(L, D, RefD);
        int64_t T = View(L, Rec.Rd, RefT);
        // d's payload after a green branch: where the lane's differs from
        // the reference's, it moves into d's taint.
        auto MoveIntoD = [&](int64_t Faulty, int64_t Ref) {
          if (Faulty == Ref)
            return;
          W.Val[D][L] = Faulty;
          Moves |= Bit;
        };
        if (View(L, Rec.Rs, Rec.SrcRs) != 0) { // the lane falls through
          if (Dest != 0)
            Detected |= Bit;
          else if (!RefTaken)
            return;
          else if (Blue || !Rec.TargetColorIsD)
            Stop |= Bit;
          else
            MoveIntoD(0, RefT);
        } else if (!Blue) { // the lane takes a green branch
          if (Dest != 0)
            Detected |= Bit;
          else if (RefTaken)
            MoveIntoD(T, RefT);
          else if (!Rec.TargetColorIsD)
            Stop |= Bit;
          else
            MoveIntoD(T, 0);
        } else { // the lane takes a blue branch: it commits iff d == T != 0
          (Dest == 0 || Dest != T ? Detected : Stop) |= Bit;
        }
      });
      Bail |= Stop;
      Go &= ~(Detected | Stop);
      // Continuing lanes reach here with d untainted.
      W.Mask[D] |= Moves;
      break;
    }
    }
    if (!RdWasLive && W.Mask[Rec.Rd])
      W.Live[W.NumLive++] = Rec.Rd;
    if (!DWasLive && W.Mask[D])
      W.Live[W.NumLive++] = D;

    // Detected and bailed lanes stop here, with the same skip accounting:
    // resume just before the event (post-fetch, so the event instruction
    // re-executes for real), with the lane's taint as it stood before the
    // event.
    uint64_t Resume = Step - 1;
    uint64_t Skipped =
        Resume > InjectedAt + MinCountedSkip ? Resume - InjectedAt : 0;
    EachLane(Detected, [&](unsigned L) {
      W.Out[L].V = Verdict::Detected;
      Sums.skip(Skipped);
    });
    EachLane(Bail, [&](unsigned L) {
      ReplayOutcome &O = W.Out[L];
      O.Resume = Resume;
      for (unsigned I = 0; I != W.NumLive; ++I) {
        unsigned R = W.Live[I];
        if (W.Mask[R] >> L & 1)
          O.Taint.V.push_back({R, W.Val[R][L]});
      }
      Sums.skip(Skipped);
    });
    uint64_t Tainted = 0;
    for (unsigned I = 0; I != W.NumLive; ++I)
      Tainted |= W.Mask[W.Live[I]] &= ~(Bail | Detected);
    // Drained: the lane's state equals the reference from here on.
    EachLane(Go & ~Tainted, [&](unsigned L) {
      Sums.earlyExit(Step - InjectedAt, RefSteps - Step);
      Sums.skip(Step - InjectedAt);
      W.Out[L].V = Verdict::Masked;
    });
    Open = Tainted;

    unsigned Kept = 0;
    for (unsigned I = 0; I != W.NumLive; ++I)
      if (W.Mask[W.Live[I]])
        W.Live[Kept++] = W.Live[I];
    W.NumLive = Kept;
    // Closed lanes leave their count group; groups that now share a
    // count merge.
    Kept = 0;
    for (unsigned C = 0; C != W.NumCounts; ++C) {
      SiteWalk::EventCount Cnt = W.Counts[C];
      Cnt.Lanes &= Open;
      if (!Cnt.Lanes)
        continue;
      unsigned Dst = 0;
      while (Dst != Kept && W.Counts[Dst].Events != Cnt.Events)
        ++Dst;
      if (Dst == Kept)
        W.Counts[Kept++] = Cnt;
      else
        W.Counts[Dst].Lanes |= Cnt.Lanes;
    }
    W.NumCounts = Kept;
  }
}

/// Maps a finished continuation's RunStatus to its verdict — the single
/// source of truth shared by the scalar, lane, recovery and plan
/// classifiers, so they can never drift. Only the Halted case consults the
/// final state, under the fault's zap tag \p Z; without one (a plan whose
/// faults hit both colors, or no fault at all) similarity has no color to
/// index by and the run classifies on its trace alone.
Verdict verdictForStatus(RunStatus St, const PrefixTracker &Prefix,
                         const OutputTrace &RefTrace, std::optional<ZapTag> Z,
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
  if (Z && !similarStates(*Z, S, RefFinal))
    return Verdict::DissimilarState;
  return Verdict::Masked;
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

  if (RR.Status == RecoveryStatus::OutOfSteps && RR.Stats.Rollbacks > 0) {
    // The step budget is shared by rollback replays, so exhausting it
    // mid-recovery is an escalation with its own message, not a plain
    // BudgetExhausted.
    O.V = Verdict::RecoveryEscalated;
    O.Detail = describeInjection(
        Site, Value, AtSteps,
        formatv("faulty run exceeded its shared step budget during "
                "recovery (%llu rollback replay%s); escalated to fail-stop",
                (unsigned long long)RR.Stats.Rollbacks,
                RR.Stats.Rollbacks == 1 ? "" : "s")
            .c_str());
    return O;
  }
  RunStatus St = RunStatus::OutOfSteps;
  switch (RR.Status) {
  case RecoveryStatus::Halted:
    St = RunStatus::Halted;
    break;
  case RecoveryStatus::Escalated:
    St = RunStatus::FaultDetected;
    break;
  case RecoveryStatus::Stuck:
    St = RunStatus::Stuck;
    break;
  case RecoveryStatus::OutOfSteps:
    break;
  }
  O.V = verdictForStatus(St, Prefix, RefTrace, Z, S, RefFinal);
  // A fail-stop with every emitted output verified is a benign escalation
  // (a diverged prefix is the same violation it always was), and a clean
  // halt that needed a rollback recovered.
  if (O.V == Verdict::Detected)
    O.V = Verdict::RecoveryEscalated;
  else if (O.V == Verdict::Masked && RR.Stats.Rollbacks > 0)
    O.V = Verdict::Recovered;
  if (!isBenign(O.V))
    O.Detail = describeInjection(Site, Value, AtSteps, abnormalMessage(O.V));
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

/// The frame the typed sweep runs in: the result under construction and
/// the CFI table, when requested. The table rides on the
/// step policy, so the reference interpreter validates commits through the
/// same hook as every engine. Record-only: verdicts cannot depend on it.
struct SweepFrame {
  CampaignResult R;
  std::unique_ptr<CfiTable> Cfi;
  TheoremConfig Config;

  SweepFrame(const Program &Prog, const TheoremConfig &ConfigIn,
             const CampaignOptions &Opts)
      : Cfi(buildCfiTable(Prog, Opts)), Config(ConfigIn) {
    if (Cfi)
      Config.Policy.Cfi = Cfi.get();
  }

  void addViolation(std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  }

  /// Hands the result over with the CFI table's counters.
  CampaignResult finish() {
    if (Cfi) {
      R.Stats.CfiChecked = true;
      R.Stats.CfiCommits = Cfi->commits();
      R.Stats.CfiViolations = Cfi->violations();
      R.CfiFirstViolation = Cfi->firstViolation();
    }
    return std::move(R);
  }

  /// Ends the sweep early with violation \p V.
  CampaignResult fail(std::string V) {
    addViolation(std::move(V));
    return finish();
  }
};

/// The engine provenance of a classification phase: the engine's name and,
/// for the JIT tier, its compilation stats (per-program constants) and
/// side-exits. The side-exit counter is cumulative across the engine's
/// lifetime, so the phase's share is the delta between construction and
/// finish().
struct EngineProvenance {
  const vm::JitEngine *JE;
  uint64_t ExitsBefore;

  EngineProvenance(const ExecEngine &E, CampaignStats &Stats)
      : JE(dynamic_cast<const vm::JitEngine *>(&E)),
        ExitsBefore(JE ? JE->sideExits() : 0) {
    Stats.Engine = E.name();
    if (JE) {
      Stats.JitNative = JE->native();
      Stats.JitBlocksCompiled = JE->blocksCompiled();
      Stats.JitCodeBytes = JE->codeBytes();
    }
  }

  void finish(CampaignStats &Stats) const {
    if (JE)
      Stats.JitSideExits = JE->sideExits() - ExitsBefore;
  }
};

/// One fault site the sweep simulates. Its tasks, one per corruption value
/// other than the site's current one, are numbered from First in
/// enumeration order, up to the next site's First.
struct SiteTasks {
  uint64_t First;
  uint32_t SnapIdx;
  FaultSite Site;
};

/// Phase 2's shard-independent half: the work list in the order the serial
/// checker visits it, one entry per simulated site, so merged violation
/// lists match it exactly and a shard finds its slice without walking the
/// tasks before it.
struct TaskCounts {
  /// The sorted corruption values (representativeCorruptions).
  std::vector<int64_t> Corruptions;
  std::vector<SiteTasks> Sites;
  uint64_t Total = 0;
  /// StaticallyMasked and StaticallyDetected tallies of the discharged
  /// sites.
  VerdictTable Static;
  /// True when the prune oracle vouched for the program.
  bool Pruned = false;
};

/// Counts the tasks of every injection site of the \p NumSnaps snapshots,
/// shared by both single-fault entry points. \p StateAt resolves the
/// reference state of snapshot \p SI (typed and untyped campaigns store
/// snapshots differently). With Opts.Prune and an oracle that vouches for
/// the program, provably-dead register sites are tallied as
/// StaticallyMasked instead of being enumerated — exactly the triples the
/// unpruned sweep would have classified, so the table total is invariant
/// under pruning.
///
/// A non-null \p CtrlAhead ("some control instruction executes at or after
/// this snapshot in the reference run", per snapshot; untyped campaigns
/// only) additionally arms the control-register discharge when the oracle
/// vouches that the specials appear in control positions alone
/// (ZapCoverage::specialSiteDischargeSound), the campaign is
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
/// A site's task count is the number of corruption values, less one when
/// they include its current value (a reg-zap replaces the value with a
/// *different* one), so no triple is visited here.
TaskCounts countTasks(const Program &Prog, const TheoremConfig &Config,
                      const CampaignOptions &Opts, size_t NumSnaps,
                      const std::function<const MachineState &(size_t)> &StateAt,
                      const std::vector<uint8_t> *CtrlAhead) {
  TaskCounts TC;
  std::optional<analysis::ZapCoverage> Oracle = buildPruneOracle(Prog, Opts);
  const analysis::ZapCoverage *Prune = Oracle ? &*Oracle : nullptr;
  TC.Pruned = Prune != nullptr;
  // The control-register discharge needs the oracle's guarantee that the
  // specials never appear as instruction operands, no recovery (it
  // rewrites continuations), and enough extra steps for the corrupted run
  // to reach its next control.
  if (!Prune || !Prune->specialSiteDischargeSound() ||
      Config.Recovery.Enabled || Config.ExtraSteps < 2)
    CtrlAhead = nullptr;
  std::bitset<Reg::NumRegs> Sited;
  if (Config.OnlyMentionedRegisters)
    Sited = mentionedRegisters(Prog);
  else
    Sited.set();
  TC.Corruptions = representativeCorruptions(Prog);

  for (size_t SI = 0; SI != NumSnaps; ++SI) {
    const MachineState &S = StateAt(SI);
    // The pcs are only bumped when the next rule fires, so pcG's payload
    // is the address of the instruction the next transition executes —
    // whether or not it is already fetched into IR.
    Addr Here = S.pcG().N;
    for (const FaultSite &Site : enumerateFaultSites(S)) {
      bool IsReg = Site.K == FaultSite::Kind::Register;
      if (IsReg && !Sited[Site.R.denseIndex()])
        continue;
      uint32_t N = (uint32_t)(TC.Corruptions.size() -
                              std::binary_search(TC.Corruptions.begin(),
                                                 TC.Corruptions.end(),
                                                 currentValueAt(S, Site)));
      if (IsReg && Prune && Prune->deadRegisterSite(Here, Site.R)) {
        TC.Static[Verdict::StaticallyMasked] += N;
        continue;
      }
      if (CtrlAhead && IsReg && (Site.R.isDest() || Site.R.isPC())) {
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
        TC.Static[V] += N;
        continue;
      }
      if (!N)
        continue;
      TC.Sites.push_back({TC.Total, (uint32_t)SI, Site});
      TC.Total += N;
    }
  }
  return TC;
}

/// Phase 2's shard half: the tasks of shard I of the Opts.ShardCount = N
/// shards, the contiguous slice [I*T/N, (I+1)*T/N) of the T tasks in
/// enumeration order, in one walk over the sites that hold them.
/// Enumeration is deterministic and tasks classify independently, so
/// folding the N shard results in index order (foldShardResult) reproduces
/// the unsharded campaign bit for bit.
///
/// Records the shard provenance and the task and pruning statistics in
/// \p R. Returns nullopt (with a campaign-level violation) on an
/// out-of-range shard index.
std::optional<std::vector<InjectionTask>>
sliceTasks(const TaskCounts &TC, const TheoremConfig &Config,
           const CampaignOptions &Opts,
           const std::function<const MachineState &(size_t)> &StateAt,
           CampaignResult &R) {
  unsigned Shards = std::max(1u, Opts.ShardCount);
  unsigned Shard = Opts.ShardIndex;
  R.Stats.ShardCount = Shards;
  R.Stats.ShardIndex = Shard;
  R.Stats.TotalTasks = TC.Total;
  if (Shard >= Shards) {
    // A shard out of range covers no slice and is never folded; its table
    // is empty, as its slice is (the static tallies are shard 0's).
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(
          formatv("shard index %u out of range for %u shard(s)", Shard,
                  Shards));
    return std::nullopt;
  }
  uint64_t Lo = TC.Total * Shard / Shards;
  uint64_t Hi = TC.Total * (Shard + 1) / Shards;
  R.Stats.ShardFirstTask = Lo;
  // Shard 0 alone tallies the statically discharged sites, so the N shard
  // tables sum to the unsharded table exactly.
  if (Shard == 0)
    R.Table.merge(TC.Static);
  R.Stats.Pruned = TC.Pruned;
  R.Stats.PrunedTasks = R.Table[Verdict::StaticallyMasked] +
                        R.Table[Verdict::StaticallyDetected];
  R.Stats.PrunedDetected = R.Table[Verdict::StaticallyDetected];

  std::vector<InjectionTask> Tasks;
  Tasks.reserve(Hi - Lo);
  // The site holding task Lo is the last one whose tasks start at or
  // before it.
  auto Site = std::upper_bound(
      TC.Sites.begin(), TC.Sites.end(), Lo,
      [](uint64_t I, const SiteTasks &ST) { return I < ST.First; });
  if (Site != TC.Sites.begin())
    --Site;
  for (; Site != TC.Sites.end() && Site->First < Hi; ++Site) {
    int64_t Current = currentValueAt(StateAt(Site->SnapIdx), Site->Site);
    uint64_t Idx = Site->First;
    for (int64_t Corruption : TC.Corruptions) {
      if (Corruption == Current)
        continue;
      if (Idx >= Lo && Idx < Hi)
        Tasks.push_back({Site->SnapIdx, Site->Site, Corruption});
      ++Idx;
    }
  }
  R.Stats.Tasks = Tasks.size();
  return Tasks;
}

/// Tasks per block, the unit a worker takes: a block never spans two
/// injection steps, so its pools share one rolling reconstruction.
constexpr uint64_t BlockCap = 32 * LaneGroupWidth;

/// Reusable per-block lane scratch: the SoA lane bank and the per-lane
/// bookkeeping arrays. A block runs dozens of small groups; reusing one
/// full-width allocation across them removes the dominant fixed cost of
/// short-lived groups (most post-bail lanes detect within a few steps).
struct LaneScratch {
  vm::LaneState Bank;
  std::vector<MachineState> States;
  std::vector<ZapTag> Zs;
  std::vector<PrefixTracker> Prefixes;
  std::vector<LaneOutcome> Outs;
  LaneScratch()
      : Bank(LaneGroupWidth), States(LaneGroupWidth),
        Zs(LaneGroupWidth, ZapTag::color(Color::Green)),
        Outs(LaneGroupWidth) {
    Prefixes.reserve(LaneGroupWidth);
  }

  /// Rebinds slot \p L to a fresh copy of \p Base minus the value memory,
  /// which stays shared across the group: the fault model never corrupts
  /// memory (it sits in the protected sphere), so register and queue
  /// injections alike leave it untouched. Container capacity survives the
  /// assignments.
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

/// Phase 3, untyped: classifies every task on the raw semantics — with or
/// without the recovery layer — and merges verdicts, violations and
/// recovery stats into \p R deterministically. \p Initial is the
/// program's initial state; \p CR is the reference recording the
/// differential replay walks (empty unless convergence is on).
///
/// One pipeline for every engine. Workers take whole blocks of the
/// snapshot-major task list, and each block goes through three stages:
///
///   - settle: register-site tasks (not pcs: the very next fetch reads
///     them) go through the differential replay, one walk per run of up
///     to SiteBatchWidth values of one site (replaySite), which returns
///     each task's verdict or the step where it bailed and the taint it
///     carries there. This is the stage a per-site classifier plugs into;
///   - pool: every unsettled task waits, keyed by its resume step — the
///     block's injection step, or its bail step. Pools run in increasing
///     resume order, so one rolling reconstruction of the reference state
///     serves the whole block;
///   - run: each pool runs as lockstep lane groups (vm/LaneEngine.h) on
///     the interpreted engines with Lanes on, and continuation by
///     continuation on the engine itself for native JIT code, Lanes off,
///     recovery and pc sites (which leave a group at the very next
///     fetch). Lane groups execute vm micro-ops, so against native JIT
///     code (a native JitEngine without --cfi-check, which routes it to
///     its vm fallback) they would replace one native entry per
///     continuation with interpreted lanes.
///
/// Each block accumulates its own results (BlockResult); merging them in
/// block order, with each block's violations sorted by task, keeps the
/// merge deterministic regardless of how tasks were pooled and grouped.
void classifyUntypedTasks(const Program &Prog, const TheoremConfig &Config,
                          const CampaignOptions &Opts,
                          const std::vector<InjectionTask> &Tasks,
                          const std::vector<UntypedSnapshot> &Snaps,
                          const MachineState &Initial,
                          const OutputTrace &RefTrace,
                          const MachineState &RefFinal, uint64_t RefSteps,
                          const ConvergenceRecorder &CR, CampaignResult &R) {
  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  EngineProvenance Provenance(E, R.Stats);

  bool Recover = Config.Recovery.Enabled;
  R.Stats.Converge = CR.Enabled;
  bool DiffReplay = CR.Enabled && !CR.Execs.empty();
  bool NativeScalar =
      Provenance.JE && Provenance.JE->native() && !Config.Policy.Cfi;
  bool UseLanes = !Recover && Opts.Lanes && !NativeScalar && !Tasks.empty();
  R.Stats.Lanes = UseLanes;
  std::optional<vm::LaneEngine> LE;
  if (UseLanes) {
    R.Stats.SimdLaneWidth = vm::simd::laneWidth();
    LE.emplace(Prog.code());
  }
  Addr ExitAddr = Prog.exitAddress();

  // One block's results: sums, plus its violations keyed by task.
  struct BlockResult {
    VerdictTable Table;
    std::vector<std::pair<uint64_t, std::string>> Violations;
    RecoveryStats Recovery;
    ConvergenceSums Convergence;
    uint64_t LaneGroups = 0, LaneTasks = 0, LaneDeviations = 0, LaneSteps = 0;
  };
  auto Settle = [&](BlockResult &BR, uint64_t I, Verdict V) {
    BR.Table[V] += 1;
    if (!isBenign(V)) {
      const InjectionTask &T = Tasks[I];
      BR.Violations.emplace_back(
          I, describeInjection(T.Site, T.Value, Snaps[T.SnapIdx].Steps,
                               abnormalMessage(V)));
    }
  };
  auto ZapOf = [&](const InjectionTask &T) {
    return ZapTag::color(faultColor(Snaps[T.SnapIdx].S, T.Site));
  };

  struct Block {
    uint64_t Begin, End;
  };
  std::vector<Block> Blocks;
  for (uint64_t I = 0; I != Tasks.size();) {
    uint64_t J = I + 1;
    while (J != Tasks.size() && Tasks[J].SnapIdx == Tasks[I].SnapIdx &&
           J - I < BlockCap)
      ++J;
    Blocks.push_back({I, J});
    I = J;
  }
  std::vector<BlockResult> Results(Blocks.size());

  // A task waiting to run from reference step Resume: with an empty Taint
  // it injects its fault there (the injection step), otherwise it bailed
  // and its faulty state is the reference state with Taint patched in.
  struct Waiting {
    uint64_t Resume;
    uint64_t Task;
    TaintMap Taint;
  };
  auto Place = [&](MachineState &S, const Waiting &W) {
    const InjectionTask &T = Tasks[W.Task];
    if (W.Taint.empty())
      injectFault(S, T.Site, T.Value);
    else
      patchTaint(S, W.Taint);
  };

  // One continuation on the engine itself, from \p Base at reference step
  // \p At with \p TraceLen reference outputs behind it. The engine's
  // runContinuation checks the exit before the budget, like the serial
  // checker, so verdicts agree bit for bit with it on every engine.
  auto RunScalar = [&](BlockResult &BR, const Waiting &W,
                       const MachineState &Base, uint64_t At,
                       size_t TraceLen) {
    const InjectionTask &T = Tasks[W.Task];
    if (Recover) {
      RecoveredOutcome O = classifyRecoveringContinuation(
          E, ExitAddr, Config.Policy, Config.Recovery, Config.ExtraSteps,
          RefTrace, RefFinal, RefSteps, Base, At, TraceLen, T.Site, T.Value);
      BR.Table[O.V] += 1;
      if (!O.Detail.empty())
        BR.Violations.emplace_back(W.Task, std::move(O.Detail));
      BR.Recovery.merge(O.Stats);
      return;
    }
    MachineState S = Base;
    Place(S, W);
    PrefixTracker Prefix{RefTrace, TraceLen};
    ExecEngine::ContinuationResult C = E.runContinuation(
        S, ExitAddr, RefSteps - At + Config.ExtraSteps, Config.Policy,
        [&Prefix](const QueueEntry &Out) { Prefix.track(Out); });
    Settle(BR, W.Task, verdictForStatus(C.Status, Prefix, RefTrace, ZapOf(T),
                                        S, RefFinal));
  };

  // One lockstep lane group of \p N waiting tasks, every lane \p Base at
  // reference step \p At with its own fault placed, over the base's value
  // memory; each lane's outcome maps through the shared verdict logic.
  auto RunGroup = [&](BlockResult &BR, LaneScratch &SC,
                      const Waiting *const *Ws, unsigned N,
                      const MachineState &Base, uint64_t At,
                      size_t TraceLen) {
    SC.Prefixes.clear();
    for (unsigned L = 0; L != N; ++L) {
      SC.Zs[L] = ZapOf(Tasks[Ws[L]->Task]);
      Place(SC.rebind(L, Base), *Ws[L]);
      SC.Prefixes.push_back(PrefixTracker{RefTrace, TraceLen});
    }
    LaneGroupSpec GSpec;
    GSpec.ExitAddr = ExitAddr;
    GSpec.Budget = RefSteps - At + Config.ExtraSteps;
    GSpec.Policy = Config.Policy;
    GSpec.SharedMem = &Base.Mem;
    GSpec.OnOutput = [&SC](unsigned L, const QueueEntry &Out) {
      SC.Prefixes[L].track(Out);
    };
    LE->run(SC.States.data(), N, GSpec, SC.Outs.data(), SC.Bank);

    ++BR.LaneGroups;
    for (unsigned L = 0; L != N; ++L) {
      const LaneOutcome &Out = SC.Outs[L];
      Settle(BR, Ws[L]->Task,
             verdictForStatus(Out.Status, SC.Prefixes[L], RefTrace, SC.Zs[L],
                              SC.States[L], RefFinal));
      ++BR.LaneTasks;
      BR.LaneDeviations += Out.Deviated;
      BR.LaneSteps += Out.GroupSteps;
    }
  };

  auto RunBlock = [&](uint64_t B) -> uint64_t {
    const Block &Blk = Blocks[B];
    BlockResult &BR = Results[B];
    const UntypedSnapshot &Snap = Snaps[Tasks[Blk.Begin].SnapIdx];

    // Settle. A site's corruption values are adjacent in enumeration
    // order, so one replay walk takes up to SiteBatchWidth of them.
    std::vector<Waiting> Pool;
    Pool.reserve(Blk.End - Blk.Begin);
    SiteWalk Walk; // default-initialized: replaySite resets what it reads
    for (uint64_t I = Blk.Begin; I != Blk.End;) {
      const InjectionTask &T = Tasks[I];
      if (!DiffReplay || T.Site.K != FaultSite::Kind::Register ||
          T.Site.R.isPC()) {
        Pool.push_back({Snap.Steps, I, {}});
        ++I;
        continue;
      }
      uint64_t J = I + 1;
      while (J != Blk.End && J - I < SiteBatchWidth &&
             Tasks[J].Site.K == FaultSite::Kind::Register &&
             Tasks[J].Site.R == T.Site.R)
        ++J;
      replaySite(CR, Config.Policy, &Tasks[I], (unsigned)(J - I), Snap.Steps,
                 RefFinal, RefSteps, ZapOf(T), BR.Convergence, Walk);
      // Settle and pool in task order, so pools keep their grouping.
      for (ReplayOutcome *O = Walk.Out.data(); I != J; ++I, ++O) {
        if (O->V)
          Settle(BR, I, *O->V);
        else
          Pool.push_back({O->Resume, I, std::move(O->Taint)});
      }
    }

    // Pool: the stable sort keeps task order within a pool, so grouping
    // stays deterministic.
    std::stable_sort(Pool.begin(), Pool.end(),
                     [](const Waiting &A, const Waiting &B) {
                       return A.Resume < B.Resume;
                     });

    // Run. The base state rolls forward from pool to pool, replaying the
    // reference from the previous pool's step or from the nearest dense
    // snapshot, whichever is closer.
    MachineState Base;
    uint64_t BaseAt = Snap.Steps;
    size_t BaseLen = 0;
    bool HaveBase = false;
    ExecEngine::OutputSink CountOutputs = [&BaseLen](const QueueEntry &) {
      ++BaseLen;
    };
    std::optional<LaneScratch> SC;
    std::array<const Waiting *, LaneGroupWidth> Group{};
    for (size_t P = 0; P != Pool.size();) {
      uint64_t Resume = Pool[P].Resume;
      const UntypedSnapshot *Dense =
          CR.Snaps.empty() ? nullptr : &CR.Snaps[Resume / CR.Stride];
      assert((!Dense || Dense->Steps <= Resume) &&
             "snapshot stride invariant violated");
      if (Dense && Dense->Steps > BaseAt) {
        Base = Dense->S;
        BaseAt = Dense->Steps;
        BaseLen = Dense->TraceLen;
      } else if (!HaveBase) {
        // The block's injection state, the one place the resume mode
        // matters: Replay re-executes the reference prefix from step 0.
        if (Opts.Resume == ResumeMode::Replay) {
          Base = Initial;
          BaseLen = 0;
          E.runContinuation(Base, /*ExitAddr=*/0, Snap.Steps, Config.Policy,
                            CountOutputs);
        } else {
          Base = Snap.S;
          BaseLen = Snap.TraceLen;
        }
      }
      HaveBase = true;
      if (Resume != BaseAt) {
        E.runContinuation(Base, /*ExitAddr=*/0, Resume - BaseAt, Config.Policy,
                          CountOutputs);
        BaseAt = Resume;
      }

      unsigned N = 0;
      auto Flush = [&] {
        if (!N)
          return;
        if (!SC)
          SC.emplace();
        RunGroup(BR, *SC, Group.data(), N, Base, Resume, BaseLen);
        N = 0;
      };
      for (; P != Pool.size() && Pool[P].Resume == Resume; ++P) {
        const FaultSite &Site = Tasks[Pool[P].Task].Site;
        if (!UseLanes ||
            (Site.K == FaultSite::Kind::Register && Site.R.isPC())) {
          RunScalar(BR, Pool[P], Base, Resume, BaseLen);
          continue;
        }
        Group[N++] = &Pool[P];
        if (N == LaneGroupWidth)
          Flush();
      }
      Flush();
    }
    return Blk.End - Blk.Begin;
  };

  R.Stats.ThreadsUsed =
      dispatchTasks(Opts.Threads, Blocks.size(), Tasks.size(), RunBlock, Opts);

  // Deterministic merge in block order: counters sum (order-independent),
  // violations keep enumeration order, the window maximum commutes.
  ConvergenceSums Conv;
  for (BlockResult &BR : Results) {
    R.Table.merge(BR.Table);
    std::sort(BR.Violations.begin(), BR.Violations.end());
    for (auto &[Task, Text] : BR.Violations) {
      R.Ok = false;
      if (R.Violations.size() < Config.MaxViolations)
        R.Violations.push_back(std::move(Text));
    }
    R.Recovery.merge(BR.Recovery);
    Conv.merge(BR.Convergence);
    R.Stats.LaneGroups += BR.LaneGroups;
    R.Stats.LaneTasks += BR.LaneTasks;
    R.Stats.LaneDeviations += BR.LaneDeviations;
    R.Stats.LaneLockstepSteps += BR.LaneSteps;
  }
  R.Stats.EarlyExits = Conv.EarlyExits;
  R.Stats.WindowSum = Conv.WindowSum;
  R.Stats.MaxWindow = Conv.MaxWindow;
  R.Stats.StepsSaved = Conv.StepsSaved;
  R.Stats.LockstepSkips = Conv.LockstepSkips;
  R.Stats.LockstepSteps = Conv.LockstepSteps;
  Provenance.finish(R.Stats);
}

} // namespace

CampaignResult talft::runFaultToleranceCampaign(TypeContext &TC,
                                                const CheckedProgram &CP,
                                                const TheoremConfig &ConfigIn,
                                                const CampaignOptions &Opts) {
  // Without re-typing faulty states, the checked program's sweep is
  // exactly the raw-semantics sweep of its program.
  if (!ConfigIn.TypeCheckFaultyStates)
    return runSingleFaultCampaign(*CP.Prog, ConfigIn, Opts);

  SweepFrame F(*CP.Prog, ConfigIn, Opts);
  CampaignResult &R = F.R;
  const TheoremConfig &Config = F.Config;
  if (Config.Recovery.Enabled)
    return F.fail("recovery cannot be combined with TypeCheckFaultyStates: "
                  "rollback replays run on the raw semantics");

  // Phase 1 (serial): the reference execution, keeping a full TrackedRun
  // snapshot (state plus closing substitution) at every injection step.
  Clock::time_point RefStart = Clock::now();
  uint64_t Stride = std::max<uint64_t>(1, Config.InjectionStride);
  TrackedRun Run(TC, CP, Config.Policy);
  if (Error E = Run.start())
    return F.fail("cannot start: " + E.message());
  std::vector<TrackedRun::Snapshot> Snaps;
  Snaps.push_back(Run.snapshot()); // Step 0 is always an injection point.
  while (!Run.atExitBlock()) {
    if (Run.steps() >= Config.MaxSteps)
      return F.fail("reference run exceeded MaxSteps");
    StepResult SR = Run.stepOnce();
    if (SR.Status != StepStatus::Ok)
      return F.fail(formatv("reference run failed at step %llu (%s)",
                            (unsigned long long)Run.steps(),
                            SR.Status == StepStatus::Stuck ? "stuck"
                                                           : "false positive"));
    if (Run.steps() % Stride == 0)
      Snaps.push_back(Run.snapshot());
  }
  TrackedRun::Snapshot RefFinal = Run.snapshot();
  R.ReferenceSteps = RefFinal.Steps;
  R.ReferenceTrace = RefFinal.Trace;
  // Shard 0 alone carries the reference run's CFI tallies, as in
  // SweepReference::runShard, so the shards fold to the whole sweep's.
  if (F.Cfi && Opts.ShardIndex != 0)
    F.Cfi->resetCounters();

  R.ProgramHash = programContentHash(CP.Prog->code(), CP.Prog->entryAddress(),
                                     CP.Prog->exitAddress(), Snaps[0].S);
  auto StateAt = [&](size_t SI) -> const MachineState & {
    return Snaps[SI].S;
  };
  std::optional<std::vector<InjectionTask>> Tasks = sliceTasks(
      countTasks(*CP.Prog, Config, Opts, Snaps.size(), StateAt, nullptr),
      Config, Opts, StateAt, R);
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  if (!Tasks)
    return F.finish();

  // Phase 3 (serial): every continuation re-checks ⊢Z S through the
  // shared TypeContext, which TrackedRun owns, so typed campaigns always
  // run on the reference semantics.
  Clock::time_point InjectStart = Clock::now();
  R.Stats.Engine = referenceEngine().name();
  R.Stats.ThreadsUsed = 1;
  uint64_t Done = 0;
  for (const InjectionTask &T : *Tasks) {
    const TrackedRun::Snapshot *At = &Snaps[T.SnapIdx];
    TrackedRun::Snapshot Replayed;
    if (Opts.Resume == ResumeMode::Replay) {
      // Rebuild the snapshot by re-executing the reference prefix.
      TrackedRun Fresh(TC, CP, Config.Policy);
      if (Error E = Fresh.start())
        return F.fail("cannot start: " + E.message());
      while (Fresh.steps() < At->Steps)
        Fresh.stepOnce();
      Replayed = Fresh.snapshot();
      At = &Replayed;
    }
    TypedOutcome O = runTypedInjection(Config, Run, *At, T.Site, T.Value,
                                       RefFinal, RefFinal.Trace);
    R.Table[O.V] += 1;
    R.StatesTypechecked += O.Typechecked;
    if (!isBenign(O.V))
      F.addViolation(std::move(O.Detail));
    ++Done;
    if (Opts.Progress && Opts.ProgressInterval &&
        (Done % Opts.ProgressInterval == 0 || Done == Tasks->size()))
      Opts.Progress({Done, Tasks->size()});
  }

  if (Opts.ShardRetiredHook)
    Opts.ShardRetiredHook(R.Stats.ShardIndex, R.Stats.ShardCount);
  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond = (double)Tasks->size() / R.Stats.WallSeconds;
  return F.finish();
}

/// The recording behind a SweepReference. Everything here but Charged is
/// written once, by the constructor, and read by any number of shards
/// after.
struct SweepReference::Impl {
  const Program &Prog;
  /// The sweep's configuration; Policy.Cfi points at Cfi.
  TheoremConfig Config;
  /// The static target sets under CfiCheck. Its counters hold the
  /// reference run's tallies; each shard counts on a fresh copy.
  std::unique_ptr<CfiTable> Cfi;
  /// The result fields the reference decides: the program hash, the
  /// reference steps and trace, and Ok with the violation when the
  /// reference run failed (Recorded false), which every shard returns.
  CampaignResult Head;
  bool Recorded = false;
  MachineState Initial;
  /// The injection snapshots, every InjectionStride steps from step 0.
  std::vector<UntypedSnapshot> Snaps;
  MachineState Final;
  ConvergenceRecorder CR;
  TaskCounts Counts;
  /// Wall seconds of the recording, and whether a shard has reported them.
  double Seconds = 0;
  mutable std::atomic<bool> Charged{false};

  Impl(const Program &Prog, const TheoremConfig &ConfigIn,
       const CampaignOptions &Opts)
      : Prog(Prog), Config(ConfigIn), Cfi(buildCfiTable(Prog, Opts)) {
    Clock::time_point Start = Clock::now();
    if (Cfi)
      Config.Policy.Cfi = Cfi.get();
    Recorded = record(Opts);
    Seconds = secondsSince(Start);
  }

  /// Phase 1 (serial): the reference execution on the raw semantics,
  /// snapshotting every injection step — the same loop shape as the typed
  /// campaign's, so the violation wording matches — then the task counts.
  /// Returns false with the failure in Head.
  bool record(const CampaignOptions &Opts) {
    auto Fail = [&](std::string V) {
      Head.Ok = false;
      if (Head.Violations.size() < Config.MaxViolations)
        Head.Violations.push_back(std::move(V));
      return false;
    };
    if (Config.TypeCheckFaultyStates)
      return Fail("the raw-semantics sweep cannot re-typecheck faulty "
                  "states; use runFaultToleranceCampaign on a checked "
                  "program");
    uint64_t Stride = std::max<uint64_t>(1, Config.InjectionStride);
    const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();

    Expected<MachineState> S0 = Prog.initialState();
    if (Error Err = S0.takeError())
      return Fail("cannot start: " + Err.message());
    Initial = *S0;
    MachineState S = Initial;
    Addr ExitAddr = Prog.exitAddress();
    Head.ProgramHash =
        programContentHash(Prog.code(), Prog.entryAddress(), ExitAddr, S);
    OutputTrace Trace;
    uint64_t Steps = 0;
    CR.Enabled = !Config.Recovery.Enabled && Opts.Converge;
    if (CR.Enabled) {
      // Size the recording from a fused fault-free run, without the CFI
      // hook so that the CFI tallies count the recorded run alone. Halted
      // or not, the recording stops where this run did.
      MachineState Pre = S;
      StepPolicy Unchecked = Config.Policy;
      Unchecked.Cfi = nullptr;
      CR.sizeFor(E.run(Pre, ExitAddr, Config.MaxSteps, Unchecked).Steps);
    }
    int64_t LastCtrl = -1;
    Snaps.push_back({S, 0, 0}); // Step 0 is always an injection point.
    uint64_t UntilInjection = Stride;
    CR.start(S);
    while (!atExit(S, ExitAddr)) {
      if (Steps >= Config.MaxSteps)
        return Fail("reference run exceeded MaxSteps");
      if (S.IR && S.IR->isControlFlow())
        LastCtrl = (int64_t)Steps;
      CR.beforeStep(S, Steps + 1);
      StepResult SR = E.step(S, Config.Policy);
      ++Steps;
      if (SR.Output)
        Trace.push_back(*SR.Output);
      if (SR.Status != StepStatus::Ok)
        return Fail(formatv("reference run failed at step %llu (%s)",
                            (unsigned long long)Steps,
                            SR.Status == StepStatus::Stuck ? "stuck"
                                                           : "false positive"));
      CR.afterStep(S, Steps, Trace.size());
      if (--UntilInjection == 0) {
        UntilInjection = Stride;
        Snaps.push_back({S, Steps, Trace.size()});
      }
    }
    Head.ReferenceSteps = Steps;
    Head.ReferenceTrace = std::move(Trace);
    Final = std::move(S);
    CR.link(Snaps, Final);

    std::vector<uint8_t> CtrlAhead(Snaps.size());
    for (size_t I = 0; I != Snaps.size(); ++I)
      CtrlAhead[I] = LastCtrl >= 0 && (uint64_t)LastCtrl >= Snaps[I].Steps;
    Counts = countTasks(
        Prog, Config, Opts, Snaps.size(),
        [&](size_t SI) -> const MachineState & { return Snaps[SI].S; },
        &CtrlAhead);
    return true;
  }
};

SweepReference::SweepReference(const Program &Prog,
                               const TheoremConfig &Config,
                               const CampaignOptions &Opts)
    : P(std::make_unique<Impl>(Prog, Config, Opts)) {}

SweepReference::~SweepReference() = default;

CampaignResult SweepReference::runShard(const CampaignOptions &Opts) const {
  const Impl &Ref = *P;
  CampaignResult R = Ref.Head;
  R.Stats.Engine = (Opts.Engine ? *Opts.Engine : referenceEngine()).name();
  std::unique_ptr<CfiTable> Cfi =
      Ref.Cfi ? Ref.Cfi->withFreshCounters() : nullptr;
  // The CFI tallies are the shard's own. Shard 0 alone adds the reference
  // run's ahead of them, as it alone carries the static tallies, so the
  // shards fold to the unsharded campaign's.
  auto Finish = [&] {
    if (Cfi) {
      R.Stats.CfiChecked = true;
      R.Stats.CfiCommits = Cfi->commits();
      R.Stats.CfiViolations = Cfi->violations();
      R.CfiFirstViolation = Cfi->firstViolation();
      if (Opts.ShardIndex == 0) {
        R.Stats.CfiCommits += Ref.Cfi->commits();
        R.Stats.CfiViolations += Ref.Cfi->violations();
        if (Ref.Cfi->violations())
          R.CfiFirstViolation = Ref.Cfi->firstViolation();
      }
    }
    return std::move(R);
  };
  if (!Ref.Recorded)
    return Finish();

  TheoremConfig Config = Ref.Config;
  Config.Policy.Cfi = Cfi.get();
  Clock::time_point SliceStart = Clock::now();
  std::optional<std::vector<InjectionTask>> Tasks = sliceTasks(
      Ref.Counts, Config, Opts,
      [&](size_t SI) -> const MachineState & { return Ref.Snaps[SI].S; }, R);
  R.Stats.ReferenceSeconds = secondsSince(SliceStart);
  if (!Ref.Charged.exchange(true))
    R.Stats.ReferenceSeconds += Ref.Seconds;
  if (!Tasks)
    return Finish();

  Clock::time_point InjectStart = Clock::now();
  classifyUntypedTasks(Ref.Prog, Config, Opts, *Tasks, Ref.Snaps, Ref.Initial,
                       Ref.Head.ReferenceTrace, Ref.Final,
                       Ref.Head.ReferenceSteps, Ref.CR, R);
  if (Opts.ShardRetiredHook)
    Opts.ShardRetiredHook(R.Stats.ShardIndex, R.Stats.ShardCount);
  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond = (double)Tasks->size() / R.Stats.WallSeconds;
  return Finish();
}

CampaignResult talft::runSingleFaultCampaign(const Program &Prog,
                                             const TheoremConfig &Config,
                                             const CampaignOptions &Opts) {
  return SweepReference(Prog, Config, Opts).runShard(Opts);
}

namespace {

/// Classifies one explicit injection plan on the raw semantics via \p E.
Verdict classifyPlan(const ExecEngine &E, const Program &Prog,
                     const StepPolicy &Policy, uint64_t ExtraSteps,
                     const OutputTrace &RefTrace, const MachineState &RefFinal,
                     uint64_t RefSteps, MachineState S,
                     const InjectionPlan &Plan) {
  PrefixTracker Prefix{RefTrace, 0};
  ExecEngine::OutputSink Track = [&Prefix](const QueueEntry &Out) {
    Prefix.track(Out);
  };

  uint64_t Now = 0;
  std::optional<Color> ZapColor;
  bool MixedColors = false;
  for (const InjectionPoint &P : Plan) {
    assert(P.Step >= Now && "injection plan must be step-ordered");
    // No exit address: the reference prefix up to the injection step runs
    // out of budget unless a previous fault is detected or sticks first.
    ExecEngine::ContinuationResult C =
        E.runContinuation(S, /*ExitAddr=*/0, P.Step - Now, Policy, Track);
    Now += C.Steps;
    if (C.Status != RunStatus::OutOfSteps)
      return verdictForStatus(C.Status, Prefix, RefTrace, std::nullopt, S,
                              RefFinal);
    Color Col = faultColor(S, P.Site);
    if (ZapColor && *ZapColor != Col)
      MixedColors = true;
    ZapColor = Col;
    injectFault(S, P.Site, P.Value);
  }

  uint64_t Budget = (RefSteps > Now ? RefSteps - Now : 0) + ExtraSteps;
  RunStatus St =
      E.runContinuation(S, Prog.exitAddress(), Budget, Policy, Track).Status;
  std::optional<ZapTag> Z;
  if (ZapColor && !MixedColors)
    Z = ZapTag::color(*ZapColor);
  return verdictForStatus(St, Prefix, RefTrace, Z, S, RefFinal);
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
  EngineProvenance Provenance(E, R.Stats);

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
  std::vector<uint8_t> Verdicts(Spec.Plans.size(), 0);
  auto RunOne = [&](uint64_t I) -> uint64_t {
    Verdicts[I] = (uint8_t)classifyPlan(E, *Spec.Prog, Spec.Policy,
                                        Spec.ExtraSteps, RefRun.Trace, Final,
                                        RefRun.Steps, *S0, Spec.Plans[I]);
    return 1;
  };
  R.Stats.ThreadsUsed = dispatchTasks(Opts.Threads, Spec.Plans.size(),
                                      Spec.Plans.size(), RunOne, Opts);

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
  Provenance.finish(R.Stats);
  return R;
}
