//===- sim/Step.h - Small-step operational semantics (Figures 2-4, A.1) ---===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-step transition S1 -(s,k)-> S2 of the TALFT machine,
/// restricted to the k=0 (non-faulty) transitions; the k=1 fault
/// transitions (reg-zap, Q-zap1, Q-zap2) live in fault/FaultInjector.h.
///
/// The machine alternates instruction fetch (when the instruction register
/// is empty) with instruction execution. The only externally observable
/// behavior is the sequence s of (address, value) pairs written to memory
/// (a memory-mapped output device reads them) and the signaling of a
/// hardware-detected fault.
///
/// Two of the rules — a wild load's ldG-rand / ldB-rand vs. ldG-fail /
/// ldB-fail — are genuinely nondeterministic in the paper (a load from an
/// invalid address may trap like a segmentation fault or return garbage);
/// StepPolicy selects which rule the simulator fires.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SIM_STEP_H
#define TALFT_SIM_STEP_H

#include "isa/MachineState.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace talft {

/// Outcome classification of one step.
enum class StepStatus : uint8_t {
  /// Stepped to an ordinary state.
  Ok,
  /// Stepped to the distinguished `fault` state (hardware detection).
  Fault,
  /// No rule fires (well-typed programs never get stuck, even with one
  /// fault — Theorem 1).
  Stuck,
};

/// Behavior of loads from addresses outside Dom(M).
enum class WildLoadPolicy : uint8_t {
  /// Fire ldG-fail / ldB-fail: trap to the fault state.
  Trap,
  /// Fire ldG-rand / ldB-rand: load an arbitrary value.
  Garbage,
};

/// Runtime CFI validation of committed control transfers against a static
/// target-set analysis. Record-only: engines consult the table on every
/// jmpB / taken bzB *after* the commit's cross-check passes and count the
/// transfer, but never alter execution, so verdict tables stay
/// bit-identical with and without checking.
///
/// A single zap can corrupt one pc after fetch while the commit (which
/// compares d against Rd, not the pcs) still succeeds and overwrites both
/// pcs with the verified target. The committing instruction's address is
/// therefore taken from *either* pc: a transfer is a violation only when
/// neither pc names a site that allows the target and at least one pc
/// names a known commit site — anything weaker would report analysis bugs
/// that are really pc corruption, anything stronger would miss real ones.
///
/// Thread-safe: campaigns share one table across worker threads.
class CfiTable {
public:
  CfiTable(Addr Base, size_t NumInsts)
      : Base(Base), Checked(NumInsts, 0), Allowed(NumInsts) {}

  /// Declares the static target set of the commit at \p A (sorted or not;
  /// stored sorted).
  void setAllowed(Addr A, std::vector<int64_t> Targets) {
    std::sort(Targets.begin(), Targets.end());
    size_t I = (size_t)(A - Base);
    Checked[I] = 1;
    Allowed[I] = std::move(Targets);
  }

  /// True when \p A is a declared commit site whose set admits \p Target.
  bool allows(int64_t A, int64_t Target) const {
    size_t I = index(A);
    if (I == Npos || !Checked[I])
      return false;
    const std::vector<int64_t> &T = Allowed[I];
    return std::binary_search(T.begin(), T.end(), Target);
  }

  /// A table with the same target sets and zeroed counters, for a run
  /// that reports its own tallies.
  std::unique_ptr<CfiTable> withFreshCounters() const {
    auto T = std::make_unique<CfiTable>(Base, Checked.size());
    T->Checked = Checked;
    T->Allowed = Allowed;
    return T;
  }

  /// True when \p A is a declared commit site.
  bool isCommitSite(int64_t A) const {
    size_t I = index(A);
    return I != Npos && Checked[I];
  }

  /// Records one committed transfer to \p Target from the instruction the
  /// pcs name (they may disagree by one zap). Returns true on violation.
  bool recordCommit(int64_t PcG, int64_t PcB, int64_t Target) const {
    Commits.fetch_add(1, std::memory_order_relaxed);
    if (allows(PcG, Target) || allows(PcB, Target))
      return false;
    if (!isCommitSite(PcG) && !isCommitSite(PcB))
      return false; // Both sites corrupted away from any commit: no claim.
    Violations.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(FirstMutex);
    if (First.empty())
      First = "commit at pcG=" + std::to_string(PcG) +
              " pcB=" + std::to_string(PcB) + " to target " +
              std::to_string(Target) + " outside the static set";
    return true;
  }

  /// Zeroes the counters, so that they count only the runs that follow.
  void resetCounters() {
    Commits.store(0, std::memory_order_relaxed);
    Violations.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(FirstMutex);
    First.clear();
  }

  uint64_t commits() const { return Commits.load(std::memory_order_relaxed); }
  uint64_t violations() const {
    return Violations.load(std::memory_order_relaxed);
  }
  /// Description of the first violation (empty when none).
  std::string firstViolation() const {
    std::lock_guard<std::mutex> Lock(FirstMutex);
    return First;
  }

private:
  static constexpr size_t Npos = (size_t)-1;

  size_t index(int64_t A) const {
    if (A < (int64_t)Base || (uint64_t)(A - (int64_t)Base) >= Checked.size())
      return Npos;
    return (size_t)(A - (int64_t)Base);
  }

  Addr Base = 1;
  std::vector<uint8_t> Checked;
  std::vector<std::vector<int64_t>> Allowed;
  mutable std::atomic<uint64_t> Commits{0};
  mutable std::atomic<uint64_t> Violations{0};
  mutable std::mutex FirstMutex;
  mutable std::string First;
};

/// Configuration for the nondeterministic rules.
struct StepPolicy {
  WildLoadPolicy WildLoad = WildLoadPolicy::Trap;
  /// The "arbitrary" value a Garbage wild load produces.
  int64_t GarbageValue = 0xDEAD;
  /// When set, committed transfers are validated (record-only) against
  /// this table. A pointer keeps StepPolicy copyable and cheap.
  const CfiTable *Cfi = nullptr;
};

/// The result of one transition.
struct StepResult {
  StepStatus Status = StepStatus::Ok;
  /// The observable output s of this step: empty, or one committed store.
  std::optional<QueueEntry> Output;
  /// The name of the operational rule that fired (e.g. "stB-mem"),
  /// matching the paper's rule names; null only for Stuck.
  const char *Rule = nullptr;
};

/// Performs one non-faulty transition in place. \p S must not already be
/// the fault state. On StepStatus::Fault, \p S becomes the fault state.
StepResult step(MachineState &S, const StepPolicy &Policy = StepPolicy());

} // namespace talft

#endif // TALFT_SIM_STEP_H
