//===- vm/LaneEngine.h - Batched lockstep lane execution ------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched lane engine: advances a group of faulty continuations — all
/// resumed from the same reference step, so they start under the same
/// program counters with the same step budget — in lockstep through one
/// decoded micro-op stream. Each fetch (boundary check, array lookup,
/// budget arithmetic) is paid once per group instead of once per
/// continuation, and the ALU families run row-at-a-time over the SoA
/// register bank (LaneState, LaneSimd.h).
///
/// Lanes leave the group individually, the moment their fate is known:
///
///   - a lane whose program counters diverge from the group pc (a fault
///     steered its control flow, or corrupted a pc outright) is masked off
///     and finished on the embedded scalar vm::Engine with the remaining
///     budget — the scalar boundary checks are idempotent, so the handoff
///     is exact;
///   - a lane that trips a cross-check (stB mismatch, jmp/bz guard, wild
///     load under Trap) retires as FaultDetected in place.
///
/// Every lane ends with exactly the RunStatus, output trace, step
/// accounting and final MachineState its own scalar runContinuation would
/// have produced: the group loop replicates the scalar boundary order
/// (exit check, budget, pc agreement, fetch) — verdict
/// tables built on top of lane groups are bit-identical to unbatched runs.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_LANEENGINE_H
#define TALFT_VM_LANEENGINE_H

#include "sim/LaneGroup.h"
#include "vm/Engine.h"

namespace talft::vm {

class LaneState;

/// The lockstep group executor. Immutable after construction and safe to
/// share across campaign workers; all mutable state lives in the caller's
/// MachineStates and the per-call LaneState.
class LaneEngine {
public:
  explicit LaneEngine(const CodeMemory &Code) : Scalar(Code) {}

  /// The embedded scalar engine deviating lanes fall back to.
  const Engine &scalar() const { return Scalar; }

  /// Runs \p N lanes to completion. \p States are the injected
  /// continuations: ordinary (non-fault) states bound to this engine's
  /// code memory, resumed from one reference step — they share program
  /// counter payloads and in-flight instruction register contents (both
  /// asserted in debug builds; single faults on non-pc registers, memory
  /// and queue cells never break either). On return States[L] holds lane
  /// L's final state and the Spec's output sink has seen its outputs,
  /// exactly as if each lane had run alone through
  /// Engine::runContinuation(States[L], Spec.ExitAddr, Spec.Budget, ...).
  void run(MachineState *States, unsigned N, const LaneGroupSpec &Spec,
           LaneOutcome *Out) const;

  /// Same, reusing the caller's \p Scratch (width >= N, no active lanes):
  /// campaigns running hundreds of small groups per block amortize the
  /// lane-bank allocation across them instead of paying it per group.
  void run(MachineState *States, unsigned N, const LaneGroupSpec &Spec,
           LaneOutcome *Out, LaneState &Scratch) const;

private:
  Engine Scalar;
};

} // namespace talft::vm

#endif // TALFT_VM_LANEENGINE_H
