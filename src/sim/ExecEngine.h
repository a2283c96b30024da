//===- sim/ExecEngine.h - Pluggable execution engines ---------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ExecEngine is one implementation of the TALFT operational semantics:
/// given a MachineState it performs the same transitions, produces the same
/// outputs and stops for the same reasons as the structural interpreter in
/// sim/Step.cpp. Engines exist so the fault-injection campaign can swap its
/// replay substrate (the scaling bottleneck of the Theorem 4 sweep) without
/// changing a single verdict: every engine is required to be observationally
/// bit-identical to the reference — same OutputTrace, same RunStatus, same
/// step counts, same StepPolicy handling — on every state, including the
/// corrupted mid-instruction states the fault model produces.
///
/// Two implementations ship:
///   - referenceEngine(): the structural small-step interpreter (Step.cpp),
///     stateless, valid for any program;
///   - vm::createEngine() (vm/Engine.h): a pre-decoded micro-op engine bound
///     to one CodeMemory, roughly an order of magnitude faster per step.
///
/// The checkpoint/rollback layer (recover/RecoveringEngine.h) composes on
/// top of this interface: it drives any engine through step() and turns the
/// fail-stop detections engines report into rollback-and-replay. Because it
/// only observes the engine-independent step contract, the layer inherits
/// the bit-identical-verdicts guarantee for free.
///
/// Engines are immutable after construction and safe to share across the
/// campaign's worker threads: all execution state lives in the MachineState
/// the caller passes in.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SIM_EXECENGINE_H
#define TALFT_SIM_EXECENGINE_H

#include "sim/Machine.h"

#include <functional>

namespace talft {

/// A pluggable implementation of the small-step semantics.
class ExecEngine {
public:
  /// Observer invoked for each committed store of a fused execution loop
  /// (the campaign classifier match-tracks outputs without materializing
  /// faulty traces).
  using OutputSink = std::function<void(const QueueEntry &)>;

  virtual ~ExecEngine() = default;

  /// Stable engine name ("reference", "vm") used in CLIs and JSON reports.
  virtual const char *name() const = 0;

  /// One transition of \p S; exactly talft::step.
  virtual StepResult step(MachineState &S, const StepPolicy &Policy) const = 0;

  /// Whole-run driver; exactly talft::run (budget checked before the exit
  /// condition, so a run that needs its full budget reports OutOfSteps).
  virtual RunResult run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                        const StepPolicy &Policy) const = 0;

  /// Exactly talft::replaySteps: \p NSteps transitions in place, stopping
  /// early only on fault/stuck, appending outputs to \p Trace.
  virtual ReplayResult replaySteps(MachineState &S, uint64_t NSteps,
                                   OutputTrace &Trace,
                                   const StepPolicy &Policy) const = 0;

  /// The faulty-continuation loop of the campaign classifier: checks the
  /// exit condition *before* the budget on every transition (unlike run),
  /// so a continuation arriving at the exit block with zero budget left
  /// still counts as Halted. Invokes \p OnOutput for each committed store.
  /// Returns Halted / FaultDetected / Stuck / OutOfSteps.
  virtual RunStatus runContinuation(MachineState &S, Addr ExitAddr,
                                    uint64_t Budget, const StepPolicy &Policy,
                                    const OutputSink &OnOutput) const = 0;
};

/// The structural small-step interpreter as an engine. Stateless; valid for
/// any program.
const ExecEngine &referenceEngine();

} // namespace talft

#endif // TALFT_SIM_EXECENGINE_H
