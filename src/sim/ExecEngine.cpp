//===- sim/ExecEngine.cpp -------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "sim/ExecEngine.h"

using namespace talft;

RunResult ExecEngine::run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                          const StepPolicy &Policy) const {
  RunResult R;
  ContinuationResult C =
      runContinuation(S, ExitAddr, MaxSteps, Policy,
                      [&R](const QueueEntry &Out) { R.Trace.push_back(Out); });
  R.Steps = C.Steps;
  // talft::run checks the budget first: arriving at the exit with the
  // budget spent is running out of steps, not halting.
  R.Status = C.Status == RunStatus::Halted && C.Steps == MaxSteps
                 ? RunStatus::OutOfSteps
                 : C.Status;
  return R;
}

namespace {

/// Wraps the structural interpreter's step function in the continuation
/// loop's check order (exit, then budget, then step).
class ReferenceEngine final : public ExecEngine {
public:
  const char *name() const override { return "reference"; }

  StepResult step(MachineState &S, const StepPolicy &Policy) const override {
    return talft::step(S, Policy);
  }

  ContinuationResult runContinuation(MachineState &S, Addr ExitAddr,
                                     uint64_t Budget, const StepPolicy &Policy,
                                     const OutputSink &OnOutput) const override {
    ContinuationResult C;
    auto Stop = [&C](RunStatus St) {
      C.Status = St;
      return C;
    };
    while (true) {
      if (atExit(S, ExitAddr))
        return Stop(RunStatus::Halted);
      if (C.Steps >= Budget)
        return Stop(RunStatus::OutOfSteps);
      StepResult SR = talft::step(S, Policy);
      if (SR.Status == StepStatus::Stuck)
        return Stop(RunStatus::Stuck);
      ++C.Steps;
      if (SR.Output && OnOutput)
        OnOutput(*SR.Output);
      if (SR.Status == StepStatus::Fault)
        return Stop(RunStatus::FaultDetected);
    }
  }
};

} // namespace

const ExecEngine &talft::referenceEngine() {
  static const ReferenceEngine Engine;
  return Engine;
}
