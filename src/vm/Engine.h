//===- vm/Engine.h - The decoded fast-path execution engine ---------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM engine: executes the small-step semantics over a DecodedProgram
/// with a tight fetch/dispatch loop instead of re-interpreting the
/// structural AST each transition. It is observationally bit-identical to
/// the reference interpreter — same traces, statuses, step counts, rule
/// names and final MachineStates (including the materialized instruction
/// register when a budget expires between a fetch and its execution) — and
/// handles every state the fault model can produce: corrupted program
/// counters fetch-fail or get stuck exactly like the reference, and a state
/// whose instruction register was fetched before a pc-corrupting fault
/// executes that fetched instruction, not the one now under the pc.
///
/// The engine is immutable after construction and safe to share across
/// threads; all mutable execution state lives in the caller's MachineState.
/// It is bound to one CodeMemory — executing a state that references a
/// different code memory is undefined (asserted in debug builds).
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_ENGINE_H
#define TALFT_VM_ENGINE_H

#include "sim/ExecEngine.h"
#include "vm/Decode.h"

#include <memory>

namespace talft::vm {

/// The decoded-program engine.
class Engine final : public ExecEngine {
public:
  explicit Engine(const CodeMemory &Code) : P(Code) {}

  const DecodedProgram &program() const { return P; }

  const char *name() const override { return "vm"; }
  StepResult step(MachineState &S, const StepPolicy &Policy) const override;
  RunResult run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                const StepPolicy &Policy) const override;
  ReplayResult replaySteps(MachineState &S, uint64_t NSteps,
                           OutputTrace &Trace,
                           const StepPolicy &Policy) const override;
  RunStatus runContinuation(MachineState &S, Addr ExitAddr, uint64_t Budget,
                            const StepPolicy &Policy,
                            const OutputSink &OnOutput) const override;

private:
  DecodedProgram P;
};

/// Convenience factory: decodes \p Code and returns the engine as an
/// ExecEngine handle. \p Code must outlive the engine.
std::unique_ptr<ExecEngine> createEngine(const CodeMemory &Code);

} // namespace talft::vm

#endif // TALFT_VM_ENGINE_H
