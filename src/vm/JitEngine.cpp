//===- vm/JitEngine.cpp - The native x86-64 execution tier ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver half of the JIT tier: one run loop, runContinuation, that
/// mirrors the vm engine's — the same boundary check order, the same step
/// accounting, the same mid-instruction budget handling — with one
/// addition: at a clean fetch boundary whose pc has a native template and
/// at least two budget steps left, control enters the emitted code and
/// stays there until a boundary needs driver attention. Single transitions
/// (inherited instruction registers, odd budget tails, the rare
/// untemplated op) go through the embedded vm engine's step(), so rule
/// names and mid-instruction states are inherited, not re-derived. Native
/// code keeps the program counters implicit and writes them back only when
/// it returns (see JitEmitter.h), so the driver reads materialized pcs at
/// every boundary; nothing outside native code may observe the state
/// mid-run, and the output sink does not.
///
//===----------------------------------------------------------------------===//

#include "vm/JitEngine.h"

#include <cassert>

using namespace talft;
using namespace talft::vm;

std::unique_ptr<ExecEngine> vm::createJitEngine(const CodeMemory &Code) {
  return std::make_unique<JitEngine>(Code);
}

namespace {

void sinkOutput(JitFrame *F, int64_t Address, int64_t Val) {
  const auto &Sink = *static_cast<const ExecEngine::OutputSink *>(F->OutCtx);
  if (Sink)
    Sink(QueueEntry{Address, Val});
}

} // namespace

JitEngine::NativeExit JitEngine::enterNative(MachineState &S,
                                             const StepPolicy &Policy,
                                             Addr ExitAddr, uint64_t Avail,
                                             const OutputSink &OnOutput,
                                             const uint8_t *Body) const {
  assert(Avail >= 2 && "the driver pre-claims the entry instruction");
  JitFrame F;
  F.Cells = S.Regs.rawCells();
  F.Remaining = Avail - 2; // the entry instruction's fetch + execute
  F.ExitAddr = ExitAddr;
  F.Entries = Jit->entryTable();
  F.S = &S;
  F.Policy = &Policy;
  F.Out = &sinkOutput;
  F.OutCtx = &OnOutput;

  uint64_t Reason = Jit->enter(&F, Body);
  SideExits.fetch_add(1, std::memory_order_relaxed);

  NativeExit NE;
  NE.Taken = Avail - F.Remaining;
  if (Reason == JitExitFault) {
    // The faulting rule's fetch and execute transitions were both claimed
    // at its boundary, matching the scalar engines' counting.
    NE.Fault = true;
    S = MachineState::faultState();
  }
  return NE;
}

StepResult JitEngine::step(MachineState &S, const StepPolicy &Policy) const {
  return Fallback.step(S, Policy);
}

ExecEngine::ContinuationResult
JitEngine::runContinuation(MachineState &S, Addr ExitAddr, uint64_t Budget,
                           const StepPolicy &Policy,
                           const OutputSink &OnOutput) const {
  if (!Jit || Policy.Cfi)
    return Fallback.runContinuation(S, ExitAddr, Budget, Policy, OnOutput);
  assert(S.Code == &program().code() && "state executed on a foreign engine");
  const DecodedProgram &P = program();
  ContinuationResult C;
  auto Stop = [&C](RunStatus St) {
    C.Status = St;
    return C;
  };
  while (true) {
    if (S.IR) {
      // An instruction in flight (inherited, or fetched below) executes
      // on the vm engine; with no budget left it stays materialized.
      if (C.Steps >= Budget)
        return Stop(RunStatus::OutOfSteps);
      StepResult SR = Fallback.step(S, Policy);
      ++C.Steps;
      if (SR.Status == StepStatus::Fault)
        return Stop(RunStatus::FaultDetected);
      if (SR.Output && OnOutput)
        OnOutput(*SR.Output);
      continue;
    }
    Value PcG = S.pcG(), PcB = S.pcB();
    if (ExitAddr != 0 && PcG.N == ExitAddr && PcB.N == ExitAddr)
      return Stop(RunStatus::Halted);
    if (C.Steps >= Budget)
      return Stop(RunStatus::OutOfSteps);
    if (PcG.N != PcB.N) {
      S = MachineState::faultState();
      ++C.Steps;
      return Stop(RunStatus::FaultDetected);
    }
    if (!P.contains(PcG.N))
      return Stop(RunStatus::Stuck);
    uint64_t Avail = Budget - C.Steps;
    if (const uint8_t *Body = Avail >= 2 ? bodyFor(PcG.N) : nullptr) {
      NativeExit NE = enterNative(S, Policy, ExitAddr, Avail, OnOutput, Body);
      C.Steps += NE.Taken;
      if (NE.Fault)
        return Stop(RunStatus::FaultDetected);
      continue;
    }
    // Untemplated op or a 1-step tail: fetch here, execute on the next
    // iteration.
    S.IR = P.inst(PcG.N);
    ++C.Steps;
  }
}
