//===- vm/JitEngine.cpp - The native x86-64 execution tier ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver half of the JIT tier. Each public method mirrors the vm
/// engine's loop structure statement for statement — the same boundary
/// check order, the same step accounting, the same mid-instruction budget
/// handling — with one addition: at a clean fetch boundary whose pc has a
/// native template and at least two budget steps left, control enters the
/// emitted code and stays there until a boundary needs driver attention.
/// Single transitions (inherited instruction registers, odd budget tails,
/// the rare untemplated op) go through the embedded vm engine's step(), so
/// rule names and mid-instruction states are inherited, not re-derived.
/// Native code keeps the program counters implicit and writes them back
/// only when it returns (see JitEmitter.h), so the driver reads
/// materialized pcs at every boundary; nothing outside native code may
/// observe the state mid-run, and the output sinks below do not.
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

void traceSink(JitFrame *F, int64_t Address, int64_t Val) {
  static_cast<OutputTrace *>(F->OutCtx)->push_back(QueueEntry{Address, Val});
}

void onOutputSink(JitFrame *F, int64_t Address, int64_t Val) {
  const auto &Sink = *static_cast<const ExecEngine::OutputSink *>(F->OutCtx);
  if (Sink)
    Sink(QueueEntry{Address, Val});
}

} // namespace

JitEngine::NativeExit
JitEngine::enterNative(MachineState &S, const StepPolicy &Policy,
                       Addr ExitAddr, uint64_t Avail,
                       void (*OutFn)(JitFrame *, int64_t, int64_t),
                       void *OutCtx, const uint8_t *Body) const {
  assert(Avail >= 2 && "the driver pre-claims the entry instruction");
  JitFrame F;
  F.Cells = S.Regs.rawCells();
  F.Remaining = Avail - 2; // the entry instruction's fetch + execute
  F.ExitAddr = ExitAddr;
  F.Entries = Jit->entryTable();
  F.S = &S;
  F.Policy = &Policy;
  F.Out = OutFn;
  F.OutCtx = OutCtx;

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

RunResult JitEngine::run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                         const StepPolicy &Policy) const {
  if (!Jit || Policy.Cfi)
    return Fallback.run(S, ExitAddr, MaxSteps, Policy);
  assert(S.Code == &program().code() && "state executed on a foreign engine");
  const DecodedProgram &P = program();
  RunResult Res;
  while (true) {
    // talft::run checks the budget before the exit condition.
    if (Res.Steps >= MaxSteps) {
      Res.Status = RunStatus::OutOfSteps;
      return Res;
    }
    if (S.IR) {
      StepResult SR = Fallback.step(S, Policy);
      ++Res.Steps;
      if (SR.Status == StepStatus::Fault) {
        Res.Status = RunStatus::FaultDetected;
        return Res;
      }
      if (SR.Output)
        Res.Trace.push_back(*SR.Output);
      continue;
    }
    Value PcG = S.pcG(), PcB = S.pcB();
    if (ExitAddr != 0 && PcG.N == ExitAddr && PcB.N == ExitAddr) {
      Res.Status = RunStatus::Halted;
      return Res;
    }
    if (PcG.N != PcB.N) {
      S = MachineState::faultState();
      ++Res.Steps;
      Res.Status = RunStatus::FaultDetected;
      return Res;
    }
    if (!P.contains(PcG.N)) {
      Res.Status = RunStatus::Stuck;
      return Res;
    }
    uint64_t Avail = MaxSteps - Res.Steps;
    if (const uint8_t *Body = Avail >= 2 ? bodyFor(PcG.N) : nullptr) {
      NativeExit NE =
          enterNative(S, Policy, ExitAddr, Avail, &traceSink, &Res.Trace, Body);
      Res.Steps += NE.Taken;
      if (NE.Fault) {
        Res.Status = RunStatus::FaultDetected;
        return Res;
      }
      continue;
    }
    // Untemplated op or a 1-step tail: fetch here, execute on the next
    // loop iteration (which re-checks the budget with the IR in flight,
    // exactly like the vm loop's in-flight bookkeeping).
    S.IR = P.inst(PcG.N);
    ++Res.Steps;
  }
}

ReplayResult JitEngine::replaySteps(MachineState &S, uint64_t NSteps,
                                    OutputTrace &Trace,
                                    const StepPolicy &Policy) const {
  if (!Jit || Policy.Cfi)
    return Fallback.replaySteps(S, NSteps, Trace, Policy);
  assert(S.Code == &program().code() && "state executed on a foreign engine");
  const DecodedProgram &P = program();
  ReplayResult Res;
  while (Res.Taken < NSteps) {
    if (S.IR) {
      StepResult SR = Fallback.step(S, Policy);
      ++Res.Taken;
      if (SR.Status == StepStatus::Fault) {
        Res.Last = StepStatus::Fault;
        return Res;
      }
      if (SR.Output)
        Trace.push_back(*SR.Output);
      continue;
    }
    Value PcG = S.pcG(), PcB = S.pcB();
    if (PcG.N != PcB.N) {
      S = MachineState::faultState();
      ++Res.Taken;
      Res.Last = StepStatus::Fault;
      return Res;
    }
    if (!P.contains(PcG.N)) {
      Res.Last = StepStatus::Stuck;
      return Res;
    }
    uint64_t Avail = NSteps - Res.Taken;
    if (const uint8_t *Body = Avail >= 2 ? bodyFor(PcG.N) : nullptr) {
      NativeExit NE = enterNative(S, Policy, /*ExitAddr=*/0, Avail,
                                  &traceSink, &Trace, Body);
      Res.Taken += NE.Taken;
      if (NE.Fault) {
        Res.Last = StepStatus::Fault;
        return Res;
      }
      continue;
    }
    S.IR = P.inst(PcG.N);
    ++Res.Taken;
  }
  return Res;
}

RunStatus JitEngine::runContinuation(MachineState &S, Addr ExitAddr,
                                     uint64_t Budget,
                                     const StepPolicy &Policy,
                                     const OutputSink &OnOutput) const {
  if (!Jit || Policy.Cfi)
    return Fallback.runContinuation(S, ExitAddr, Budget, Policy, OnOutput);
  assert(S.Code == &program().code() && "state executed on a foreign engine");
  const DecodedProgram &P = program();
  uint64_t Taken = 0;
  if (S.IR) {
    // The classifier checks the budget before executing an inherited
    // in-flight instruction; with no budget the IR stays materialized.
    if (Taken >= Budget)
      return RunStatus::OutOfSteps;
    StepResult SR = Fallback.step(S, Policy);
    ++Taken;
    if (SR.Status == StepStatus::Fault)
      return RunStatus::FaultDetected;
    if (SR.Output && OnOutput)
      OnOutput(*SR.Output);
  }
  while (true) {
    Value PcG = S.pcG(), PcB = S.pcB();
    if (ExitAddr != 0 && PcG.N == ExitAddr && PcB.N == ExitAddr)
      return RunStatus::Halted;
    if (Taken >= Budget)
      return RunStatus::OutOfSteps;
    if (PcG.N != PcB.N) {
      S = MachineState::faultState();
      return RunStatus::FaultDetected;
    }
    if (!P.contains(PcG.N))
      return RunStatus::Stuck;
    uint64_t Avail = Budget - Taken;
    if (const uint8_t *Body = Avail >= 2 ? bodyFor(PcG.N) : nullptr) {
      NativeExit NE = enterNative(
          S, Policy, ExitAddr, Avail, &onOutputSink,
          const_cast<void *>(static_cast<const void *>(&OnOutput)), Body);
      Taken += NE.Taken;
      if (NE.Fault)
        return RunStatus::FaultDetected;
      continue;
    }
    S.IR = P.inst(PcG.N);
    ++Taken;
    if (Taken >= Budget)
      return RunStatus::OutOfSteps; // IR stays materialized, as in leave()
    StepResult SR = Fallback.step(S, Policy);
    ++Taken;
    if (SR.Status == StepStatus::Fault)
      return RunStatus::FaultDetected;
    if (SR.Output && OnOutput)
      OnOutput(*SR.Output);
  }
}
