//===- vm/Engine.cpp ------------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// One execOp switch performs a single decoded instruction execution; step()
// and the one fused loop, runContinuation(), wrap it (ExecEngine::run and
// the campaign's exit-less replays are built on that loop). Each case
// mirrors its counterpart in sim/Step.cpp statement for statement (same
// read/write order, same rule names, same fault-state transitions); the
// only differences are mechanical
// — register names arrive pre-resolved, the opcode/color/immediate
// discrimination happened at decode time, and fetches index an array
// instead of a std::map.
//
//===----------------------------------------------------------------------===//

#include "vm/Engine.h"

#include "support/Unreachable.h"

#include <cassert>

using namespace talft;
using namespace talft::vm;

namespace {

/// Outcome of one instruction execution (execution never gets stuck; only
/// fetches can).
enum class Exec : uint8_t { Ok, Output, Fault };

inline Reg reg(uint8_t Dense) { return Reg::fromDenseIndex(Dense); }

/// Executes \p M against \p S. On Exec::Output, \p Out is the committed
/// store. \p Rule receives the operational rule name (as in sim/Step.cpp).
/// Does not touch S.IR; the callers own instruction-register bookkeeping.
/// Forced inline: the fused loop below runs about 1.5x slower when the
/// compiler's size heuristics leave it as a call per step.
[[gnu::always_inline]] inline Exec execOp(MachineState &S, const MicroOp &M,
                                          const StepPolicy &Policy,
                                          QueueEntry &Out, const char *&Rule) {
  RegisterFile &R = S.Regs;
  switch (M.Kind) {
  // Rules op2r / op1r: the result takes the color of the second operand.
  case MicroOpKind::AddRR: {
    Value V(R.col(reg(M.Rt)),
            (int64_t)((uint64_t)R.val(reg(M.Rs)) + (uint64_t)R.val(reg(M.Rt))));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op2r";
    return Exec::Ok;
  }
  case MicroOpKind::SubRR: {
    Value V(R.col(reg(M.Rt)),
            (int64_t)((uint64_t)R.val(reg(M.Rs)) - (uint64_t)R.val(reg(M.Rt))));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op2r";
    return Exec::Ok;
  }
  case MicroOpKind::MulRR: {
    Value V(R.col(reg(M.Rt)),
            (int64_t)((uint64_t)R.val(reg(M.Rs)) * (uint64_t)R.val(reg(M.Rt))));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op2r";
    return Exec::Ok;
  }
  case MicroOpKind::AddRI: {
    Value V(M.ImmC, (int64_t)((uint64_t)R.val(reg(M.Rs)) + (uint64_t)M.ImmN));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op1r";
    return Exec::Ok;
  }
  case MicroOpKind::SubRI: {
    Value V(M.ImmC, (int64_t)((uint64_t)R.val(reg(M.Rs)) - (uint64_t)M.ImmN));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op1r";
    return Exec::Ok;
  }
  case MicroOpKind::MulRI: {
    Value V(M.ImmC, (int64_t)((uint64_t)R.val(reg(M.Rs)) * (uint64_t)M.ImmN));
    R.incrementPCs();
    R.set(reg(M.Rd), V);
    Rule = "op1r";
    return Exec::Ok;
  }
  case MicroOpKind::Mov:
    R.incrementPCs();
    R.set(reg(M.Rd), Value(M.ImmC, M.ImmN));
    Rule = "mov";
    return Exec::Ok;
  // Rules ldG-queue / ldG-mem / ldG-fail / ldG-rand: the green load checks
  // the store queue first.
  case MicroOpKind::LdG: {
    Addr A = R.val(reg(M.Rs));
    if (std::optional<int64_t> Pending = S.Queue.find(A)) {
      R.incrementPCs();
      R.set(reg(M.Rd), Value::green(*Pending));
      Rule = "ldG-queue";
      return Exec::Ok;
    }
    if (std::optional<int64_t> Cell = S.Mem.lookup(A)) {
      R.incrementPCs();
      R.set(reg(M.Rd), Value::green(*Cell));
      Rule = "ldG-mem";
      return Exec::Ok;
    }
    if (Policy.WildLoad == WildLoadPolicy::Trap) {
      S = MachineState::faultState();
      Rule = "ldG-fail";
      return Exec::Fault;
    }
    R.incrementPCs();
    R.set(reg(M.Rd), Value::green(Policy.GarbageValue));
    Rule = "ldG-rand";
    return Exec::Ok;
  }
  // Rules ldB-mem / ldB-fail / ldB-rand: straight to memory.
  case MicroOpKind::LdB: {
    Addr A = R.val(reg(M.Rs));
    if (std::optional<int64_t> Cell = S.Mem.lookup(A)) {
      R.incrementPCs();
      R.set(reg(M.Rd), Value::blue(*Cell));
      Rule = "ldB-mem";
      return Exec::Ok;
    }
    if (Policy.WildLoad == WildLoadPolicy::Trap) {
      S = MachineState::faultState();
      Rule = "ldB-fail";
      return Exec::Fault;
    }
    R.incrementPCs();
    R.set(reg(M.Rd), Value::blue(Policy.GarbageValue));
    Rule = "ldB-rand";
    return Exec::Ok;
  }
  // Rule stG-queue: push (Rval(rd), Rval(rs)) onto the queue front.
  case MicroOpKind::StG:
    S.Queue.pushFront({R.val(reg(M.Rd)), R.val(reg(M.Rs))});
    R.incrementPCs();
    Rule = "stG-queue";
    return Exec::Ok;
  // Rules stB-mem / stB-queue-fail / stB-mem-fail.
  case MicroOpKind::StB: {
    if (S.Queue.empty()) {
      S = MachineState::faultState();
      Rule = "stB-queue-fail";
      return Exec::Fault;
    }
    QueueEntry Back = S.Queue.back();
    if (R.val(reg(M.Rd)) != Back.Address || R.val(reg(M.Rs)) != Back.Val) {
      S = MachineState::faultState();
      Rule = "stB-mem-fail";
      return Exec::Fault;
    }
    S.Queue.popBack();
    S.Mem.set(Back.Address, Back.Val);
    R.incrementPCs();
    Out = Back;
    Rule = "stB-mem";
    return Exec::Output;
  }
  // Rules jmpG / jmpG-fail: record the green intention in d.
  case MicroOpKind::JmpG: {
    if (R.val(Reg::dest()) != 0) {
      S = MachineState::faultState();
      Rule = "jmpG-fail";
      return Exec::Fault;
    }
    Value Target = R.get(reg(M.Rd));
    R.incrementPCs();
    R.set(Reg::dest(), Target);
    Rule = "jmpG";
    return Exec::Ok;
  }
  // Rules jmpB / jmpB-fail: commit the transfer if both computations agree.
  case MicroOpKind::JmpB: {
    if (R.val(Reg::dest()) == 0 || R.val(reg(M.Rd)) != R.val(Reg::dest())) {
      S = MachineState::faultState();
      Rule = "jmpB-fail";
      return Exec::Fault;
    }
    if (Policy.Cfi)
      Policy.Cfi->recordCommit(R.val(Reg::pcG()), R.val(Reg::pcB()),
                               R.val(reg(M.Rd)));
    R.set(Reg::pcG(), R.get(Reg::dest()));
    R.set(Reg::pcB(), R.get(reg(M.Rd)));
    R.set(Reg::dest(), Value::green(0));
    Rule = "jmpB";
    return Exec::Ok;
  }
  // Rules bz-untaken / bzG-taken / bzB-taken and their -fail variants.
  case MicroOpKind::BzG: {
    int64_t Z = R.val(reg(M.Rs));
    int64_t D = R.val(Reg::dest());
    if (Z != 0) {
      if (D != 0) {
        S = MachineState::faultState();
        Rule = "bz-untaken-fail";
        return Exec::Fault;
      }
      R.incrementPCs();
      Rule = "bz-untaken";
      return Exec::Ok;
    }
    if (D != 0) {
      S = MachineState::faultState();
      Rule = "bzG-taken-fail";
      return Exec::Fault;
    }
    Value Target = R.get(reg(M.Rd));
    R.incrementPCs();
    R.set(Reg::dest(), Target);
    Rule = "bzG-taken";
    return Exec::Ok;
  }
  case MicroOpKind::BzB: {
    int64_t Z = R.val(reg(M.Rs));
    int64_t D = R.val(Reg::dest());
    if (Z != 0) {
      if (D != 0) {
        S = MachineState::faultState();
        Rule = "bz-untaken-fail";
        return Exec::Fault;
      }
      R.incrementPCs();
      Rule = "bz-untaken";
      return Exec::Ok;
    }
    if (D == 0 || R.val(reg(M.Rd)) != D) {
      S = MachineState::faultState();
      Rule = "bzB-taken-fail";
      return Exec::Fault;
    }
    if (Policy.Cfi)
      Policy.Cfi->recordCommit(R.val(Reg::pcG()), R.val(Reg::pcB()),
                               R.val(reg(M.Rd)));
    R.set(Reg::pcG(), R.get(Reg::dest()));
    R.set(Reg::pcB(), R.get(reg(M.Rd)));
    R.set(Reg::dest(), Value::green(0));
    Rule = "bzB-taken";
    return Exec::Ok;
  }
  }
  talft_unreachable("unknown micro-op kind");
}

/// The in-flight instruction of the fused loop: either inherited from the
/// state's instruction register (whose pc may no longer match it after a
/// fault) or fetched from the decoded array (pc still points at it, since
/// pcs advance only at execution). Keeping it out of S.IR during the loop
/// avoids a std::optional<Inst> store per fetch; leave() rematerializes
/// S.IR when the loop stops between a fetch and its execution.
struct InFlight {
  const MicroOp *Op = nullptr;
  MicroOp Inherited;
  Inst InheritedInst;
  bool FromIR = false;

  explicit InFlight(MachineState &S) {
    if (S.IR) {
      InheritedInst = *S.IR;
      Inherited = decodeInst(InheritedInst);
      Op = &Inherited;
      FromIR = true;
      S.IR.reset();
    }
  }

  /// Restores the instruction register before returning to the caller.
  void leave(MachineState &S, const DecodedProgram &P) const {
    if (Op)
      S.IR = FromIR ? InheritedInst : P.inst(S.pcG().N);
  }
};

} // namespace

std::unique_ptr<ExecEngine> vm::createEngine(const CodeMemory &Code) {
  return std::make_unique<Engine>(Code);
}

StepResult Engine::step(MachineState &S, const StepPolicy &Policy) const {
  assert(!S.isFault() && "stepping the fault state");
  assert(S.Code == &P.code() && "state executed on a foreign engine");

  if (S.IR) {
    MicroOp M = decodeInst(*S.IR);
    QueueEntry Out;
    const char *Rule = nullptr;
    Exec E = execOp(S, M, Policy, Out, Rule);
    if (E == Exec::Fault)
      return {StepStatus::Fault, std::nullopt, Rule};
    S.IR.reset();
    if (E == Exec::Output)
      return {StepStatus::Ok, Out, Rule};
    return {StepStatus::Ok, std::nullopt, Rule};
  }

  // Rules fetch / fetch-fail.
  Value PcG = S.pcG(), PcB = S.pcB();
  if (PcG.N != PcB.N) {
    S = MachineState::faultState();
    return {StepStatus::Fault, std::nullopt, "fetch-fail"};
  }
  if (!P.contains(PcG.N))
    return {StepStatus::Stuck, std::nullopt, nullptr};
  S.IR = P.inst(PcG.N);
  return {StepStatus::Ok, std::nullopt, "fetch"};
}

ExecEngine::ContinuationResult
Engine::runContinuation(MachineState &S, Addr ExitAddr, uint64_t Budget,
                        const StepPolicy &Policy,
                        const OutputSink &OnOutput) const {
  assert(S.Code == &P.code() && "state executed on a foreign engine");
  ContinuationResult C;
  auto Stop = [&C](RunStatus St) {
    C.Status = St;
    return C;
  };
  InFlight Cur(S);
  while (true) {
    // The exit condition is checked before the budget: a continuation
    // arriving at the exit with zero budget left halts.
    if (!Cur.Op) {
      Value PcG = S.pcG(), PcB = S.pcB();
      if (ExitAddr != 0 && PcG.N == ExitAddr && PcB.N == ExitAddr)
        return Stop(RunStatus::Halted);
      if (C.Steps >= Budget)
        break;
      if (PcG.N != PcB.N) {
        S = MachineState::faultState();
        ++C.Steps;
        return Stop(RunStatus::FaultDetected);
      }
      if (!P.contains(PcG.N))
        return Stop(RunStatus::Stuck);
      Cur.Op = &P.op(PcG.N);
      Cur.FromIR = false;
      ++C.Steps;
      continue;
    }
    if (C.Steps >= Budget)
      break;
    QueueEntry Out;
    const char *Rule;
    Exec E = execOp(S, *Cur.Op, Policy, Out, Rule);
    Cur.Op = nullptr;
    ++C.Steps;
    if (E == Exec::Output) {
      if (OnOutput)
        OnOutput(Out);
    } else if (E == Exec::Fault) {
      return Stop(RunStatus::FaultDetected);
    }
  }
  Cur.leave(S, P);
  return Stop(RunStatus::OutOfSteps);
}
