//===- vm/LaneEngine.cpp --------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The lockstep group loop. Structure mirrors Engine::runContinuation with
// the lane dimension hoisted inside each boundary action: the program
// counters are group state (LaneState owns one shared pair), so the exit /
// budget / fetch checks factor over the whole group, and execAll is the SoA
// image of Engine.cpp's execOp switch — same read/write order, same guard
// conditions, same fault transitions per lane — with the per-kind dispatch
// and the pc bump paid once per group step instead of once per lane step.
//
// Lanes can only disagree about the next pc at a blue control transfer
// (jmpB, bzB-taken — the sole pc writers; their green counterparts just
// arm d). The first surviving lane commits the group's transfer; a
// surviving lane whose direction or target pair differs leaves the group
// mid-step, handing the scalar engine its boundary state with the current
// instruction in flight — exactly the state a solo scalar run would hold
// after the fetch — so the fallback re-executes the transfer for real.
//
//===----------------------------------------------------------------------===//

#include "vm/LaneEngine.h"

#include "support/Unreachable.h"
#include "vm/LaneSimd.h"
#include "vm/LaneState.h"

#include <algorithm>
#include <cassert>

using namespace talft;
using namespace talft::vm;

void LaneEngine::run(MachineState *States, unsigned N,
                     const LaneGroupSpec &Spec, LaneOutcome *Out) const {
  LaneState LS(N);
  run(States, N, Spec, Out, LS);
}

void LaneEngine::run(MachineState *States, unsigned N,
                     const LaneGroupSpec &Spec, LaneOutcome *Out,
                     LaneState &LS) const {
  assert(N >= 1 && "empty lane group");
  assert(N <= LS.width() && "scratch lane bank narrower than the group");
  assert(LS.numActive() == 0 && "scratch lane bank still holds lanes");
  const DecodedProgram &P = Scalar.program();

  // The shared in-flight instruction (lanes resume from one reference
  // step, so their instruction registers agree).
  std::optional<Inst> Inherited = States[0].IR;

  LS.shareMemory(Spec.SharedMem);
  for (unsigned L = 0; L != N; ++L) {
    assert(States[L].Code == &P.code() &&
           "lane state executed on a foreign engine");
    assert(States[L].IR == Inherited &&
           "lane group mixes in-flight instructions");
    Out[L] = LaneOutcome();
    States[L].IR.reset();
    LS.load(L, std::move(States[L]));
  }

  uint64_t Taken = 0;

  // Hands the final state back to the caller's slot. The lane must
  // already be inactive (take() or retire()).
  auto Finish = [&](unsigned L, RunStatus St, MachineState S,
                    uint64_t Steps) {
    States[L] = std::move(S);
    Out[L].Status = St;
    Out[L].GroupSteps = Steps;
  };

  // A cross-check fired in lane L: the hardware-detected fault state.
  auto Detect = [&](unsigned L) {
    LS.retire(L);
    Finish(L, RunStatus::FaultDetected, MachineState::faultState(),
           Taken + 1);
  };

  // Lane L left the lockstep group (control-flow divergence at a blue
  // transfer): finish it on the scalar engine with the remaining budget
  // and — when the split happens mid-step — the fetched instruction in
  // flight, so the scalar loop executes it with exactly the budget a solo
  // run would have seen.
  auto Fallback = [&](unsigned L, const std::optional<Inst> &IR) {
    MachineState S = LS.take(L, P.code());
    S.IR = IR;
    ExecEngine::ContinuationResult C = Scalar.runContinuation(
        S, Spec.ExitAddr, Spec.Budget - Taken, Spec.Policy,
        [&Sink = Spec.OnOutput, L](const QueueEntry &E) {
          if (Sink)
            Sink(L, E);
        });
    Out[L].Deviated = true;
    Finish(L, C.Status, std::move(S), Taken);
  };

  // Retires every remaining lane with status St, each lane's state
  // transposed back with \p IR (the budget-mid-step case) in flight.
  auto DrainAll = [&](RunStatus St, const std::optional<Inst> &IR) {
    while (LS.numActive()) {
      unsigned L = LS.act(0);
      MachineState S = LS.take(L, P.code());
      S.IR = IR;
      Finish(L, St, std::move(S), Taken);
    }
  };

  // The SoA image of execOp: performs micro-op M (decoded from I) in
  // every active lane, then commits the group pc transition once.
  // Retiring calls (Detect / Fallback) swap-remove the current active
  // slot, so the loops re-examine the slot instead of advancing.
  auto ExecAll = [&](const MicroOp &M, const Inst &I) {
    // The ALU families never retire a lane, so the active set is stable
    // across the op: when it spans the whole bank, one row-at-a-time SIMD
    // pass (LaneSimd.h) replaces the per-lane loop — payload row op plus
    // a color-row copy/fill. Partially-retired groups keep the scalar
    // loop, which doubles as the oracle for the row path.
    auto AluRR = [&](auto F, void (*Rows)(int64_t *, const int64_t *,
                                          const int64_t *, unsigned)) {
      if (LS.fullWidthActive()) {
        unsigned W = LS.width();
        Rows(LS.rowV(M.Rd), LS.rowV(M.Rs), LS.rowV(M.Rt), W);
        if (M.Rd != M.Rt)
          std::copy_n(LS.rowC(M.Rt), W, LS.rowC(M.Rd));
        LS.incrementPCs();
        return;
      }
      for (size_t K = 0; K != LS.numActive(); ++K) {
        unsigned L = LS.act(K);
        LS.set(M.Rd, L,
               Value(LS.col(M.Rt, L), (int64_t)F((uint64_t)LS.val(M.Rs, L),
                                                 (uint64_t)LS.val(M.Rt, L))));
      }
      LS.incrementPCs();
    };
    auto AluRI = [&](auto F, void (*RowImm)(int64_t *, const int64_t *,
                                            int64_t, unsigned)) {
      if (LS.fullWidthActive()) {
        unsigned W = LS.width();
        RowImm(LS.rowV(M.Rd), LS.rowV(M.Rs), M.ImmN, W);
        std::fill_n(LS.rowC(M.Rd), W, M.ImmC);
        LS.incrementPCs();
        return;
      }
      for (size_t K = 0; K != LS.numActive(); ++K) {
        unsigned L = LS.act(K);
        LS.set(M.Rd, L,
               Value(M.ImmC,
                     (int64_t)F((uint64_t)LS.val(M.Rs, L), (uint64_t)M.ImmN)));
      }
      LS.incrementPCs();
    };
    switch (M.Kind) {
    case MicroOpKind::AddRR:
      AluRR([](uint64_t A, uint64_t B) { return A + B; }, &simd::addRows);
      return;
    case MicroOpKind::SubRR:
      AluRR([](uint64_t A, uint64_t B) { return A - B; }, &simd::subRows);
      return;
    case MicroOpKind::MulRR:
      AluRR([](uint64_t A, uint64_t B) { return A * B; }, &simd::mulRows);
      return;
    case MicroOpKind::AddRI:
      AluRI([](uint64_t A, uint64_t B) { return A + B; }, &simd::addRowImm);
      return;
    case MicroOpKind::SubRI:
      AluRI([](uint64_t A, uint64_t B) { return A - B; }, &simd::subRowImm);
      return;
    case MicroOpKind::MulRI:
      AluRI([](uint64_t A, uint64_t B) { return A * B; }, &simd::mulRowImm);
      return;
    case MicroOpKind::Mov:
      if (LS.fullWidthActive()) {
        unsigned W = LS.width();
        simd::fillRow(LS.rowV(M.Rd), M.ImmN, W);
        std::fill_n(LS.rowC(M.Rd), W, M.ImmC);
        LS.incrementPCs();
        return;
      }
      for (size_t K = 0; K != LS.numActive(); ++K)
        LS.set(M.Rd, LS.act(K), Value(M.ImmC, M.ImmN));
      LS.incrementPCs();
      return;
    case MicroOpKind::LdG:
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        Addr A = LS.val(M.Rs, L);
        if (std::optional<int64_t> Pending = LS.queue(L).find(A)) {
          LS.set(M.Rd, L, Value::green(*Pending));
          ++K;
          continue;
        }
        if (std::optional<int64_t> Cell = LS.memRead(L).lookup(A)) {
          LS.set(M.Rd, L, Value::green(*Cell));
          ++K;
          continue;
        }
        if (Spec.Policy.WildLoad == WildLoadPolicy::Trap) {
          Detect(L);
          continue;
        }
        LS.set(M.Rd, L, Value::green(Spec.Policy.GarbageValue));
        ++K;
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::LdB:
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        Addr A = LS.val(M.Rs, L);
        if (std::optional<int64_t> Cell = LS.memRead(L).lookup(A)) {
          LS.set(M.Rd, L, Value::blue(*Cell));
          ++K;
          continue;
        }
        if (Spec.Policy.WildLoad == WildLoadPolicy::Trap) {
          Detect(L);
          continue;
        }
        LS.set(M.Rd, L, Value::blue(Spec.Policy.GarbageValue));
        ++K;
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::StG:
      for (size_t K = 0; K != LS.numActive(); ++K) {
        unsigned L = LS.act(K);
        LS.queue(L).pushFront({LS.val(M.Rd, L), LS.val(M.Rs, L)});
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::StB:
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        StoreQueue &Q = LS.queue(L);
        if (Q.empty()) {
          Detect(L);
          continue;
        }
        QueueEntry Back = Q.back();
        if (LS.val(M.Rd, L) != Back.Address || LS.val(M.Rs, L) != Back.Val) {
          Detect(L);
          continue;
        }
        Q.popBack();
        LS.memWrite(L).set(Back.Address, Back.Val);
        if (Spec.OnOutput)
          Spec.OnOutput(L, Back);
        ++K;
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::JmpG:
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        if (LS.val(LaneState::DestIdx, L) != 0) {
          Detect(L);
          continue;
        }
        LS.set(LaneState::DestIdx, L, LS.get(M.Rd, L));
        ++K;
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::BzG:
      // Both directions demand d == 0 and both leave the pcs on the
      // fall-through path; only the taken direction arms d.
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        if (LS.val(LaneState::DestIdx, L) != 0) {
          Detect(L);
          continue;
        }
        if (LS.val(M.Rs, L) == 0)
          LS.set(LaneState::DestIdx, L, LS.get(M.Rd, L));
        ++K;
      }
      LS.incrementPCs();
      return;
    case MicroOpKind::JmpB: {
      bool Have = false;
      Value NG, NB;
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        int64_t D = LS.val(LaneState::DestIdx, L);
        if (D == 0 || LS.val(M.Rd, L) != D) {
          Detect(L);
          continue;
        }
        Value G = LS.get(LaneState::DestIdx, L);
        Value B = LS.get(M.Rd, L);
        if (!Have) {
          Have = true;
          NG = G;
          NB = B;
        } else if (!(G == NG) || !(B == NB)) {
          Fallback(L, I);
          continue;
        }
        if (Spec.Policy.Cfi)
          Spec.Policy.Cfi->recordCommit(LS.pcG().N, LS.pcB().N,
                                        LS.val(M.Rd, L));
        LS.set(LaneState::DestIdx, L, Value::green(0));
        ++K;
      }
      if (LS.numActive())
        LS.setPCs(NG, NB);
      return;
    }
    case MicroOpKind::BzB: {
      bool Have = false, GroupTaken = false;
      Value NG, NB;
      for (size_t K = 0; K != LS.numActive();) {
        unsigned L = LS.act(K);
        int64_t Z = LS.val(M.Rs, L);
        int64_t D = LS.val(LaneState::DestIdx, L);
        if (Z != 0) {
          if (D != 0) {
            Detect(L);
            continue;
          }
          if (!Have) {
            Have = true;
            GroupTaken = false;
          } else if (GroupTaken) {
            Fallback(L, I);
            continue;
          }
          ++K;
          continue;
        }
        if (D == 0 || LS.val(M.Rd, L) != D) {
          Detect(L);
          continue;
        }
        Value G = LS.get(LaneState::DestIdx, L);
        Value B = LS.get(M.Rd, L);
        if (!Have) {
          Have = true;
          GroupTaken = true;
          NG = G;
          NB = B;
        } else if (!GroupTaken || !(G == NG) || !(B == NB)) {
          Fallback(L, I);
          continue;
        }
        if (Spec.Policy.Cfi)
          Spec.Policy.Cfi->recordCommit(LS.pcG().N, LS.pcB().N,
                                        LS.val(M.Rd, L));
        LS.set(LaneState::DestIdx, L, Value::green(0));
        ++K;
      }
      if (LS.numActive()) {
        if (GroupTaken)
          LS.setPCs(NG, NB);
        else
          LS.incrementPCs();
      }
      return;
    }
    }
    talft_unreachable("unknown micro-op kind");
  };

  // The shared in-flight instruction executes first, exactly like the
  // scalar InFlight path: budget check with Taken == 0, then execute.
  if (Inherited) {
    if (Taken >= Spec.Budget) {
      DrainAll(RunStatus::OutOfSteps, Inherited);
      return;
    }
    ExecAll(decodeInst(*Inherited), *Inherited);
    ++Taken;
  }

  while (LS.numActive()) {
    // --- fetch boundary; every active lane has an empty IR and shares
    // --- the group pc pair ---
    Addr PcGN = LS.pcG().N;
    Addr PcBN = LS.pcB().N;

    // Exit check, once for the group.
    if (Spec.ExitAddr != 0 && PcGN == Spec.ExitAddr && PcBN == Spec.ExitAddr) {
      DrainAll(RunStatus::Halted, std::nullopt);
      return;
    }

    // Budget.
    if (Taken >= Spec.Budget) {
      DrainAll(RunStatus::OutOfSteps, std::nullopt);
      return;
    }

    // The scalar engine's pc cross-check. Group transfers only ever
    // commit payload-equal pairs, so this cannot fire for a healthy
    // group; it is kept for exactness with the scalar boundary order.
    if (PcGN != PcBN) {
      while (LS.numActive()) {
        unsigned L = LS.act(0);
        LS.retire(L);
        Finish(L, RunStatus::FaultDetected, MachineState::faultState(), Taken);
      }
      return;
    }

    // Fetch, once for the group.
    if (!P.contains(PcGN)) {
      DrainAll(RunStatus::Stuck, std::nullopt);
      return;
    }
    const MicroOp &M = P.op(PcGN);
    ++Taken;
    if (Taken >= Spec.Budget) {
      // The budget expired between the fetch and its execution: leave the
      // fetched instruction materialized in each lane's IR.
      DrainAll(RunStatus::OutOfSteps, P.inst(PcGN));
      return;
    }
    ExecAll(M, P.inst(PcGN));
    ++Taken;
  }
}
