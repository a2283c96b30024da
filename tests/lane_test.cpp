//===- tests/lane_test.cpp - Batched lane execution oracle ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The batched lane engine is only allowed to change wall-clock time, never
// an observable: every lane must end with exactly the RunStatus, output
// trace and final MachineState its own scalar runContinuation would have
// produced, and whole campaigns must fold bit-identically with and without
// lanes. This suite pins that contract at both levels:
//
//   1. direct LaneEngine groups against per-lane scalar runs — including
//      lanes that deviate at a blue control transfer (bz/jmp split and
//      scalar fallback) and lanes that retire mid-group on a cross-check;
//   2. the degenerate width-1 group, which must be indistinguishable from
//      the scalar engine;
//   3. the copy-on-write shared-memory contract (LaneGroupSpec::SharedMem)
//      and the reusable scratch lane bank;
//   4. campaign-level fold oracles across widths, engines, thread counts,
//      resume modes, pruning and convergence;
//   5. the explicit-plan API (the double-fault ablation's path) with every
//      {Converge, Lanes} combination — plans ignore both.
//
//===----------------------------------------------------------------------===//

#include "check/ProgramChecker.h"
#include "fault/Campaign.h"
#include "fault/FaultInjector.h"
#include "sim/ExecEngine.h"
#include "sim/LaneGroup.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/LaneEngine.h"
#include "vm/LaneState.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct NamedProgram {
  const char *Name;
  const char *Source;
  bool WellTyped;
};

const std::vector<NamedProgram> &allPrograms() {
  static const std::vector<NamedProgram> Programs = {
      {"PairedStore", progs::PairedStore, true},
      {"CseBroken", progs::CseBroken, false},
      {"IndirectJump", progs::IndirectJump, true},
      {"CountdownLoop", progs::CountdownLoop, true},
      {"QueueForwarding", progs::QueueForwarding, true},
      {"PendingStoreAcrossJump", progs::PendingStoreAcrossJump, true},
  };
  return Programs;
}

Program parseOrDie(TypeContext &TC, const NamedProgram &NP) {
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, NP.Source, Diags);
  EXPECT_TRUE(bool(P)) << NP.Name << ": " << Diags.str();
  return std::move(*P);
}

/// The reference run unrolled: the state after every step.
struct UnrolledRun {
  std::vector<MachineState> States;
  uint64_t Steps = 0;
};

UnrolledRun unroll(const Program &P, const StepPolicy &Policy) {
  UnrolledRun U;
  MachineState Probe = *P.initialState();
  RunResult RR = referenceEngine().run(Probe, P.exitAddress(), 100000, Policy);
  EXPECT_EQ(RR.Status, RunStatus::Halted);
  U.Steps = RR.Steps;
  MachineState S = *P.initialState();
  U.States.push_back(S);
  for (uint64_t I = 0; I != RR.Steps; ++I) {
    StepResult SR = referenceEngine().step(S, Policy);
    EXPECT_EQ(SR.Status, StepStatus::Ok);
    U.States.push_back(S);
  }
  return U;
}

/// Fetch-boundary indices (IR empty) of the unrolled run, at most \p Max,
/// spread across the run.
std::vector<uint64_t> boundaries(const UnrolledRun &U, size_t Max) {
  std::vector<uint64_t> All;
  for (uint64_t K = 0; K < U.Steps; ++K)
    if (!U.States[K].IR)
      All.push_back(K);
  if (All.size() <= Max)
    return All;
  std::vector<uint64_t> Picked;
  for (size_t I = 0; I != Max; ++I)
    Picked.push_back(All[I * All.size() / Max]);
  return Picked;
}

/// The injected continuations a lane group starts from: every non-pc fault
/// site of the boundary state, times a few representative corruptions.
/// (Pc sites break the group invariant — the campaign runs them scalar.)
std::vector<MachineState> injectedLanes(const Program &P,
                                        const MachineState &Base) {
  std::vector<int64_t> Values = representativeCorruptions(P);
  if (Values.size() > 3)
    Values.resize(3);
  std::vector<MachineState> Lanes;
  for (const FaultSite &Site : enumerateFaultSites(Base)) {
    if (Site.K == FaultSite::Kind::Register && Site.R.isPC())
      continue;
    for (int64_t V : Values) {
      MachineState S = Base;
      injectFault(S, Site, V);
      Lanes.push_back(std::move(S));
    }
  }
  return Lanes;
}

/// Tallies of what the direct group runs exercised, so the suite can
/// assert the interesting paths (deviation, detection) actually fired
/// somewhere.
struct PathCounts {
  uint64_t Deviated = 0;
  uint64_t Detected = 0;
};

/// Runs \p Lanes through the lane engine in groups of \p Width and each
/// lane through the scalar vm engine alone, with identical budgets, and
/// asserts per-lane observable equality.
void compareGroupsToScalar(const char *Name, const Program &P,
                           const UnrolledRun &U, uint64_t K,
                           std::vector<MachineState> Lanes, unsigned Width,
                           PathCounts &PC) {
  vm::LaneEngine LE(P.code());
  uint64_t Budget = U.Steps - K + 64;

  for (size_t At = 0; At < Lanes.size(); At += Width) {
    unsigned N = (unsigned)std::min<size_t>(Width, Lanes.size() - At);
    std::vector<MachineState> Group(Lanes.begin() + At,
                                    Lanes.begin() + At + N);
    std::vector<OutputTrace> LaneOuts(N);
    std::vector<LaneOutcome> Outs(N);

    LaneGroupSpec Spec;
    Spec.ExitAddr = P.exitAddress();
    Spec.Budget = Budget;
    Spec.OnOutput = [&](unsigned L, const QueueEntry &E) {
      LaneOuts[L].push_back(E);
    };
    LE.run(Group.data(), N, Spec, Outs.data());

    for (unsigned L = 0; L != N; ++L) {
      MachineState S = Lanes[At + L];
      OutputTrace ScalarOut;
      RunStatus St = LE.scalar().runContinuation(
          S, P.exitAddress(), Budget, StepPolicy(),
          [&](const QueueEntry &E) { ScalarOut.push_back(E); });

      std::string At2 = std::string(Name) + " step " + std::to_string(K) +
                        " lane " + std::to_string(At + L) + " width " +
                        std::to_string(Width);
      ASSERT_EQ(Outs[L].Status, St) << At2;
      ASSERT_EQ(LaneOuts[L], ScalarOut) << At2;
      ASSERT_TRUE(Group[L] == S) << At2;
      PC.Deviated += Outs[L].Deviated;
      PC.Detected += St == RunStatus::FaultDetected;
    }
  }
}

// Contract 1: multi-lane groups are observably identical to per-lane
// scalar runs, across every program and several resume boundaries — and
// the sweep genuinely exercises mid-group cross-check detection.
TEST(LaneEngine, GroupsMatchScalarLaneByLane) {
  PathCounts PC;
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    UnrolledRun U = unroll(P, StepPolicy());
    for (uint64_t K : boundaries(U, 3)) {
      std::vector<MachineState> Lanes = injectedLanes(P, U.States[K]);
      ASSERT_FALSE(Lanes.empty());
      compareGroupsToScalar(NP.Name, P, U, K, Lanes, 8, PC);
    }
  }
  // The interesting retirement paths fired somewhere in the sweep. (No
  // deviation expectation here: under a *single* fault the green/blue
  // pairing turns every control-flow disagreement into a cross-check
  // detection before the group pc could split — the dedicated divergence
  // test below forces the fallback path with legitimately disagreeing
  // lanes instead.)
  EXPECT_GT(PC.Detected, 0u);
}

// The control-flow split: lanes from different iterations of the same
// loop share a pc pair but disagree — legitimately, in both colors — on
// the loop-exit branch, so the group must split at the blue transfer and
// finish the minority lane on the scalar fallback, bit-exactly.
TEST(LaneEngine, DivergentBranchFallsBackToScalar) {
  TypeContext TC;
  NamedProgram NP{"divergent", progs::CountdownLoop, true};
  Program P = parseOrDie(TC, NP);
  UnrolledRun U = unroll(P, StepPolicy());

  // Collect boundary states that share their program counters: loop
  // iterations passing the same static point with different counters.
  std::map<int64_t, std::vector<uint64_t>> ByPc;
  for (uint64_t K = 0; K < U.Steps; ++K)
    if (!U.States[K].IR)
      ByPc[U.States[K].Regs.get(Reg::pcG()).N].push_back(K);
  std::vector<MachineState> Lanes;
  for (const auto &[Pc, Ks] : ByPc)
    if (Ks.size() > Lanes.size()) {
      Lanes.clear();
      for (uint64_t K : Ks) {
        Lanes.push_back(U.States[K]);
        if (Lanes.size() == 4)
          break;
      }
    }
  ASSERT_GE(Lanes.size(), 2u) << "no revisited boundary pc in the loop";

  vm::LaneEngine LE(P.code());
  unsigned N = (unsigned)Lanes.size();
  std::vector<MachineState> Group = Lanes;
  std::vector<OutputTrace> LaneOuts(N);
  std::vector<LaneOutcome> Outs(N);
  LaneGroupSpec Spec;
  Spec.ExitAddr = P.exitAddress();
  Spec.Budget = U.Steps + 64;
  Spec.OnOutput = [&](unsigned L, const QueueEntry &E) {
    LaneOuts[L].push_back(E);
  };
  LE.run(Group.data(), N, Spec, Outs.data());

  uint64_t Deviated = 0;
  for (unsigned L = 0; L != N; ++L) {
    MachineState S = Lanes[L];
    OutputTrace ScalarOut;
    RunStatus St = LE.scalar().runContinuation(
        S, P.exitAddress(), Spec.Budget, StepPolicy(),
        [&](const QueueEntry &E) { ScalarOut.push_back(E); });
    EXPECT_EQ(Outs[L].Status, St) << "lane " << L;
    EXPECT_EQ(St, RunStatus::Halted) << "lane " << L;
    EXPECT_EQ(LaneOuts[L], ScalarOut) << "lane " << L;
    EXPECT_TRUE(Group[L] == S) << "lane " << L;
    Deviated += Outs[L].Deviated;
  }
  // The lanes genuinely disagreed on a transfer: at least one left the
  // lockstep group (and not all of them — the group survived the split).
  EXPECT_GT(Deviated, 0u);
  EXPECT_LT(Deviated, N);
}

// Contract 2: a width-1 group is the degenerate case — still bit-exact.
TEST(LaneEngine, WidthOneMatchesScalar) {
  PathCounts PC;
  for (const char *Source : {progs::PairedStore, progs::CountdownLoop}) {
    NamedProgram NP{"width1", Source, true};
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    UnrolledRun U = unroll(P, StepPolicy());
    for (uint64_t K : boundaries(U, 2))
      compareGroupsToScalar(NP.Name, P, U, K, injectedLanes(P, U.States[K]),
                            1, PC);
  }
}

// Contract 3a: the copy-on-write shared-memory path (lanes arrive with
// empty memories against LaneGroupSpec::SharedMem) is observably
// identical to giving every lane a private copy up front, and the shared
// base is never mutated by the run.
TEST(LaneEngine, SharedMemoryCopyOnWriteMatchesPrivateCopies) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    UnrolledRun U = unroll(P, StepPolicy());
    uint64_t K = boundaries(U, 2).back();
    const MachineState &Base = U.States[K];
    std::vector<MachineState> Private = injectedLanes(P, Base);
    unsigned N = (unsigned)std::min<size_t>(Private.size(), 16);
    Private.resize(N);

    // The shared variant: same faults, memories emptied.
    std::vector<MachineState> Shared = Private;
    for (MachineState &S : Shared)
      S.Mem = ValueMemory();

    vm::LaneEngine LE(P.code());
    LaneGroupSpec Spec;
    Spec.ExitAddr = P.exitAddress();
    Spec.Budget = U.Steps - K + 64;

    std::vector<LaneOutcome> OutP(N), OutS(N);
    std::vector<MachineState> RanP = Private;
    LE.run(RanP.data(), N, Spec, OutP.data());

    ValueMemory BaseBefore = Base.Mem;
    Spec.SharedMem = &Base.Mem;
    LE.run(Shared.data(), N, Spec, OutS.data());
    EXPECT_TRUE(Base.Mem == BaseBefore) << NP.Name;

    for (unsigned L = 0; L != N; ++L) {
      std::string At = std::string(NP.Name) + " lane " + std::to_string(L);
      EXPECT_EQ(OutS[L].Status, OutP[L].Status) << At;
      // Handed-back states always carry a materialized memory.
      EXPECT_TRUE(Shared[L] == RanP[L]) << At;
    }
  }
}

// Contract 3b: a scratch lane bank reused across groups (the campaign's
// per-block amortization) behaves exactly like a fresh bank per group,
// including when the groups are narrower than the bank.
TEST(LaneEngine, ScratchBankReuseMatchesFreshBank) {
  TypeContext TC;
  NamedProgram NP{"scratch", progs::CountdownLoop, true};
  Program P = parseOrDie(TC, NP);
  UnrolledRun U = unroll(P, StepPolicy());
  uint64_t K = boundaries(U, 1).front();
  std::vector<MachineState> Lanes = injectedLanes(P, U.States[K]);
  ASSERT_GE(Lanes.size(), 8u);

  vm::LaneEngine LE(P.code());
  LaneGroupSpec Spec;
  Spec.ExitAddr = P.exitAddress();
  Spec.Budget = U.Steps - K + 64;

  vm::LaneState Scratch(8);
  size_t At = 0;
  for (unsigned N : {5u, 3u, 8u}) {
    if (At + N > Lanes.size())
      break;
    std::vector<MachineState> Reused(Lanes.begin() + At,
                                     Lanes.begin() + At + N);
    std::vector<MachineState> Fresh = Reused;
    std::vector<LaneOutcome> OutR(N), OutF(N);
    LE.run(Reused.data(), N, Spec, OutR.data(), Scratch);
    LE.run(Fresh.data(), N, Spec, OutF.data());
    for (unsigned L = 0; L != N; ++L) {
      EXPECT_EQ(OutR[L].Status, OutF[L].Status) << "lane " << At + L;
      EXPECT_TRUE(Reused[L] == Fresh[L]) << "lane " << At + L;
    }
    At += N;
  }
}

// Contract 4a: raw-semantics campaigns fold bit-identically with and
// without lanes, across widths, engines, thread counts, resume modes and
// convergence — and the lane statistics show the batched path ran.
TEST(LaneFold, SingleFaultCampaignsBitIdentical) {
  uint64_t TotalLaneTasks = 0;
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    TheoremConfig Config;
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized

    for (bool Converge : {false, true}) {
      CampaignOptions Base;
      Base.Converge = Converge;
      Base.Lanes = false;
      CampaignResult Baseline = runSingleFaultCampaign(P, Config, Base);
      EXPECT_FALSE(Baseline.Stats.Lanes) << NP.Name;
      EXPECT_EQ(Baseline.Stats.LaneTasks, 0u) << NP.Name;

      struct Combo {
        unsigned Width;
        const ExecEngine *E;
        unsigned Threads;
        ResumeMode Resume;
      };
      const Combo Combos[] = {
          {1, nullptr, 1, ResumeMode::Snapshot},
          {4, Vm.get(), 8, ResumeMode::Replay},
          {16, nullptr, 8, ResumeMode::Snapshot},
          {64, Vm.get(), 1, ResumeMode::Snapshot},
      };
      for (const Combo &C : Combos) {
        CampaignOptions Opts;
        Opts.Converge = Converge;
        Opts.Lanes = true;
        Opts.LaneWidth = C.Width;
        Opts.Engine = C.E;
        Opts.Threads = C.Threads;
        Opts.Resume = C.Resume;
        CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
        std::string At = std::string(NP.Name) +
                         (Converge ? "/conv" : "/noconv") + " width=" +
                         std::to_string(C.Width) + " engine=" +
                         R.Stats.Engine + " threads=" +
                         std::to_string(C.Threads);
        EXPECT_EQ(R.Ok, Baseline.Ok) << At;
        EXPECT_EQ(R.ReferenceSteps, Baseline.ReferenceSteps) << At;
        EXPECT_EQ(R.ReferenceTrace, Baseline.ReferenceTrace) << At;
        EXPECT_EQ(R.Table, Baseline.Table) << At;
        EXPECT_EQ(R.Violations, Baseline.Violations) << At;
        EXPECT_TRUE(R.Stats.Lanes) << At;
        EXPECT_EQ(R.Stats.LaneWidth, C.Width) << At;
        TotalLaneTasks += R.Stats.LaneTasks;
      }
    }
  }
  // The batched path actually classified continuations somewhere.
  EXPECT_GT(TotalLaneTasks, 0u);
}

// Contract 4b: the typed entry point with pruning — the Masked /
// StaticallyMasked split depends on pruning, never on lanes.
TEST(LaneFold, PrunedFaultToleranceCampaignsBitIdentical) {
  for (const NamedProgram &NP : allPrograms()) {
    if (!NP.WellTyped)
      continue;
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    DiagnosticEngine Diags;
    Expected<CheckedProgram> CP = checkProgram(TC, P, Diags);
    ASSERT_TRUE(bool(CP)) << NP.Name << ": " << Diags.str();
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    TheoremConfig Config;
    Config.InjectionStride = 2;

    for (bool Prune : {false, true}) {
      CampaignOptions Base;
      Base.Prune = Prune;
      Base.Lanes = false;
      CampaignResult Baseline =
          runFaultToleranceCampaign(TC, *CP, Config, Base);

      CampaignOptions Opts;
      Opts.Prune = Prune;
      Opts.Lanes = true;
      Opts.LaneWidth = 4;
      Opts.Engine = Vm.get();
      Opts.Threads = 8;
      CampaignResult R = runFaultToleranceCampaign(TC, *CP, Config, Opts);

      std::string At =
          std::string(NP.Name) + (Prune ? "/pruned" : "/unpruned");
      EXPECT_EQ(R.Ok, Baseline.Ok) << At;
      EXPECT_EQ(R.Table, Baseline.Table) << At;
      EXPECT_EQ(R.Violations, Baseline.Violations) << At;
      EXPECT_TRUE(R.Ok) << At;
    }
  }
}

// Contract 5: the explicit-plan API — the double-fault ablation's path.
// Plan campaigns ignore both lanes and convergence: every
// {Converge, Lanes} combination of the ablation's cross-color
// double-fault sweep folds bit-identically (the regression pin for
// `ablation_double_fault --no-converge`).
TEST(LaneFold, DoubleFaultPlansIgnoreLanesAndConverge) {
  TypeContext TC;
  NamedProgram NP{"plans", progs::PairedStore, true};
  Program P = parseOrDie(TC, NP);
  PlanCampaign Spec;
  Spec.Prog = &P;
  CampaignResult Probe = runInjectionPlans(Spec, CampaignOptions());
  ASSERT_TRUE(Probe.Ok);
  for (uint64_t S1 = 0; S1 <= Probe.ReferenceSteps; S1 += 2)
    for (uint64_t S2 = S1; S2 <= Probe.ReferenceSteps; S2 += 2)
      Spec.Plans.push_back({{S1, FaultSite::reg(Reg::general(1)), 99},
                            {S2, FaultSite::reg(Reg::general(3)), 99}});

  CampaignOptions First;
  First.Converge = false;
  First.Lanes = false;
  CampaignResult Baseline = runInjectionPlans(Spec, First);
  EXPECT_GT(Baseline.Table.total(), 0u);
  EXPECT_FALSE(Baseline.Stats.Lanes);

  for (bool Converge : {false, true})
    for (bool Lanes : {false, true})
      for (unsigned Threads : {1u, 4u}) {
        CampaignOptions Opts;
        Opts.Converge = Converge;
        Opts.Lanes = Lanes;
        Opts.Threads = Threads;
        CampaignResult R = runInjectionPlans(Spec, Opts);
        std::string At = std::string("converge=") +
                         (Converge ? "1" : "0") + " lanes=" +
                         (Lanes ? "1" : "0") + " threads=" +
                         std::to_string(Threads);
        EXPECT_EQ(R.Ok, Baseline.Ok) << At;
        EXPECT_EQ(R.Table, Baseline.Table) << At;
        EXPECT_EQ(R.Violations, Baseline.Violations) << At;
      }
}

} // namespace
