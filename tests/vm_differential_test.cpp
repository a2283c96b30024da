//===- tests/vm_differential_test.cpp - VM vs. reference, bit for bit -----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The differential oracle for the decoded engine (vm/Engine.h): the VM is
// only allowed to exist because it is observationally indistinguishable
// from the structural interpreter. Every shared test program runs on both
// engines in lockstep — same rule names, same outputs, same full machine
// states after every transition, on fault-free and fault-injected runs,
// under both wild-load policies — and whole campaigns must produce
// identical verdict tables on either engine.
//
//===----------------------------------------------------------------------===//

#include "check/ProgramChecker.h"
#include "fault/Campaign.h"
#include "sim/ExecEngine.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct NamedProgram {
  const char *Name;
  const char *Source;
  /// False for programs the checker rejects (they still run raw).
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

/// Field-by-field state equality (MachineState has no operator==; the
/// fields all do).
void expectSameState(const MachineState &A, const MachineState &B,
                     const std::string &Where) {
  ASSERT_EQ(A.Faulted, B.Faulted) << Where;
  if (A.Faulted)
    return;
  EXPECT_EQ(A.Regs, B.Regs) << Where;
  EXPECT_EQ(A.Mem, B.Mem) << Where;
  EXPECT_EQ(A.Queue, B.Queue) << Where;
  EXPECT_EQ(A.IR.has_value(), B.IR.has_value()) << Where;
  if (A.IR && B.IR) {
    EXPECT_EQ(*A.IR, *B.IR) << Where;
  }
}

/// Steps both engines in lockstep for \p MaxSteps transitions (or until
/// both stop), comparing the StepResult and the full state after every
/// transition.
void lockstep(const ExecEngine &Vm, MachineState Ref, MachineState VmS,
              const StepPolicy &Policy, uint64_t MaxSteps,
              const std::string &Where) {
  for (uint64_t I = 0; I != MaxSteps; ++I) {
    StepResult RR = referenceEngine().step(Ref, Policy);
    StepResult VR = Vm.step(VmS, Policy);
    std::string At = Where + " step " + std::to_string(I);
    ASSERT_EQ(RR.Status, VR.Status) << At;
    EXPECT_EQ(RR.Output.has_value(), VR.Output.has_value()) << At;
    if (RR.Output && VR.Output) {
      EXPECT_EQ(*RR.Output, *VR.Output) << At;
    }
    // Rule names are part of the observable contract (they name the
    // paper's operational rules).
    if (RR.Rule || VR.Rule) {
      ASSERT_NE(RR.Rule, nullptr) << At;
      ASSERT_NE(VR.Rule, nullptr) << At;
      EXPECT_STREQ(RR.Rule, VR.Rule) << At;
    }
    expectSameState(Ref, VmS, At);
    if (RR.Status != StepStatus::Ok)
      return;
  }
}

TEST(VmDifferential, LockstepFaultFree) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    for (WildLoadPolicy WL : {WildLoadPolicy::Trap, WildLoadPolicy::Garbage}) {
      StepPolicy Policy;
      Policy.WildLoad = WL;
      Expected<MachineState> S = P.initialState();
      ASSERT_TRUE(bool(S)) << NP.Name;
      // 400 steps rolls every program through its exit self-loop.
      lockstep(*Vm, *S, *S, Policy, 400,
               std::string(NP.Name) + (WL == WildLoadPolicy::Trap
                                           ? "/trap"
                                           : "/garbage"));
    }
  }
}

TEST(VmDifferential, RunResultsAndMidPairBudgets) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << NP.Name;
    // Odd budgets deliberately expire between a fetch and its execution:
    // the VM must leave the same materialized instruction register behind.
    for (uint64_t Budget : {0ull, 1ull, 2ull, 3ull, 7ull, 17ull, 40ull,
                            101ull, 5000ull}) {
      MachineState Ref = *S0, VmS = *S0;
      RunResult RR = referenceEngine().run(Ref, P.exitAddress(), Budget,
                                           StepPolicy());
      RunResult VR = Vm->run(VmS, P.exitAddress(), Budget, StepPolicy());
      std::string At =
          std::string(NP.Name) + " budget " + std::to_string(Budget);
      EXPECT_EQ(RR.Status, VR.Status) << At;
      EXPECT_EQ(RR.Steps, VR.Steps) << At;
      EXPECT_EQ(RR.Trace, VR.Trace) << At;
      expectSameState(Ref, VmS, At);

      // replaySteps must stop at the same point with the same outputs.
      MachineState Ref2 = *S0, VmS2 = *S0;
      OutputTrace RefT, VmT;
      ReplayResult Rp = referenceEngine().replaySteps(Ref2, Budget, RefT,
                                                      StepPolicy());
      ReplayResult Vp = Vm->replaySteps(VmS2, Budget, VmT, StepPolicy());
      EXPECT_EQ(Rp.Last, Vp.Last) << At;
      EXPECT_EQ(Rp.Taken, Vp.Taken) << At;
      EXPECT_EQ(RefT, VmT) << At;
      expectSameState(Ref2, VmS2, At + " (replay)");
    }
  }
}

TEST(VmDifferential, LockstepUnderRandomSingleFaults) {
  std::mt19937 Rng(20070611); // PLDI 2007, for reproducibility
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << NP.Name;

    MachineState Probe = *S0;
    RunResult Ref = referenceEngine().run(Probe, P.exitAddress(), 100000,
                                          StepPolicy());
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << NP.Name;

    std::vector<int64_t> Values = representativeCorruptions(P);
    for (int Trial = 0; Trial != 60; ++Trial) {
      uint64_t At = std::uniform_int_distribution<uint64_t>(
          0, Ref.Steps)(Rng);
      MachineState S = *S0;
      OutputTrace Prefix;
      referenceEngine().replaySteps(S, At, Prefix, StepPolicy());
      std::vector<FaultSite> Sites = enumerateFaultSites(S);
      ASSERT_FALSE(Sites.empty());
      const FaultSite &Site = Sites[std::uniform_int_distribution<size_t>(
          0, Sites.size() - 1)(Rng)];
      int64_t V = Values[std::uniform_int_distribution<size_t>(
          0, Values.size() - 1)(Rng)];
      if (V == currentValueAt(S, Site))
        continue;
      injectFault(S, Site, V);
      // Corrupted pcs, queue entries and mid-pair instruction registers
      // all flow through here; both engines must agree step for step.
      lockstep(*Vm, S, S, StepPolicy(), 300,
               std::string(NP.Name) + " trial " + std::to_string(Trial));
    }
  }
}

TEST(VmDifferential, InjectionPlanCampaignsAgree) {
  std::mt19937 Rng(8102006);
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());

    MachineState Probe = *P.initialState();
    RunResult Ref = referenceEngine().run(Probe, P.exitAddress(), 100000,
                                          StepPolicy());
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << NP.Name;

    PlanCampaign Spec;
    Spec.Prog = &P;
    std::vector<int64_t> Values = representativeCorruptions(P);
    for (int I = 0; I != 120; ++I) {
      uint64_t At =
          std::uniform_int_distribution<uint64_t>(0, Ref.Steps)(Rng);
      Reg R = Reg::fromDenseIndex(std::uniform_int_distribution<unsigned>(
          0, Reg::NumRegs - 1)(Rng));
      int64_t V = Values[std::uniform_int_distribution<size_t>(
          0, Values.size() - 1)(Rng)];
      Spec.Plans.push_back({{At, FaultSite::reg(R), V}});
    }

    CampaignOptions RefOpts;
    CampaignResult OnRef = runInjectionPlans(Spec, RefOpts);
    CampaignOptions VmOpts;
    VmOpts.Engine = Vm.get();
    CampaignResult OnVm = runInjectionPlans(Spec, VmOpts);

    EXPECT_EQ(OnRef.Ok, OnVm.Ok) << NP.Name;
    EXPECT_EQ(OnRef.ReferenceSteps, OnVm.ReferenceSteps) << NP.Name;
    EXPECT_EQ(OnRef.ReferenceTrace, OnVm.ReferenceTrace) << NP.Name;
    EXPECT_EQ(OnRef.Table, OnVm.Table) << NP.Name;
    EXPECT_EQ(OnRef.Violations, OnVm.Violations) << NP.Name;
    EXPECT_STREQ(OnRef.Stats.Engine, "reference");
    EXPECT_STREQ(OnVm.Stats.Engine, "vm");
  }
}

TEST(VmDifferential, FaultToleranceCampaignsAgree) {
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
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized

    for (ResumeMode Resume : {ResumeMode::Snapshot, ResumeMode::Replay}) {
      CampaignOptions RefOpts;
      RefOpts.Resume = Resume;
      CampaignResult OnRef =
          runFaultToleranceCampaign(TC, *CP, Config, RefOpts);
      CampaignOptions VmOpts;
      VmOpts.Resume = Resume;
      VmOpts.Engine = Vm.get();
      CampaignResult OnVm =
          runFaultToleranceCampaign(TC, *CP, Config, VmOpts);

      std::string At = std::string(NP.Name) +
                       (Resume == ResumeMode::Snapshot ? "/snapshot"
                                                       : "/replay");
      EXPECT_EQ(OnRef.Ok, OnVm.Ok) << At;
      EXPECT_EQ(OnRef.ReferenceSteps, OnVm.ReferenceSteps) << At;
      EXPECT_EQ(OnRef.ReferenceTrace, OnVm.ReferenceTrace) << At;
      EXPECT_EQ(OnRef.Table, OnVm.Table) << At;
      EXPECT_EQ(OnRef.Violations, OnVm.Violations) << At;
      EXPECT_TRUE(OnVm.Ok) << At;
    }
  }
}

//===----------------------------------------------------------------------===//
// JIT tier vs vm: the native engine is held to the same oracle the vm was
// held to against the reference. step() delegates, so the interesting
// surfaces are the fused loops: run / replaySteps / runContinuation from
// clean, mid-pair and fault-corrupted states, plus whole campaigns. On
// hosts without the native tier the engine degenerates to the vm engine;
// the differential would pass vacuously, so we skip with a visible notice.
//===----------------------------------------------------------------------===//

/// Compares every fused-loop surface of \p A and \p B from \p S0 across a
/// budget ladder that covers empty, mid-pair and unconstrained runs.
void compareFusedLoops(const ExecEngine &A, const ExecEngine &B,
                       const MachineState &S0, Addr Exit,
                       const StepPolicy &Policy, const std::string &Where) {
  for (uint64_t Budget :
       {0ull, 1ull, 2ull, 3ull, 17ull, 301ull, 100000ull}) {
    std::string At = Where + " budget " + std::to_string(Budget);
    {
      MachineState SA = S0, SB = S0;
      RunResult RA = A.run(SA, Exit, Budget, Policy);
      RunResult RB = B.run(SB, Exit, Budget, Policy);
      ASSERT_EQ(RA.Status, RB.Status) << At << " (run)";
      ASSERT_EQ(RA.Steps, RB.Steps) << At << " (run)";
      EXPECT_EQ(RA.Trace, RB.Trace) << At << " (run)";
      expectSameState(SA, SB, At + " (run)");
    }
    {
      MachineState SA = S0, SB = S0;
      OutputTrace TA, TB;
      ReplayResult RA = A.replaySteps(SA, Budget, TA, Policy);
      ReplayResult RB = B.replaySteps(SB, Budget, TB, Policy);
      ASSERT_EQ(RA.Last, RB.Last) << At << " (replay)";
      ASSERT_EQ(RA.Taken, RB.Taken) << At << " (replay)";
      EXPECT_EQ(TA, TB) << At << " (replay)";
      expectSameState(SA, SB, At + " (replay)");
    }
    {
      MachineState SA = S0, SB = S0;
      OutputTrace TA, TB;
      RunStatus RA = A.runContinuation(
          SA, Exit, Budget, Policy,
          [&](const QueueEntry &Q) { TA.push_back(Q); });
      RunStatus RB = B.runContinuation(
          SB, Exit, Budget, Policy,
          [&](const QueueEntry &Q) { TB.push_back(Q); });
      ASSERT_EQ(RA, RB) << At << " (continuation)";
      EXPECT_EQ(TA, TB) << At << " (continuation)";
      expectSameState(SA, SB, At + " (continuation)");
    }
  }
}

#define TALFT_REQUIRE_JIT(Jit)                                                 \
  do {                                                                         \
    if (!(Jit).native())                                                       \
      GTEST_SKIP() << "JIT tier unavailable on this host (non-x86-64 or "      \
                      "W^X mapping refused); jit==vm by fallback";             \
  } while (0)

TEST(JitDifferential, FusedLoopsMatchVm) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    TALFT_REQUIRE_JIT(Jit);
    for (WildLoadPolicy WL : {WildLoadPolicy::Trap, WildLoadPolicy::Garbage}) {
      StepPolicy Policy;
      Policy.WildLoad = WL;
      Expected<MachineState> S = P.initialState();
      ASSERT_TRUE(bool(S)) << NP.Name;
      compareFusedLoops(Vm, Jit, *S, P.exitAddress(), Policy,
                        std::string(NP.Name) +
                            (WL == WildLoadPolicy::Trap ? "/trap"
                                                        : "/garbage"));
    }
  }
}

TEST(JitDifferential, FusedLoopsUnderRandomSingleFaults) {
  std::mt19937 Rng(20070612);
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    TALFT_REQUIRE_JIT(Jit);
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << NP.Name;

    MachineState Probe = *S0;
    RunResult Ref =
        referenceEngine().run(Probe, P.exitAddress(), 100000, StepPolicy());
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << NP.Name;

    std::vector<int64_t> Values = representativeCorruptions(P);
    for (int Trial = 0; Trial != 40; ++Trial) {
      uint64_t At =
          std::uniform_int_distribution<uint64_t>(0, Ref.Steps)(Rng);
      MachineState S = *S0;
      OutputTrace Prefix;
      referenceEngine().replaySteps(S, At, Prefix, StepPolicy());
      std::vector<FaultSite> Sites = enumerateFaultSites(S);
      ASSERT_FALSE(Sites.empty());
      const FaultSite &Site = Sites[std::uniform_int_distribution<size_t>(
          0, Sites.size() - 1)(Rng)];
      int64_t V = Values[std::uniform_int_distribution<size_t>(
          0, Values.size() - 1)(Rng)];
      if (V == currentValueAt(S, Site))
        continue;
      injectFault(S, Site, V);
      compareFusedLoops(Vm, Jit, S, P.exitAddress(), StepPolicy(),
                        std::string(NP.Name) + " trial " +
                            std::to_string(Trial));
    }
  }
}

TEST(JitDifferential, CampaignsAgreeWithVm) {
  for (const NamedProgram &NP : allPrograms()) {
    if (!NP.WellTyped)
      continue;
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    DiagnosticEngine Diags;
    Expected<CheckedProgram> CP = checkProgram(TC, P, Diags);
    ASSERT_TRUE(bool(CP)) << NP.Name << ": " << Diags.str();
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    TALFT_REQUIRE_JIT(Jit);

    TheoremConfig Config;
    Config.InjectionStride = 2;

    for (ResumeMode Resume : {ResumeMode::Snapshot, ResumeMode::Replay}) {
      CampaignOptions VmOpts;
      VmOpts.Resume = Resume;
      VmOpts.Engine = &Vm;
      CampaignResult OnVm = runFaultToleranceCampaign(TC, *CP, Config, VmOpts);
      CampaignOptions JitOpts;
      JitOpts.Resume = Resume;
      JitOpts.Engine = &Jit;
      CampaignResult OnJit =
          runFaultToleranceCampaign(TC, *CP, Config, JitOpts);

      std::string At = std::string(NP.Name) +
                       (Resume == ResumeMode::Snapshot ? "/snapshot"
                                                       : "/replay");
      EXPECT_EQ(OnVm.Ok, OnJit.Ok) << At;
      EXPECT_EQ(OnVm.ReferenceSteps, OnJit.ReferenceSteps) << At;
      EXPECT_EQ(OnVm.ReferenceTrace, OnJit.ReferenceTrace) << At;
      EXPECT_EQ(OnVm.Table, OnJit.Table) << At;
      EXPECT_EQ(OnVm.Violations, OnJit.Violations) << At;
      EXPECT_STREQ(OnJit.Stats.Engine, "jit") << At;
      EXPECT_TRUE(OnJit.Ok) << At;
    }
  }
}

TEST(JitDifferential, Fig10KernelCampaignsAgreeWithVm) {
  // The full engine ladder over every Figure 10 kernel: the jit campaign
  // (default options: scalar native continuations) must fold
  // bit-identically onto the vm campaign (default options: lane groups).
  unsigned Checked = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << K.Name << ": " << CP.message();
    vm::Engine Vm(CP->Prog.code());
    vm::JitEngine Jit(CP->Prog.code());
    TALFT_REQUIRE_JIT(Jit);
    EXPECT_GT(Jit.blocksCompiled(), 0u) << K.Name;

    // Same adaptive-stride rule as fault_coverage --fig10, thinned 2x to
    // keep the 15-kernel double sweep test-sized.
    TheoremConfig ProbeCfg;
    Expected<MachineState> S0 = CP->Prog.initialState();
    ASSERT_TRUE(bool(S0)) << K.Name;
    MachineState S = *S0;
    RunResult RefVm = Vm.run(S, CP->Prog.exitAddress(), ProbeCfg.MaxSteps,
                             ProbeCfg.Policy);
    ASSERT_EQ(RefVm.Status, RunStatus::Halted) << K.Name;
    MachineState SJ = *S0;
    RunResult RefJit = Jit.run(SJ, CP->Prog.exitAddress(), ProbeCfg.MaxSteps,
                               ProbeCfg.Policy);
    ASSERT_EQ(RefJit.Status, RunStatus::Halted) << K.Name;
    ASSERT_EQ(RefVm.Steps, RefJit.Steps) << K.Name;
    ASSERT_EQ(RefVm.Trace, RefJit.Trace) << K.Name;
    expectSameState(S, SJ, K.Name + std::string(" reference run"));

    TheoremConfig Config;
    Config.InjectionStride = std::max<uint64_t>(1, RefVm.Steps / 6);
    CampaignOptions VmOpts;
    VmOpts.Engine = &Vm;
    CampaignResult OnVm = runSingleFaultCampaign(CP->Prog, Config, VmOpts);
    CampaignOptions JitOpts;
    JitOpts.Engine = &Jit;
    CampaignResult OnJit = runSingleFaultCampaign(CP->Prog, Config, JitOpts);

    EXPECT_EQ(OnVm.Ok, OnJit.Ok) << K.Name;
    EXPECT_EQ(OnVm.ReferenceSteps, OnJit.ReferenceSteps) << K.Name;
    EXPECT_EQ(OnVm.Table, OnJit.Table) << K.Name;
    EXPECT_EQ(OnVm.Violations, OnJit.Violations) << K.Name;
    ++Checked;
  }
  EXPECT_EQ(Checked, wile::benchmarkKernels().size());
}

} // namespace
