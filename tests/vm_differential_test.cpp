//===- tests/vm_differential_test.cpp - VM vs. reference, bit for bit -----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The differential oracle for the engines (sim/ExecEngine.h): the vm and
// the JIT are only allowed to exist because they are observationally
// indistinguishable from the structural interpreter. Every shared test
// program runs on the vm in lockstep with talft::step — same rule names,
// same outputs, same full machine states after every transition, on
// fault-free and fault-injected runs, under both wild-load policies. Each
// engine's one run loop, and the run() built on it, is held against the
// spec drivers talft::run and talft::replaySteps over a budget ladder, and
// whole campaigns must produce identical verdict tables on every engine.
//
//===----------------------------------------------------------------------===//

#include "check/ProgramChecker.h"
#include "fault/CampaignFields.h"
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

/// Steps \p Vm in lockstep with talft::step for \p MaxSteps transitions
/// (or until both stop), comparing the StepResult and the full state after
/// every transition.
void lockstep(const ExecEngine &Vm, MachineState Ref, MachineState VmS,
              const StepPolicy &Policy, uint64_t MaxSteps,
              const std::string &Where) {
  for (uint64_t I = 0; I != MaxSteps; ++I) {
    StepResult RR = talft::step(Ref, Policy);
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

/// Holds \p E's run loop against the spec from \p S0 for each budget of
/// \p Budgets: run() against talft::run; runContinuation() with the exit
/// against talft::run, which checks the budget first where the loop checks
/// the exit first; and runContinuation() with exit address 0 against
/// talft::replaySteps. Odd budgets expire between a fetch and its
/// execution, where every engine must leave the same materialized
/// instruction register behind.
void expectLoopsMatchSpec(const ExecEngine &E, const MachineState &S0,
                          Addr Exit, const StepPolicy &Policy,
                          const std::vector<uint64_t> &Budgets,
                          const std::string &Where) {
  auto Record = [](OutputTrace &T) {
    return [&T](const QueueEntry &Q) { T.push_back(Q); };
  };
  for (uint64_t Budget : Budgets) {
    std::string At =
        Where + " " + E.name() + " budget " + std::to_string(Budget);
    MachineState Spec = S0;
    RunResult Want = talft::run(Spec, Exit, Budget, Policy);
    {
      MachineState S = S0;
      RunResult Got = E.run(S, Exit, Budget, Policy);
      ASSERT_EQ(Got.Status, Want.Status) << At << " (run)";
      ASSERT_EQ(Got.Steps, Want.Steps) << At << " (run)";
      EXPECT_EQ(Got.Trace, Want.Trace) << At << " (run)";
      expectSameState(S, Spec, At + " (run)");
    }
    {
      // Reaching the exit with the budget spent halts a continuation.
      RunStatus WantSt =
          Want.Status == RunStatus::OutOfSteps && atExit(Spec, Exit)
              ? RunStatus::Halted
              : Want.Status;
      MachineState S = S0;
      OutputTrace Trace;
      ExecEngine::ContinuationResult Got =
          E.runContinuation(S, Exit, Budget, Policy, Record(Trace));
      ASSERT_EQ(Got.Status, WantSt) << At << " (continuation)";
      ASSERT_EQ(Got.Steps, Want.Steps) << At << " (continuation)";
      EXPECT_EQ(Trace, Want.Trace) << At << " (continuation)";
      expectSameState(S, Spec, At + " (continuation)");
    }
    {
      MachineState SpecR = S0, S = S0;
      OutputTrace WantT, Trace;
      ReplayResult WantR = talft::replaySteps(SpecR, Budget, WantT, Policy);
      RunStatus WantSt = WantR.Last == StepStatus::Fault
                             ? RunStatus::FaultDetected
                         : WantR.Last == StepStatus::Stuck
                             ? RunStatus::Stuck
                             : RunStatus::OutOfSteps;
      ExecEngine::ContinuationResult Got =
          E.runContinuation(S, /*ExitAddr=*/0, Budget, Policy, Record(Trace));
      ASSERT_EQ(Got.Status, WantSt) << At << " (replay)";
      ASSERT_EQ(Got.Steps, WantR.Taken) << At << " (replay)";
      EXPECT_EQ(Trace, WantT) << At << " (replay)";
      expectSameState(S, SpecR, At + " (replay)");
    }
  }
}

/// States whose program counters a fault corrupted, taken from the clean
/// run of \p S0 at fetch boundaries and mid-pair (an instruction in
/// flight): one pc moved (the next fetch fails), both pcs moved off the
/// code (the next fetch is stuck) and both moved to the exit block.
std::vector<std::pair<std::string, MachineState>>
pcCorruptedStates(const MachineState &S0, Addr Exit, uint64_t HaltSteps) {
  std::vector<std::pair<std::string, MachineState>> Out;
  for (uint64_t At : {uint64_t(0), uint64_t(1), HaltSteps / 2,
                      HaltSteps / 2 + 1, HaltSteps - 1}) {
    MachineState S = S0;
    OutputTrace Prefix;
    talft::replaySteps(S, At, Prefix);
    std::string Tag = "pc fault at " + std::to_string(At);
    MachineState G = S, B = S, Off = S, ToExit = S;
    injectFault(G, FaultSite::reg(Reg::pcG()), S.pcG().N + 1);
    injectFault(B, FaultSite::reg(Reg::pcB()), Exit);
    injectFault(Off, FaultSite::reg(Reg::pcG()), 0);
    injectFault(Off, FaultSite::reg(Reg::pcB()), 0);
    injectFault(ToExit, FaultSite::reg(Reg::pcG()), Exit);
    injectFault(ToExit, FaultSite::reg(Reg::pcB()), Exit);
    Out.emplace_back(Tag + " (pcG+1)", std::move(G));
    Out.emplace_back(Tag + " (pcB=exit)", std::move(B));
    Out.emplace_back(Tag + " (both off code)", std::move(Off));
    Out.emplace_back(Tag + " (both at exit)", std::move(ToExit));
  }
  return Out;
}

TEST(EngineSpec, LoopsMatchSpecOnBudgetLadder) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    std::vector<const ExecEngine *> Engines = {&referenceEngine(), &Vm, &Jit};
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << NP.Name;
    MachineState Probe = *S0;
    RunResult Clean = talft::run(Probe, P.exitAddress(), 100000);
    ASSERT_EQ(Clean.Status, RunStatus::Halted) << NP.Name;
    uint64_t H = Clean.Steps;

    // The exact halting step count and its neighbours separate the two
    // check orders: with budget H talft::run is out of steps at the exit.
    std::vector<uint64_t> Budgets = {0,     1,     2,     3,  7,  17,
                                     40,    101,   H - 1, H,  H + 1,
                                     100000};
    std::vector<std::pair<std::string, MachineState>> States = {
        {"clean", *S0}};
    for (auto &C : pcCorruptedStates(*S0, P.exitAddress(), H))
      States.push_back(std::move(C));
    for (WildLoadPolicy WL : {WildLoadPolicy::Trap, WildLoadPolicy::Garbage}) {
      StepPolicy Policy;
      Policy.WildLoad = WL;
      for (const auto &[Tag, S] : States)
        for (const ExecEngine *E : Engines)
          expectLoopsMatchSpec(
              *E, S, P.exitAddress(), Policy, Budgets,
              std::string(NP.Name) + " " + Tag +
                  (WL == WildLoadPolicy::Trap ? " /trap" : " /garbage"));
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
    RunResult Ref = talft::run(Probe, P.exitAddress(), 100000);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << NP.Name;

    std::vector<int64_t> Values = representativeCorruptions(P);
    for (int Trial = 0; Trial != 60; ++Trial) {
      uint64_t At = std::uniform_int_distribution<uint64_t>(
          0, Ref.Steps)(Rng);
      MachineState S = *S0;
      OutputTrace Prefix;
      talft::replaySteps(S, At, Prefix);
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
    RunResult Ref = talft::run(Probe, P.exitAddress(), 100000);
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

    EXPECT_EQ(campaignDiff(OnRef, OnVm, FieldClass::Outcome), "") << NP.Name;
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
      EXPECT_EQ(campaignDiff(OnRef, OnVm, FieldClass::Outcome), "") << At;
      EXPECT_TRUE(OnVm.Ok) << At;
    }
  }
}

//===----------------------------------------------------------------------===//
// JIT tier vs vm: the native engine is held to the spec like the others
// (EngineSpec above, and the random single faults below), and whole
// campaigns must fold onto the vm's. On hosts without the native tier the
// engine degenerates to the vm engine; the campaign comparisons would pass
// vacuously, so they skip with a visible notice.
//===----------------------------------------------------------------------===//

#define TALFT_REQUIRE_JIT(Jit)                                                 \
  do {                                                                         \
    if (!(Jit).native())                                                       \
      GTEST_SKIP() << "JIT tier unavailable on this host (non-x86-64 or "      \
                      "W^X mapping refused); jit==vm by fallback";             \
  } while (0)

TEST(EngineSpec, LoopsMatchSpecUnderRandomSingleFaults) {
  std::mt19937 Rng(20070612);
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    std::vector<const ExecEngine *> Engines = {&referenceEngine(), &Vm, &Jit};
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << NP.Name;

    MachineState Probe = *S0;
    RunResult Ref = talft::run(Probe, P.exitAddress(), 100000);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << NP.Name;

    std::vector<int64_t> Values = representativeCorruptions(P);
    for (int Trial = 0; Trial != 40; ++Trial) {
      uint64_t At =
          std::uniform_int_distribution<uint64_t>(0, Ref.Steps)(Rng);
      MachineState S = *S0;
      OutputTrace Prefix;
      talft::replaySteps(S, At, Prefix);
      std::vector<FaultSite> Sites = enumerateFaultSites(S);
      ASSERT_FALSE(Sites.empty());
      const FaultSite &Site = Sites[std::uniform_int_distribution<size_t>(
          0, Sites.size() - 1)(Rng)];
      int64_t V = Values[std::uniform_int_distribution<size_t>(
          0, Values.size() - 1)(Rng)];
      if (V == currentValueAt(S, Site))
        continue;
      injectFault(S, Site, V);
      // The ladder covers empty, mid-pair and unconstrained runs.
      for (const ExecEngine *E : Engines)
        expectLoopsMatchSpec(*E, S, P.exitAddress(), StepPolicy(),
                             {0, 1, 2, 3, 17, 301, 100000},
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
      EXPECT_EQ(campaignDiff(OnVm, OnJit, FieldClass::Outcome), "") << At;
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

    EXPECT_EQ(campaignDiff(OnVm, OnJit, FieldClass::Outcome), "") << K.Name;
    ++Checked;
  }
  EXPECT_EQ(Checked, wile::benchmarkKernels().size());
}

} // namespace
