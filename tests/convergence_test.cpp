//===- tests/convergence_test.cpp - Convergence acceleration oracle -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Convergence acceleration (the campaign's sparse differential replay) and
// the execution-strategy selection around it (lane groups for interpreted
// engines, scalar continuations under native JIT code) are only allowed to
// change wall-clock time, never a verdict. This suite pins that whole
// campaigns fold bit-identically with and without acceleration, across
// engines, thread counts, resume modes and pruning, and that every
// strategy the campaign can pick for the Figure 10 kernels lands on the
// structural interpreter's tables.
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

#include <memory>
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

// Accelerated campaigns fold bit-identically to unaccelerated ones — same
// verdict table, violations, reference run and Ok — across engines, thread
// counts and resume modes (runSingleFaultCampaign covers raw-semantics
// programs including the ill-typed one).
TEST(ConvergenceFold, SingleFaultCampaignsBitIdentical) {
  uint64_t TotalDischarged = 0;
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    TheoremConfig Config;
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized

    CampaignOptions Base;
    Base.Converge = false;
    CampaignResult Baseline = runSingleFaultCampaign(P, Config, Base);
    EXPECT_FALSE(Baseline.Stats.Converge) << NP.Name;

    struct Combo {
      const ExecEngine *E;
      unsigned Threads;
      ResumeMode Resume;
    };
    const Combo Combos[] = {
        {nullptr, 1, ResumeMode::Snapshot},
        {nullptr, 8, ResumeMode::Replay},
        {Vm.get(), 1, ResumeMode::Replay},
        {Vm.get(), 8, ResumeMode::Snapshot},
    };
    for (const Combo &C : Combos) {
      CampaignOptions Opts;
      Opts.Converge = true;
      Opts.Engine = C.E;
      Opts.Threads = C.Threads;
      Opts.Resume = C.Resume;
      CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
      std::string At = std::string(NP.Name) + " engine=" +
                       R.Stats.Engine + " threads=" +
                       std::to_string(C.Threads);
      EXPECT_EQ(R.Ok, Baseline.Ok) << At;
      EXPECT_EQ(R.ReferenceSteps, Baseline.ReferenceSteps) << At;
      EXPECT_EQ(R.ReferenceTrace, Baseline.ReferenceTrace) << At;
      EXPECT_EQ(R.Table, Baseline.Table) << At;
      EXPECT_EQ(R.Violations, Baseline.Violations) << At;
      EXPECT_TRUE(R.Stats.Converge) << At;
      TotalDischarged += R.Stats.EarlyExits + R.Stats.LockstepSkips;
    }
  }
  // The acceleration actually engaged somewhere in the sweep.
  EXPECT_GT(TotalDischarged, 0u);
}

// Same fold oracle for the typed-program entry point, plus pruning: a
// pruned accelerated campaign must equal a pruned unaccelerated one (the
// Masked/StaticallyMasked split depends on pruning, so the baselines
// pair up by Prune flag).
TEST(ConvergenceFold, FaultToleranceAndPrunedCampaignsBitIdentical) {
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
      Base.Converge = false;
      Base.Prune = Prune;
      CampaignResult Baseline =
          runFaultToleranceCampaign(TC, *CP, Config, Base);

      CampaignOptions Opts;
      Opts.Converge = true;
      Opts.Prune = Prune;
      Opts.Engine = Vm.get();
      Opts.Threads = 8;
      CampaignResult R = runFaultToleranceCampaign(TC, *CP, Config, Opts);

      std::string At =
          std::string(NP.Name) + (Prune ? "/pruned" : "/unpruned");
      EXPECT_EQ(R.Ok, Baseline.Ok) << At;
      EXPECT_EQ(R.ReferenceSteps, Baseline.ReferenceSteps) << At;
      EXPECT_EQ(R.ReferenceTrace, Baseline.ReferenceTrace) << At;
      EXPECT_EQ(R.Table, Baseline.Table) << At;
      EXPECT_EQ(R.Violations, Baseline.Violations) << At;
      EXPECT_TRUE(R.Ok) << At;
    }
  }
}

// Strategy selection on every Figure 10 kernel at a coarse stride: native
// JIT continuations run scalar, the vm engine batches lanes, and so does
// the JIT under --cfi-check (which routes it to its vm fallback); all land
// on the structural interpreter's tables with lanes and convergence off.
TEST(ConvergenceFold, StrategySelectionFoldsOnFig10) {
  uint64_t VmLaneTasks = 0, CfiLaneTasks = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << K.Name << ": " << CP.message();
    const Program &P = CP->Prog;
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    if (!Jit.native())
      GTEST_SKIP() << "JIT tier unavailable on this host; the native "
                      "strategy cannot be selected";

    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << K.Name;
    MachineState S = *S0;
    TheoremConfig Config;
    RunResult Ref = Vm.run(S, P.exitAddress(), Config.MaxSteps, Config.Policy);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << K.Name;
    Config.InjectionStride = std::max<uint64_t>(1, Ref.Steps / 4);

    CampaignOptions Plain;
    Plain.Prune = true;
    Plain.Converge = false;
    Plain.Lanes = false;
    Plain.Threads = 4;
    CampaignResult Baseline = runSingleFaultCampaign(P, Config, Plain);

    CampaignOptions Default;
    Default.Prune = true;
    Default.Engine = &Vm;
    CampaignResult OnVm = runSingleFaultCampaign(P, Config, Default);
    Default.Engine = &Jit;
    CampaignResult OnJit = runSingleFaultCampaign(P, Config, Default);
    Default.CfiCheck = true;
    CampaignResult OnJitCfi = runSingleFaultCampaign(P, Config, Default);

    for (const CampaignResult *R : {&OnVm, &OnJit, &OnJitCfi}) {
      std::string At = K.Name + " engine=" + R->Stats.Engine;
      EXPECT_EQ(R->Ok, Baseline.Ok) << At;
      EXPECT_EQ(R->ReferenceSteps, Baseline.ReferenceSteps) << At;
      EXPECT_EQ(R->Table, Baseline.Table) << At;
      EXPECT_EQ(R->Violations, Baseline.Violations) << At;
      EXPECT_EQ(R->ProgramHash, Baseline.ProgramHash) << At;
    }
    EXPECT_TRUE(OnVm.Stats.Lanes) << K.Name;
    EXPECT_TRUE(OnJit.Stats.JitNative) << K.Name;
    EXPECT_FALSE(OnJit.Stats.Lanes) << K.Name;
    EXPECT_EQ(OnJit.Stats.LaneTasks, 0u) << K.Name;
    // A CFI table the analysis could not build leaves the JIT native.
    EXPECT_EQ(OnJitCfi.Stats.Lanes, OnJitCfi.Stats.CfiChecked) << K.Name;
    VmLaneTasks += OnVm.Stats.LaneTasks;
    CfiLaneTasks += OnJitCfi.Stats.LaneTasks;
  }
  EXPECT_GT(VmLaneTasks, 0u);
  EXPECT_GT(CfiLaneTasks, 0u);
}

} // namespace
