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
#include "fault/CampaignFields.h"
#include "sim/ExecEngine.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include "CoveragePrograms.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

// Programs aimed at the replay's settle rules (see replaySite in
// src/fault/Campaign.cpp). Each one reaches a case where the replay must
// hand a faulty run to concrete simulation instead of deciding it at a
// check, or exercises the wild-load rule under both policies; a rule
// that decided such a run early would change its verdict.

/// An ldG forwards the pending green entry into the blue store's value:
/// a corrupted r1 is committed (silent corruption), so the stG cannot be
/// decided at its partner when a load lies between them.
const char *ForwardedStoreValue = R"(
entry main
exit done

data {
  256: int = 0
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  ldG r3, r2
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
)";

/// An ALU op between the paired stores computes the blue value from the
/// green register: the lane's own event between the pair retaints the
/// partner's operand, so its view at the stG is stale by the partner.
const char *ComputeBetweenPair = R"(
entry main
exit done

data {
  256: int = 0
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  add r3, r1, B 0
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
)";

/// jmpG and jmpB through one register: a corrupted r10 moves into d and
/// matches itself at the jmpB, which commits to the wrong block (here one
/// that skips the store).
const char *JmpSameReg = R"(
entry main
exit done

data {
  256: int = 0
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r10, G @store
  jmpG r10
  jmpB r10
}

block store {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 7
  mov r2, G 256
  stG r2, r1
  mov r3, B 7
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
)";

/// A green bz whose target register is blue, falling through into the
/// exit block. Zapping the green test to 0 takes the branch: d becomes
/// the blue target while the reference's d stays G 0, and the run halts
/// with d's color changed (dissimilar state). Only the recorded
/// col(Rd) == col(d) bit tells the replay that d's color moved.
const char *BlueTargetIntoD = R"(
entry main
exit done

data {
  256: int = 0
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 1
  mov r5, B @main
  bzG r1, r5
}
)";

/// The other direction: the reference takes the green branch, so its d
/// becomes the blue target, and zapping the blue test to 1 falls through
/// with d still G 0. Under the blue zap tag the payloads alone would be
/// similar; the colors are not.
const char *BlueTargetSkipped = R"(
entry main
exit done

data {
  256: int = 0
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, B 0
  mov r5, B @main
  bzG r1, r5
}
)";

/// Loads whose corrupted address leaves the data region: they trap under
/// WildLoadPolicy::Trap and load the garbage value under Garbage. The
/// cell at 256 holds the garbage value itself, so a wild load replacing
/// it leaves the output unchanged. The first store defines 257, outside
/// the initial data, so a load zapped to 257 is not wild.
const char *GarbageWild = R"(
entry main
exit done

data {
  256: int = 57005
  260: int = 7
}

block main {
  pre { forall m: mem; queue []; mem m }
  mov r15, G 257
  mov r16, G 3
  stG r15, r16
  mov r17, B 257
  mov r18, B 3
  stB r17, r18
  mov r1, G 256
  ldG r2, r1
  mov r3, G 260
  ldG r4, r3
  add r5, r2, r4
  mov r6, B 256
  ldB r7, r6
  mov r8, B 260
  ldB r9, r8
  add r10, r7, r9
  mov r11, G 256
  stG r11, r5
  mov r12, B 256
  stB r12, r10
  mov r13, G @done
  mov r14, B @done
  jmpG r13
  jmpB r14
}
)";

struct NamedProgram {
  const char *Name;
  std::string Source;
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
      {"ForwardedStoreValue",
       std::string(ForwardedStoreValue) + progs::ExitBlock, false},
      {"ComputeBetweenPair",
       std::string(ComputeBetweenPair) + progs::ExitBlock, false},
      {"JmpSameReg", std::string(JmpSameReg) + progs::ExitBlock, false},
      {"BlueTargetIntoD", std::string(BlueTargetIntoD) + progs::ExitBlock,
       false},
      {"BlueTargetSkipped",
       std::string(BlueTargetSkipped) + progs::ExitBlock, false},
      {"GarbageWild", std::string(GarbageWild) + progs::ExitBlock, false},
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
// counts, resume modes, injection strides and wild-load policies
// (runSingleFaultCampaign covers raw-semantics programs including the
// ill-typed ones). No Figure 10 default reaches a Garbage wild load, so
// the Garbage pass is the one that covers the replay's rule for it.
TEST(ConvergenceFold, SingleFaultCampaignsBitIdentical) {
  uint64_t TotalDischarged = 0;
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    // Stride 1 puts two injection snapshots at every record boundary
    // (after the fetch and after the execute of each instruction) and the
    // last ones past the final record; stride 2 puts one at each.
    for (auto [Stride, WildLoad] :
         {std::pair{1, WildLoadPolicy::Trap}, {2, WildLoadPolicy::Trap},
          {1, WildLoadPolicy::Garbage}, {2, WildLoadPolicy::Garbage}}) {
      TheoremConfig Config;
      Config.InjectionStride = Stride;
      Config.Policy.WildLoad = WildLoad;

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
        std::string At =
            std::string(NP.Name) + " engine=" + R.Stats.Engine +
            " threads=" + std::to_string(C.Threads) +
            " stride=" + std::to_string(Stride) + " wild=" +
            (WildLoad == WildLoadPolicy::Trap ? "trap" : "garbage");
        EXPECT_EQ(campaignDiff(R, Baseline, FieldClass::Outcome), "") << At;
        EXPECT_TRUE(R.Stats.Converge) << At;
        TotalDischarged += R.Stats.EarlyExits + R.Stats.LockstepSkips;
      }
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
      EXPECT_EQ(campaignDiff(R, Baseline, FieldClass::Outcome), "") << At;
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
      EXPECT_EQ(campaignDiff(*R, Baseline, FieldClass::Outcome), "") << At;
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

// Batch composition never changes a continuation's outcome. The replay
// walks up to 64 corruption values of a site together; sharding the task
// list changes which values share a walk, and one task per shard makes
// every walk a batch of one, the per-value walk. Folded, the shards must
// reproduce the whole campaign's table, violations and every convergence
// counter: for every Figure 10 kernel at stride steps/4 cut into 7 shards
// (which split site batches mid-site), on the vm (lane groups) and on the
// JIT (native scalar continuations), and for a small kernel whose walks
// lose lanes at different events, one task per shard.
TEST(ConvergenceFold, ShardCutSiteBatchesFold) {
  auto ExpectFold = [](const Program &P, const TheoremConfig &Config,
                       const ExecEngine &E, unsigned Shards,
                       const std::string &At) {
    CampaignOptions Opts;
    Opts.Engine = &E;
    Opts.Threads = 4;
    CampaignResult Whole = runSingleFaultCampaign(P, Config, Opts);
    ASSERT_TRUE(Whole.Stats.Converge) << At;
    if (!Shards)
      Shards = (unsigned)Whole.Stats.TotalTasks;
    CampaignResult Acc;
    Opts.ShardCount = Shards;
    for (unsigned I = 0; I != Shards; ++I) {
      Opts.ShardIndex = I;
      CampaignResult Shard = runSingleFaultCampaign(P, Config, Opts);
      if (I == 0)
        Acc = std::move(Shard);
      else
        foldShardResult(Acc, Shard);
    }
    EXPECT_EQ(campaignDiff(Acc, Whole, FieldClass::ShardInvariant), "") << At;
  };

  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << K.Name << ": " << CP.message();
    const Program &P = CP->Prog;
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << K.Name;
    MachineState S = *S0;
    TheoremConfig Config;
    RunResult Ref = Vm.run(S, P.exitAddress(), Config.MaxSteps, Config.Policy);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << K.Name;
    Config.InjectionStride = std::max<uint64_t>(1, Ref.Steps / 4);
    ExpectFold(P, Config, Vm, 7, K.Name + " engine=vm");
    ExpectFold(P, Config, Jit, 7, K.Name + " engine=jit");
  }

  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<wile::CompiledProgram> CP = wile::compileWile(
      TC,
      "var n = 3; var acc = 0;\n"
      "while (n != 0) { acc = acc + n * n; n = n - 1; }\n"
      "output(acc);\n",
      wile::CodegenMode::FaultTolerant, Diags);
  ASSERT_TRUE(bool(CP)) << CP.message();
  vm::Engine Vm(CP->Prog.code());
  TheoremConfig Config;
  Config.InjectionStride = 7;
  ExpectFold(CP->Prog, Config, Vm, 0, "sum of squares, one task per shard");
}

// The differential replay's event set, pinned through the convergence
// counters of every Figure 10 kernel on the vm engine at stride steps/4.
// The counters follow from which reference records the replay visits and
// where it stops (a drain, a settled check, a bail or the progress gate),
// so a change to the access sets, the settle rules, the event order or
// the gate constants moves them even when every verdict holds (the fold
// tests above cover the verdicts).
TEST(ConvergenceFold, ReplayEventSetPinnedOnFig10) {
  struct Pinned {
    const char *Kernel;
    uint64_t EarlyExits, WindowSum, MaxWindow, StepsSaved, LockstepSkips,
        LockstepSteps;
  };
  const Pinned Pins[] = {
      {"164.gzip", 13029, 15812434, 11098, 78245600, 14701, 23007222},
      {"175.vpr", 1264, 1570304, 15406, 11564128, 1720, 3108616},
      {"176.gcc", 5976, 4423624, 8318, 28482736, 6940, 8026336},
      {"181.mcf", 6696, 3929812, 8520, 48345516, 8063, 11248301},
      {"186.crafty", 1802, 1782678, 17326, 19037858, 2405, 2763263},
      {"197.parser", 4628, 21783067, 52770, 147363638, 6670, 73049531},
      {"254.gap", 14046, 40199761, 29090, 228982514, 16774, 78880549},
      {"255.vortex", 3984, 2298240, 6966, 17440176, 6048, 8937394},
      {"256.bzip2", 10331, 9665843, 10282, 116846632, 12154, 14598782},
      {"300.twolf", 1777, 1760529, 16850, 17860296, 2212, 3701736},
      {"adpcm", 1176, 1495640, 14766, 10435048, 1656, 2981630},
      {"epic", 18906, 16233656, 8554, 89715870, 20090, 20786198},
      {"g721", 1359, 1385465, 13498, 11437004, 2069, 3282517},
      {"pegwit", 1010, 407355, 3882, 2337478, 1530, 856752},
      {"jpeg", 5264, 1546590, 600, 44948910, 5632, 4037956},
  };
  size_t Checked = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    const Pinned *Pin = nullptr;
    for (const Pinned &Candidate : Pins)
      if (K.Name == Candidate.Kernel)
        Pin = &Candidate;
    ASSERT_NE(Pin, nullptr) << K.Name << " has no pinned counters";
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << K.Name << ": " << CP.message();
    const Program &P = CP->Prog;
    vm::Engine Vm(P.code());
    Expected<MachineState> S0 = P.initialState();
    ASSERT_TRUE(bool(S0)) << K.Name;
    MachineState S = *S0;
    TheoremConfig Config;
    RunResult Ref = Vm.run(S, P.exitAddress(), Config.MaxSteps, Config.Policy);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << K.Name;
    Config.InjectionStride = std::max<uint64_t>(1, Ref.Steps / 4);

    CampaignOptions Opts;
    Opts.Engine = &Vm;
    Opts.Threads = 4;
    CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
    const CampaignStats &St = R.Stats;
    ASSERT_TRUE(St.Converge) << K.Name;
    EXPECT_EQ(St.EarlyExits, Pin->EarlyExits) << K.Name;
    EXPECT_EQ(St.WindowSum, Pin->WindowSum) << K.Name;
    EXPECT_EQ(St.MaxWindow, Pin->MaxWindow) << K.Name;
    EXPECT_EQ(St.StepsSaved, Pin->StepsSaved) << K.Name;
    EXPECT_EQ(St.LockstepSkips, Pin->LockstepSkips) << K.Name;
    EXPECT_EQ(St.LockstepSteps, Pin->LockstepSteps) << K.Name;
    ++Checked;
  }
  EXPECT_EQ(Checked, std::size(Pins));
}

// The programs fault_coverage sweeps besides the Figure 10 kernels, at its
// strides and on the typed campaign it runs them on. campaign_matrix holds
// the kernels to these checks, and this holds the other three: every cell
// (the vm with the replay and lane groups each on and off, the JIT with
// the replay on and off) folds onto the vm cell with both off, on the
// table, violations, reference run, Ok and program hash; every replay
// cell exits early, with the same counters on the vm and the JIT; and the
// vm lane cells classify lane tasks.
TEST(ConvergenceFold, CoverageProgramsFoldInEveryCell) {
  struct Cell {
    const char *Name;
    bool Jit, Converge, Lanes;
  };
  // The base cell first, the vm cell (both accelerators on) second.
  const Cell Cells[] = {{"vm-no-converge-no-lanes", false, false, false},
                        {"vm", false, true, true},
                        {"vm-no-lanes", false, true, false},
                        {"vm-no-converge", false, false, true},
                        {"jit", true, true, true},
                        {"jit-no-converge", true, false, true}};
  uint64_t LaneTasks[std::size(Cells)] = {};
  for (const coverage::SweptProgram &SP : coverage::Programs) {
    TypeContext TC;
    DiagnosticEngine Diags;
    auto Load = [&]() -> Expected<Program> {
      if (!SP.Wile)
        return parseAndLayoutTalProgram(TC, SP.Source, Diags);
      Expected<wile::CompiledProgram> W = wile::compileWile(
          TC, SP.Source, wile::CodegenMode::FaultTolerant, Diags);
      if (!W)
        return W.takeError();
      return std::move(W->Prog);
    };
    Expected<Program> P = Load();
    ASSERT_TRUE(bool(P)) << SP.Name << ": " << Diags.str();
    Expected<CheckedProgram> CP = checkProgram(TC, *P, Diags);
    ASSERT_TRUE(bool(CP)) << SP.Name << ": " << Diags.str();
    vm::Engine Vm(P->code());
    vm::JitEngine Jit(P->code());
    TheoremConfig Config;
    Config.InjectionStride = SP.Stride;

    std::vector<CampaignResult> Runs;
    for (const Cell &C : Cells) {
      CampaignOptions Opts;
      Opts.Engine = C.Jit ? static_cast<const ExecEngine *>(&Jit) : &Vm;
      Opts.Converge = C.Converge;
      Opts.Lanes = C.Lanes;
      Opts.Threads = 4;
      Runs.push_back(runFaultToleranceCampaign(TC, *CP, Config, Opts));
    }
    const CampaignResult &Base = Runs[0], &Replay = Runs[1];
    EXPECT_TRUE(Base.Ok) << SP.Name;
    for (size_t I = 0; I != Runs.size(); ++I) {
      const CampaignResult &R = Runs[I];
      std::string At = std::string(SP.Name) + " " + Cells[I].Name;
      EXPECT_EQ(campaignDiff(R, Base, FieldClass::Outcome), "") << At;
      LaneTasks[I] += R.Stats.LaneTasks;
      if (!Cells[I].Converge)
        continue;
      EXPECT_GT(R.Stats.EarlyExits, 0u) << At;
      // The replay's counters agree across engines and lane groups.
      EXPECT_EQ(campaignDiff(R, Replay, FieldClass::Strategy, "convergence"),
                "")
          << At;
    }
  }
  for (size_t I = 0; I != std::size(Cells); ++I) {
    if (!Cells[I].Jit && Cells[I].Lanes) {
      EXPECT_GT(LaneTasks[I], 0u) << Cells[I].Name;
    }
  }
}

} // namespace
