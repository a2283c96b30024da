//===- tests/recovery_test.cpp - The checkpoint/rollback recovery layer ---===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The RecoveringEngine's contract has three parts, and these tests pin
// all of them:
//
//   - transparency: a fault-free run under the recovery layer is
//     observationally identical to the bare engine (same trace, same
//     step count, zero rollbacks);
//   - fail-operational: a transient single fault either completes with
//     the output trace *bit-identical* to the fault-free run or
//     escalates to fail-stop with a verified prefix — never silent
//     corruption, never a stuck state;
//   - bounded: a persistent fault exhausts the per-checkpoint retry
//     budget and escalates, so fail-stop remains the worst case.
//
// On top of the engine, the recovery campaign mode must keep the
// campaign engine's determinism guarantees: bit-identical verdict
// tables for any thread count, either resume mode, and both execution
// engines.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "check/ProgramChecker.h"
#include "fault/CampaignFields.h"
#include "recover/RecoveringEngine.h"
#include "tal/Parser.h"
#include "vm/Engine.h"

#include <gtest/gtest.h>

using namespace talft;

namespace {

constexpr uint64_t Budget = 100000;

struct Loaded {
  TypeContext TC;
  DiagnosticEngine Diags;
  std::optional<Program> Prog;

  void load(const char *Source) {
    Expected<Program> P = parseAndLayoutTalProgram(TC, Source, Diags);
    ASSERT_TRUE(P) << P.message();
    Prog.emplace(std::move(*P));
  }

  MachineState initial() {
    Expected<MachineState> S = Prog->initialState();
    EXPECT_TRUE(S) << S.message();
    return *S;
  }
};

/// The fault-free run every recovering run is compared against.
RunResult bareRun(Loaded &L) {
  MachineState S = L.initial();
  return referenceEngine().run(S, L.Prog->exitAddress(), Budget,
                               StepPolicy());
}

struct RecoveringRun {
  RecoveryResult R;
  OutputTrace Trace;
};

RecoveringRun runRecovering(Loaded &L, const RecoveryPolicy &RP,
                            RecoveringEngine::StepHook Hook,
                            const ExecEngine &E = referenceEngine()) {
  RecoveringEngine RE(E, RP);
  RecoveringRun Out;
  RecoveringEngine::RunSpec Spec;
  Spec.ExitAddr = L.Prog->exitAddress();
  Spec.Budget = Budget;
  Spec.OnOutput = [&Out](const QueueEntry &Q) { Out.Trace.push_back(Q); };
  Spec.Hook = std::move(Hook);
  MachineState S = L.initial();
  Out.R = RE.run(S, Spec);
  return Out;
}

TEST(RecoveringEngineTest, FaultFreeRunsAreTransparent) {
  for (const char *Source :
       {progs::CountdownLoop, progs::QueueForwarding, progs::PairedStore}) {
    Loaded L;
    ASSERT_NO_FATAL_FAILURE(L.load(Source));
    RunResult Bare = bareRun(L);
    ASSERT_EQ(Bare.Status, RunStatus::Halted);
    for (uint64_t Interval : {uint64_t(1), uint64_t(3), uint64_t(100)}) {
      RecoveryPolicy RP;
      RP.Enabled = true;
      RP.CheckpointInterval = Interval;
      RecoveringRun RR = runRecovering(L, RP, nullptr);
      EXPECT_EQ(RR.R.Status, RecoveryStatus::Halted);
      EXPECT_EQ(RR.R.Steps, Bare.Steps);
      EXPECT_TRUE(RR.Trace == Bare.Trace);
      EXPECT_EQ(RR.R.Stats.Rollbacks, 0u);
      EXPECT_EQ(RR.R.Stats.ReplayedOutputs, 0u);
    }
  }
}

TEST(RecoveringEngineTest, TransientFaultsEndIdenticalOrEscalate) {
  // Sweep one transient register corruption over every injection step:
  // each run must either halt with the output trace bit-identical to the
  // fault-free run, or escalate to fail-stop. Silent divergence, stuck
  // states and budget exhaustion are all contract violations here.
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::CountdownLoop));
  RunResult Bare = bareRun(L);
  ASSERT_EQ(Bare.Status, RunStatus::Halted);

  RecoveryPolicy RP;
  RP.Enabled = true;
  uint64_t RecoveredRuns = 0;
  for (unsigned RegNum : {1u, 2u, 10u}) {
    for (uint64_t At = 0; At <= Bare.Steps; ++At) {
      FaultSite Site = FaultSite::reg(Reg::general(RegNum));
      RecoveringRun RR = runRecovering(
          L, RP, [&Site, At](MachineState &S, uint64_t Taken) {
            if (Taken == At)
              injectFault(S, Site, 99);
          });
      if (RR.R.Status == RecoveryStatus::Halted) {
        EXPECT_TRUE(RR.Trace == Bare.Trace)
            << "r" << RegNum << " at step " << At
            << ": recovered run halted with a diverging trace";
        if (RR.R.Stats.Rollbacks > 0)
          ++RecoveredRuns;
      } else {
        EXPECT_EQ(RR.R.Status, RecoveryStatus::Escalated)
            << "r" << RegNum << " at step " << At << ": "
            << recoveryStatusName(RR.R.Status);
      }
    }
  }
  // The sweep must actually exercise the rollback path, not just mask.
  EXPECT_GT(RecoveredRuns, 0u);
}

TEST(RecoveringEngineTest, PersistentFaultExhaustsRetryBudget) {
  // Re-corrupt the green counter on every transition: each replay
  // re-detects, and with a checkpoint interval too large to ever refill
  // the budget the run must escalate after exactly RetryBudget rollbacks.
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::CountdownLoop));
  RecoveryPolicy RP;
  RP.Enabled = true;
  RP.CheckpointInterval = uint64_t(1) << 40; // Never advance.
  RP.RetryBudget = 3;
  FaultSite Site = FaultSite::reg(Reg::general(1));
  RecoveringRun RR =
      runRecovering(L, RP, [&Site](MachineState &S, uint64_t Taken) {
        if (Taken >= 5 && !S.isFault())
          injectFault(S, Site, 77);
      });
  EXPECT_EQ(RR.R.Status, RecoveryStatus::Escalated);
  EXPECT_EQ(RR.R.Reason, EscalationReason::RetriesExhausted);
  EXPECT_EQ(RR.R.Stats.Rollbacks, 3u);
  EXPECT_EQ(RR.R.Stats.Checkpoints, 0u);
}

TEST(RecoveringEngineTest, DoubleFaultDuringReplayIsDeterministicNeverSilent) {
  // The second fault lands while the first one's rollback is replaying —
  // outside the SEU model the layer is built for. The contract then is
  // weaker but still firm: the outcome is deterministic, and anything
  // that halts must have emitted the reference trace exactly.
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::CountdownLoop));
  RunResult Bare = bareRun(L);
  ASSERT_EQ(Bare.Status, RunStatus::Halted);

  RecoveryPolicy RP;
  RP.Enabled = true;
  FaultSite First = FaultSite::reg(Reg::general(2));
  FaultSite Second = FaultSite::reg(Reg::general(1));
  auto Hook = [&](MachineState &S, uint64_t Taken) {
    if (S.isFault())
      return;
    if (Taken == 20)
      injectFault(S, First, 99);
    if (Taken == 30) // Replay territory: rollback happens before step 30.
      injectFault(S, Second, 98);
  };
  RecoveringRun A = runRecovering(L, RP, Hook);
  RecoveringRun B = runRecovering(L, RP, Hook);
  EXPECT_EQ(A.R.Status, B.R.Status);
  EXPECT_EQ(A.R.Reason, B.R.Reason);
  EXPECT_EQ(A.R.Steps, B.R.Steps);
  EXPECT_EQ(A.R.Stats.Rollbacks, B.R.Stats.Rollbacks);
  EXPECT_TRUE(A.Trace == B.Trace);
  EXPECT_GE(A.R.Stats.Rollbacks, 1u);
  EXPECT_NE(A.R.Status, RecoveryStatus::Stuck);
  if (A.R.Status == RecoveryStatus::Halted) {
    EXPECT_TRUE(A.Trace == Bare.Trace);
  }
}

// -------------------------------------------------------------------------
// Recovery campaigns.

TheoremConfig recoveryConfig() {
  TheoremConfig Config;
  Config.Recovery.Enabled = true;
  return Config;
}

TEST(RecoveryCampaignTest, OnlyBenignVerdictsAndDeterministicTables) {
  for (const char *Source : {progs::PairedStore, progs::CountdownLoop}) {
    Loaded L;
    ASSERT_NO_FATAL_FAILURE(L.load(Source));
    CampaignOptions Opts;
    Opts.Threads = 1;
    CampaignResult Serial =
        runSingleFaultCampaign(*L.Prog, recoveryConfig(), Opts);
    EXPECT_TRUE(Serial.Ok) << (Serial.Violations.empty()
                                   ? "?"
                                   : Serial.Violations.front());
    EXPECT_GT(Serial.Table.total(), 0u);
    // Under recovery every single fault is masked, recovered with a
    // bit-identical trace, or escalated to fail-stop; fail-stop detection
    // itself no longer terminates a run.
    EXPECT_EQ(Serial.Table.total(),
              Serial.Table[Verdict::Masked] +
                  Serial.Table[Verdict::Recovered] +
                  Serial.Table[Verdict::RecoveryEscalated]);
    EXPECT_GT(Serial.Table[Verdict::Recovered], 0u);
    EXPECT_GT(Serial.Recovery.Rollbacks, 0u);

    Opts.Threads = 8;
    CampaignResult Parallel =
        runSingleFaultCampaign(*L.Prog, recoveryConfig(), Opts);
    EXPECT_EQ(campaignDiff(Serial, Parallel, FieldClass::Outcome), "");
    Opts.Resume = ResumeMode::Replay;
    CampaignResult Replayed =
        runSingleFaultCampaign(*L.Prog, recoveryConfig(), Opts);
    EXPECT_EQ(campaignDiff(Serial, Replayed, FieldClass::Outcome), "");
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(L.Prog->code());
    Opts.Resume = ResumeMode::Snapshot;
    Opts.Engine = Vm.get();
    CampaignResult OnVm =
        runSingleFaultCampaign(*L.Prog, recoveryConfig(), Opts);
    EXPECT_EQ(campaignDiff(Serial, OnVm, FieldClass::Outcome), "");
    EXPECT_STREQ(OnVm.Stats.Engine, "vm");
  }
}

TEST(RecoveryCampaignTest, CheckedCampaignAgreesWithRawSweep) {
  // runFaultToleranceCampaign (on the checked program) and
  // runSingleFaultCampaign (raw semantics) classify the same injections;
  // with recovery on, their tables must coincide too.
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::CountdownLoop));
  Expected<CheckedProgram> CP = checkProgram(L.TC, *L.Prog, L.Diags);
  ASSERT_TRUE(CP) << L.Diags.str();
  CampaignOptions Opts;
  Opts.Threads = 2;
  CampaignResult Checked =
      runFaultToleranceCampaign(L.TC, *CP, recoveryConfig(), Opts);
  CampaignResult Raw = runSingleFaultCampaign(*L.Prog, recoveryConfig(), Opts);
  EXPECT_TRUE(Checked.Ok);
  EXPECT_EQ(campaignDiff(Checked, Raw, FieldClass::Outcome), "");
}

TEST(RecoveryCampaignTest, BudgetExhaustionDuringReplayEscalates) {
  // With zero extra budget, rollback replays push some continuations past
  // the shared step budget. Those must classify RecoveryEscalated with a
  // violation naming the rollback count — not plain BudgetExhausted.
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::PairedStore));
  TheoremConfig Config = recoveryConfig();
  Config.ExtraSteps = 0;
  CampaignOptions Opts;
  Opts.Threads = 2;
  CampaignResult R = runSingleFaultCampaign(*L.Prog, Config, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_GT(R.Table[Verdict::RecoveryEscalated], 0u);
  bool SawRollbackViolation = false;
  for (const std::string &V : R.Violations)
    SawRollbackViolation |= V.find("rollback replay") != std::string::npos;
  EXPECT_TRUE(SawRollbackViolation)
      << "no violation mentions the rollback count";
}

TEST(RecoveryCampaignTest, RecoveryStatsAppearInJson) {
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::PairedStore));
  CampaignResult R =
      runSingleFaultCampaign(*L.Prog, recoveryConfig(), CampaignOptions());
  std::string Json = campaignToJson(R);
  for (const char *Key : {"\"recovery\"", "\"rollbacks\"", "\"checkpoints\"",
                          "\"replayed_outputs\"", "\"recovered\"",
                          "\"recovery_escalated\""})
    EXPECT_NE(Json.find(Key), std::string::npos)
        << "missing " << Key << " in:\n" << Json;
}

TEST(RecoveryCampaignTest, TypedRecoveryIsAConfigError) {
  Loaded L;
  ASSERT_NO_FATAL_FAILURE(L.load(progs::PairedStore));
  Expected<CheckedProgram> CP = checkProgram(L.TC, *L.Prog, L.Diags);
  ASSERT_TRUE(CP) << L.Diags.str();
  TheoremConfig Config = recoveryConfig();
  Config.TypeCheckFaultyStates = true;
  CampaignResult R =
      runFaultToleranceCampaign(L.TC, *CP, Config, CampaignOptions());
  EXPECT_FALSE(R.Ok);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_NE(R.Violations[0].find("cannot be combined"), std::string::npos);
  EXPECT_EQ(R.Table.total(), 0u);

  // The raw-semantics sweep rejects TypeCheckFaultyStates outright.
  TheoremConfig Typed;
  Typed.TypeCheckFaultyStates = true;
  CampaignResult Raw =
      runSingleFaultCampaign(*L.Prog, Typed, CampaignOptions());
  EXPECT_FALSE(Raw.Ok);
  ASSERT_EQ(Raw.Violations.size(), 1u);
  EXPECT_NE(Raw.Violations[0].find("re-typecheck"), std::string::npos);
}

} // namespace
