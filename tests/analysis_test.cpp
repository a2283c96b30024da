//===- tests/analysis_test.cpp - The static reliability analyzer ----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Pins the analysis subsystem's contracts: CFG shape on the hand-written
// examples and on every Figure 10 kernel, the liveness and reaching-defs
// instantiations of the dataflow framework, the duplication-consistency
// pass on positive programs and on the CSE'd-store counterexample, the
// unified certification ladder (all fifteen kernels must land on a
// certified rung or produce a located diagnostic), and the campaign's
// Prune mode: pruned and unpruned sweeps must agree verdict-for-verdict
// once StaticallyMasked folds back into Masked.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "analysis/Certify.h"
#include "analysis/ReachingDefs.h"
#include "analysis/ZapCoverage.h"
#include "check/ProgramChecker.h"
#include "fault/CampaignFields.h"
#include "tal/Parser.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace talft;
using analysis::CFG;

namespace {

/// Parses and lays out a .tal source, failing the test on any error.
Program load(TypeContext &TC, const char *Source) {
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, Source, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return std::move(*P);
}

/// Address of the first instruction matching \p Pred.
template <typename Fn> Addr findAddr(const CFG &G, Fn Pred) {
  for (Addr A = G.minAddr(); A != G.limitAddr(); ++A)
    if (Pred(G.inst(A)))
      return A;
  ADD_FAILURE() << "no matching instruction";
  return G.minAddr();
}

// The Section 2.2 CSE counterexample: the blue store reuses the green
// registers, so both sides of the hardware compare read the same
// (corruptible) values. Runs clean, silently corrupts under faults.
const char *CseBrokenStore = R"(
entry main
exit done
data { 256: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  stB r2, r1
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

// Replicas that diverge in the computed function (5 vs 6): the stB
// compare always faults, and the analysis must say the value pair is not
// a replica.
const char *MismatchedStore = R"(
entry main
exit done
data { 256: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 6
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

TEST(AnalysisCfgTest, PairedStoreShape) {
  TypeContext TC;
  Program P = load(TC, progs::PairedStore);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();

  // Straight-line main (ends at its jmpB) plus the self-looping exit
  // block; every target resolves through the mov/jmp constant scan.
  EXPECT_TRUE(G->targetsResolved());
  ASSERT_EQ(G->numBlocks(), 2u);
  EXPECT_EQ(G->numInsts(), P.code().size());

  uint32_t Main = G->entryBlock();
  ASSERT_EQ(G->block(Main).Succs.size(), 1u);
  uint32_t Done = G->block(Main).Succs[0];
  EXPECT_NE(Done, Main);
  // The exit convention is a self-loop.
  ASSERT_EQ(G->block(Done).Succs.size(), 1u);
  EXPECT_EQ(G->block(Done).Succs[0], Done);
  EXPECT_TRUE(G->reachable(Main));
  EXPECT_TRUE(G->reachable(Done));
  EXPECT_EQ(G->rpo().front(), Main);

  // jmpB carries the resolved control target; jmpG does not transfer.
  Addr JmpB = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::Jmp && I.C == Color::Blue;
  });
  ASSERT_EQ(G->controlTargets(JmpB).size(), 1u);
  EXPECT_EQ(G->controlTargets(JmpB)[0], G->block(Done).Begin);
  Addr JmpG = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::Jmp && I.C == Color::Green;
  });
  EXPECT_TRUE(G->controlTargets(JmpG).empty());
  EXPECT_EQ(G->describeAddr(G->block(Main).Begin), "main");
  EXPECT_EQ(G->describeAddr(G->block(Main).Begin + 2), "main+2");
}

TEST(AnalysisCfgTest, CountdownLoopHasLoopAndBranchEdges) {
  TypeContext TC;
  Program P = load(TC, progs::CountdownLoop);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  EXPECT_TRUE(G->targetsResolved());

  // The bzB both falls through and branches: its block has two
  // successors, and the loop's back edge makes the loop head a join.
  Addr BzB = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::Bz && I.C == Color::Blue;
  });
  const CFG::BasicBlock &Head = G->block(G->blockOf(BzB));
  EXPECT_EQ(Head.Succs.size(), 2u);
  EXPECT_GE(Head.Preds.size(), 2u) << "loop head must join entry + back edge";
  for (uint32_t B = 0; B != G->numBlocks(); ++B)
    if (G->reachable(B))
      EXPECT_GT(G->block(B).Size, 0u);
}

TEST(AnalysisCfgTest, AllFigure10KernelsBuildCleanCfgs) {
  const std::vector<wile::Kernel> &Kernels = wile::benchmarkKernels();
  ASSERT_EQ(Kernels.size(), 15u);
  for (const wile::Kernel &K : Kernels) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(CP) << K.Name << ": " << CP.message();
    Expected<CFG> G = CFG::build(CP->Prog);
    ASSERT_TRUE(G) << K.Name << ": " << G.message();
    EXPECT_EQ(G->numInsts(), CP->Prog.code().size()) << K.Name;
    EXPECT_TRUE(G->reachable(G->entryBlock())) << K.Name;
    EXPECT_FALSE(G->rpo().empty()) << K.Name;
    // Every reachable block is nonempty and its edges are symmetric.
    for (uint32_t B = 0; B != G->numBlocks(); ++B) {
      if (!G->reachable(B))
        continue;
      EXPECT_GT(G->block(B).Size, 0u) << K.Name;
      for (uint32_t S : G->block(B).Succs) {
        const std::vector<uint32_t> &Preds = G->block(S).Preds;
        EXPECT_NE(std::find(Preds.begin(), Preds.end(), B), Preds.end())
            << K.Name << ": missing reverse edge";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Dataflow instantiations
//===----------------------------------------------------------------------===//

TEST(AnalysisLivenessTest, PairedStoreFacts) {
  TypeContext TC;
  Program P = load(TC, progs::PairedStore);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  analysis::Liveness L = analysis::Liveness::compute(*G);

  Addr StG = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::St && I.C == Color::Green;
  });
  Addr StB = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::St && I.C == Color::Blue;
  });
  Reg R1 = Reg::general(1);
  // r1 feeds the green store: live-for-green right before it, dead at the
  // program entry (the mov kills it first) and dead once consumed.
  EXPECT_EQ(L.liveIn(*G, StG, R1), analysis::LiveForGreen);
  EXPECT_EQ(L.liveIn(*G, G->minAddr(), R1), 0);
  EXPECT_EQ(L.liveIn(*G, StB, R1), 0);
  // r3 feeds the blue store.
  EXPECT_EQ(L.liveIn(*G, StB, Reg::general(3)), analysis::LiveForBlue);
  // The fetch comparison keeps both pcs permanently live.
  EXPECT_NE(L.liveIn(*G, G->minAddr(), Reg::pcG()), 0);
  EXPECT_NE(L.liveIn(*G, G->minAddr(), Reg::pcB()), 0);
}

TEST(AnalysisLivenessTest, UseDefSetsMirrorStepSemantics) {
  // bz reads its test register, its target register and d, but defines
  // nothing unconditionally (the green side writes d only when taken).
  Inst Bz = Inst::bz(Color::Green, Reg::general(1), Reg::general(2));
  EXPECT_TRUE(analysis::instDefs(Bz).empty());
  bool SawD = false;
  for (const analysis::RegFact &U : analysis::instUses(Bz))
    SawD |= U.R == Reg::dest();
  EXPECT_TRUE(SawD);
  // jmp overwrites d (green: records the target; blue: resets to 0).
  Inst Jmp = Inst::jmp(Color::Blue, Reg::general(5));
  ASSERT_EQ(analysis::instDefs(Jmp).size(), 1u);
  EXPECT_EQ(analysis::instDefs(Jmp)[0], Reg::dest());
}

TEST(AnalysisReachingDefsTest, LoopJoinMergesEntryAndBackEdgeDefs) {
  TypeContext TC;
  Program P = load(TC, progs::CountdownLoop);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  analysis::ReachingDefs RD = analysis::ReachingDefs::compute(*G);

  Reg R1 = Reg::general(1);
  Addr MovR1 = findAddr(*G, [&](const Inst &I) {
    return I.Op == Opcode::Mov && I.Rd == R1;
  });
  Addr SubR1 = findAddr(*G, [&](const Inst &I) {
    return I.Op == Opcode::Sub && I.Rd == R1;
  });
  Addr BzG = findAddr(*G, [](const Inst &I) {
    return I.Op == Opcode::Bz && I.C == Color::Green;
  });
  // At the loop test both the entry definition and the decrement reach.
  const std::set<Addr> &Defs = RD.defsIn(*G, BzG, R1);
  EXPECT_TRUE(Defs.count(MovR1));
  EXPECT_TRUE(Defs.count(SubR1));
  EXPECT_FALSE(Defs.count(analysis::EntryDef))
      << "the entry mov must kill the initial-state pseudo-def";
  // Before any definition, only the initial state reaches.
  EXPECT_TRUE(RD.defsIn(*G, G->minAddr(), R1).count(analysis::EntryDef));
}

//===----------------------------------------------------------------------===//
// Duplication consistency + certification
//===----------------------------------------------------------------------===//

TEST(AnalysisDuplicationTest, PairedStoreAndLoopAreConsistent) {
  for (const char *Source : {progs::PairedStore, progs::CountdownLoop}) {
    TypeContext TC;
    Program P = load(TC, Source);
    Expected<CFG> G = CFG::build(P);
    ASSERT_TRUE(G) << G.message();
    Expected<analysis::DuplicationResult> D = analysis::analyzeDuplication(*G);
    ASSERT_TRUE(D) << D.message();
    EXPECT_TRUE(D->consistent()) << D->Findings.front().str();
  }
}

TEST(AnalysisDuplicationTest, CsedStoreIsFlaggedWithLocation) {
  TypeContext TC;
  Program P = load(TC, CseBrokenStore);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  Expected<analysis::DuplicationResult> D = analysis::analyzeDuplication(*G);
  ASSERT_TRUE(D) << D.message();
  ASSERT_FALSE(D->consistent());
  // The finding names the stB whose operands share the green derivation.
  bool Located = false;
  for (const analysis::Finding &F : D->Findings) {
    EXPECT_TRUE(G->contains(F.A));
    if (F.Where.find("stB") != std::string::npos && F.Loc.isValid() &&
        F.Message.find("replica") != std::string::npos)
      Located = true;
  }
  EXPECT_TRUE(Located) << "no located replica finding on the stB";
}

TEST(AnalysisDuplicationTest, MismatchedReplicaValueIsFlagged) {
  TypeContext TC;
  Program P = load(TC, MismatchedStore);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  Expected<analysis::DuplicationResult> D = analysis::analyzeDuplication(*G);
  ASSERT_TRUE(D) << D.message();
  bool SawValueFinding = false;
  for (const analysis::Finding &F : D->Findings)
    SawValueFinding |= F.Message.find("replicate") != std::string::npos;
  EXPECT_TRUE(SawValueFinding);
}

TEST(AnalysisCertifyTest, StatusNamesAreStableAndDistinct) {
  std::set<std::string> Names, Keys;
  for (analysis::CertificationStatus S :
       {analysis::CertificationStatus::Typed,
        analysis::CertificationStatus::AnalysisCertified,
        analysis::CertificationStatus::Inconsistent}) {
    Names.insert(analysis::certificationStatusName(S));
    for (char C : std::string(analysis::certificationStatusJsonKey(S)))
      EXPECT_TRUE((C >= 'a' && C <= 'z') || C == '_');
    Keys.insert(analysis::certificationStatusJsonKey(S));
  }
  EXPECT_EQ(Names.size(), 3u);
  EXPECT_EQ(Keys.size(), 3u);
}

TEST(AnalysisCertifyTest, LadderOnTheHandWrittenExamples) {
  TypeContext TC;
  Program Typed = load(TC, progs::PairedStore);
  analysis::Certification C1 = analysis::certifyProgram(TC, Typed);
  EXPECT_EQ(C1.Status, analysis::CertificationStatus::Typed);
  EXPECT_TRUE(C1.certified());
  EXPECT_TRUE(C1.CheckerError.empty());

  Program Broken = load(TC, CseBrokenStore);
  analysis::Certification C2 = analysis::certifyProgram(TC, Broken);
  EXPECT_EQ(C2.Status, analysis::CertificationStatus::Inconsistent);
  EXPECT_FALSE(C2.certified());
  EXPECT_FALSE(C2.CheckerError.empty());
  EXPECT_FALSE(C2.Findings.empty());
}

// The acceptance bar of the analyzer: every Figure 10 kernel either lands
// on a certified rung of the ladder (typed, or analysis-certified past
// the checker's dynamic-addressing wall) or pinpoints the offending
// instruction. The compiled kernels are duplication-consistent by
// construction, so certification must succeed for all fifteen.
TEST(AnalysisCertifyTest, AllFigure10KernelsCertify) {
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(CP) << K.Name << ": " << CP.message();
    analysis::Certification Cert = analysis::certifyProgram(TC, CP->Prog);
    std::string Where;
    for (const analysis::Finding &F : Cert.Findings)
      Where += "\n  " + F.Loc.str() + ": " + F.str();
    EXPECT_TRUE(Cert.certified())
        << K.Name << " not certified; findings:" << Where;
    if (K.Typable)
      EXPECT_EQ(Cert.Status, analysis::CertificationStatus::Typed) << K.Name;
  }
}

//===----------------------------------------------------------------------===//
// Zap coverage + campaign pruning
//===----------------------------------------------------------------------===//

TEST(AnalysisZapTest, PairedStoreCoverage) {
  TypeContext TC;
  Program P = load(TC, progs::PairedStore);
  Expected<analysis::ZapCoverage> Z = analysis::ZapCoverage::compute(P);
  ASSERT_TRUE(Z) << Z.message();
  EXPECT_TRUE(Z->pruneSound());
  analysis::ZapSummary S = Z->summarize();
  EXPECT_EQ(S.Vulnerable, 0u);
  EXPECT_GT(S.Dead, 0u);
  EXPECT_GT(S.Checked, 0u);
  EXPECT_EQ(S.total(), S.Dead + S.Checked);

  // r1 is consumed by the stG; one instruction later a zap of it can
  // never be read again.
  const CFG &G = Z->cfg();
  Addr StG = findAddr(G, [](const Inst &I) {
    return I.Op == Opcode::St && I.C == Color::Green;
  });
  EXPECT_EQ(Z->classifyRegister(StG, Reg::general(1)),
            analysis::ZapClass::Checked);
  EXPECT_TRUE(Z->deadRegisterSite(StG + 1, Reg::general(1)));
  // The pc is not a general register: never statically discharged.
  EXPECT_FALSE(Z->deadRegisterSite(StG + 1, Reg::pcG()));

  std::string Json = Z->reportJson();
  for (const char *Key : {"\"targets_resolved\": true", "\"sites\"",
                          "\"dead\"", "\"checked\"", "\"vulnerable\": 0"})
    EXPECT_NE(Json.find(Key), std::string::npos)
        << "missing " << Key << " in:\n" << Json;
}

TEST(AnalysisZapTest, InconsistentProgramHasVulnerableSites) {
  TypeContext TC;
  Program P = load(TC, CseBrokenStore);
  Expected<analysis::ZapCoverage> Z = analysis::ZapCoverage::compute(P);
  ASSERT_TRUE(Z) << Z.message();
  EXPECT_GT(Z->summarize().Vulnerable, 0u);
  EXPECT_EQ(Z->classifyQueue(Z->cfg().minAddr()),
            analysis::ZapClass::Vulnerable);
}

/// Folds the statically-discharged verdicts back onto their dynamic
/// twins: pruning proves sites Masked/Detected without simulating them,
/// so this folded table must equal the unpruned one bit-for-bit.
VerdictTable fold(VerdictTable T) {
  T[Verdict::Masked] += T[Verdict::StaticallyMasked];
  T[Verdict::StaticallyMasked] = 0;
  T[Verdict::Detected] += T[Verdict::StaticallyDetected];
  T[Verdict::StaticallyDetected] = 0;
  return T;
}

TEST(AnalysisPruneTest, TypedCampaignPrunedVerdictsFoldToUnpruned) {
  for (const char *Source : {progs::PairedStore, progs::CountdownLoop}) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Program P = load(TC, Source);
    Expected<CheckedProgram> CP = checkProgram(TC, P, Diags);
    ASSERT_TRUE(CP) << Diags.str();

    TheoremConfig Config;
    CampaignOptions Full, Pruned;
    Pruned.Prune = true;
    CampaignResult A = runFaultToleranceCampaign(TC, *CP, Config, Full);
    CampaignResult B = runFaultToleranceCampaign(TC, *CP, Config, Pruned);

    EXPECT_TRUE(B.Stats.Pruned);
    EXPECT_GT(B.Stats.PrunedTasks, 0u);
    EXPECT_EQ(B.Stats.PrunedTasks, B.Table[Verdict::StaticallyMasked] +
                                       B.Table[Verdict::StaticallyDetected]);
    // Control-register (d/pc) zaps discharge statically too; some have a
    // control instruction ahead, so both discharge verdicts appear.
    EXPECT_GT(B.Stats.PrunedDetected, 0u);
    EXPECT_EQ(B.Stats.PrunedDetected, B.Table[Verdict::StaticallyDetected]);
    EXPECT_EQ(A.Table[Verdict::StaticallyMasked], 0u);
    EXPECT_EQ(A.Table[Verdict::StaticallyDetected], 0u);
    EXPECT_EQ(A.Ok, B.Ok);
    EXPECT_EQ(A.ReferenceSteps, B.ReferenceSteps);
    EXPECT_EQ(A.Table.total(), B.Table.total());
    EXPECT_EQ(fold(A.Table), fold(B.Table));
    EXPECT_EQ(A.Violations, B.Violations);
  }
}

TEST(AnalysisPruneTest, RawCampaignOnCompiledKernelFoldsToUnpruned) {
  TypeContext TC;
  DiagnosticEngine Diags;
  const char *Source = R"(
var n = 3; var acc = 0;
while (n != 0) { acc = acc + n * n; n = n - 1; }
output(acc);
)";
  Expected<wile::CompiledProgram> CP = wile::compileWile(
      TC, Source, wile::CodegenMode::FaultTolerant, Diags);
  ASSERT_TRUE(CP) << CP.message();

  TheoremConfig Config;
  Config.InjectionStride = 7;
  CampaignOptions Full, Pruned;
  Pruned.Prune = true;
  CampaignResult A = runSingleFaultCampaign(CP->Prog, Config, Full);
  CampaignResult B = runSingleFaultCampaign(CP->Prog, Config, Pruned);

  ASSERT_TRUE(B.Stats.Pruned)
      << "compiled kernels must resolve every transfer target";
  EXPECT_GT(B.Stats.PrunedTasks, 0u);
  EXPECT_EQ(A.Table.total(), B.Table.total());
  EXPECT_EQ(fold(A.Table), fold(B.Table));
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Violations, B.Violations);

  std::string Json = campaignToJson(B);
  EXPECT_NE(Json.find("\"statically_masked\""), std::string::npos);
  EXPECT_NE(Json.find("\"statically_detected\""), std::string::npos);
  EXPECT_NE(Json.find("\"pruned\": true"), std::string::npos);
  EXPECT_NE(Json.find("\"pruned_tasks\""), std::string::npos);
  EXPECT_NE(Json.find("\"pruned_detected\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Indirect-target resolution ladder (analysis/TargetSets)
//===----------------------------------------------------------------------===//

/// All committing (blue) control instructions in address order.
std::vector<Addr> commitsOf(const CFG &G) {
  std::vector<Addr> Cs;
  for (Addr A = G.minAddr(); A != G.limitAddr(); ++A)
    if (G.isCommit(A))
      Cs.push_back(A);
  return Cs;
}

/// The labels of a commit's resolved targets, via describeAddr (block
/// entries render as the bare label).
std::set<std::string> targetLabels(const CFG &G, Addr A) {
  std::set<std::string> L;
  for (Addr T : G.controlTargets(A))
    L.insert(G.describeAddr(T));
  return L;
}

// A label that flows across a block boundary and through ALU identity
// folds: the per-block constant scan cannot see it, the interprocedural
// label-set dataflow resolves it exactly.
TEST(AnalysisTargetSetsTest, LabelThroughAluFoldsResolvesCrossBlock) {
  const char *Source = R"(
entry main
exit done
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G @done
  mov r2, B @done
  mov r10, G @mid
  mov r11, B @mid
  jmpG r10
  jmpB r11
}
block mid {
  pre { forall m: mem; queue []; mem m }
  add r3, r1, G 0
  add r4, r2, B 0
  jmpG r3
  jmpB r4
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";
  TypeContext TC;
  Program P = load(TC, Source);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  EXPECT_TRUE(G->targetsResolved());

  std::vector<Addr> Cs = commitsOf(*G);
  ASSERT_EQ(Cs.size(), 3u);
  // mid's jmpB: r4 = r2 + 0 with r2 set to @done in the predecessor.
  Addr MidJmp = Cs[1];
  EXPECT_EQ(G->targetProvenance(MidJmp), analysis::TargetProvenance::Exact);
  EXPECT_EQ(G->resolutionLayer(MidJmp), 2u);
  EXPECT_EQ(targetLabels(*G, MidJmp), std::set<std::string>{"done"});

  CFG::ResolutionSummary Sum = G->resolutionSummary();
  EXPECT_EQ(Sum.Commits, 3u);
  EXPECT_EQ(Sum.Exact, 3u);
  EXPECT_EQ(Sum.UnresolvedTargets, 0u);
}

// A label stored in a typed data cell that no store dirties: the load
// yields exactly the cell's initializer, so the jump resolves exactly.
TEST(AnalysisTargetSetsTest, LabelFromCleanTypedDataCellResolves) {
  const char *Source = R"(
entry main
exit done
data { 300: code(@done) = @done }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r10, G 300
  ldG r1, r10
  mov r11, B 300
  ldB r2, r11
  jmpG r1
  jmpB r2
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";
  TypeContext TC;
  Program P = load(TC, Source);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  EXPECT_TRUE(G->targetsResolved());

  std::vector<Addr> Cs = commitsOf(*G);
  ASSERT_EQ(Cs.size(), 2u);
  EXPECT_EQ(G->targetProvenance(Cs[0]), analysis::TargetProvenance::Exact);
  EXPECT_EQ(G->resolutionLayer(Cs[0]), 2u);
  EXPECT_EQ(targetLabels(*G, Cs[0]), std::set<std::string>{"done"});
}

// Two indirect jumps through the SAME register pair with different
// incoming label sets: resolution is per jump, not per register.
TEST(AnalysisTargetSetsTest, SharedRegisterResolvesPerJump) {
  const char *Source = R"(
entry main
exit done
block main {
  pre { forall m: mem; queue []; mem m }
  mov r5, G @x
  mov r6, B @x
  mov r10, G @a
  mov r11, B @a
  jmpG r10
  jmpB r11
}
block a {
  pre { forall m: mem; queue []; mem m }
  jmpG r5
  jmpB r6
}
block x {
  pre { forall m: mem; queue []; mem m }
  mov r5, G @done
  mov r6, B @done
  mov r10, G @b
  mov r11, B @b
  jmpG r10
  jmpB r11
}
block b {
  pre { forall m: mem; queue []; mem m }
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";
  TypeContext TC;
  Program P = load(TC, Source);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  EXPECT_TRUE(G->targetsResolved());

  // Commits in address order: main's, a's, x's, b's, done's.
  std::vector<Addr> Cs = commitsOf(*G);
  ASSERT_EQ(Cs.size(), 5u);
  Addr JumpA = Cs[1], JumpB = Cs[3];
  EXPECT_EQ(G->targetProvenance(JumpA), analysis::TargetProvenance::Exact);
  EXPECT_EQ(G->targetProvenance(JumpB), analysis::TargetProvenance::Exact);
  EXPECT_EQ(G->resolutionLayer(JumpA), 2u);
  EXPECT_EQ(G->resolutionLayer(JumpB), 2u);
  EXPECT_EQ(targetLabels(*G, JumpA), std::set<std::string>{"x"});
  EXPECT_EQ(targetLabels(*G, JumpB), std::set<std::string>{"done"});
}

// A jump the dataflow cannot bound (its target comes from a dirtied data
// cell) narrows by type instead: candidate blocks whose precondition the
// jump's abstract context refutes are excluded. xblock demands r1 = 7
// while the jump provably carries r1 = 5, so xblock drops out; the
// compatible yblock stays.
TEST(AnalysisTargetSetsTest, IncompatibleCodeTypeIsExcluded) {
  const char *Source = R"(
entry main
exit done
data { 300: code(@yblock) = @yblock }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r20, G 300
  ldG r5, r20
  mov r21, B 300
  ldB r6, r21
  mov r30, G 300
  mov r31, G 77
  stG r30, r31
  mov r32, B 300
  mov r33, B 77
  stB r32, r33
  jmpG r5
  jmpB r6
}
block xblock {
  pre { forall m: mem; r1: (G, int, 7); queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
block yblock {
  pre { forall m: mem; r1: (G, int, 5); queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";
  TypeContext TC;
  Program P = load(TC, Source);
  Expected<CFG> G = CFG::build(P);
  ASSERT_TRUE(G) << G.message();
  EXPECT_FALSE(G->targetsResolved());

  std::vector<Addr> Cs = commitsOf(*G);
  ASSERT_EQ(Cs.size(), 4u);
  Addr Narrowed = Cs[0];
  EXPECT_EQ(G->targetProvenance(Narrowed),
            analysis::TargetProvenance::TypeNarrowed);
  EXPECT_EQ(G->resolutionLayer(Narrowed), 1u);
  std::set<std::string> Labels = targetLabels(*G, Narrowed);
  EXPECT_TRUE(Labels.count("yblock")) << "compatible target excluded";
  EXPECT_FALSE(Labels.count("xblock")) << "refuted target kept";

  CFG::ResolutionSummary Sum = G->resolutionSummary();
  EXPECT_EQ(Sum.TypeNarrowed, 1u);
  EXPECT_EQ(Sum.Exact, 3u);
  EXPECT_GT(Sum.UnresolvedTargets, 0u);
}

//===----------------------------------------------------------------------===//
// Runtime CFI validation
//===----------------------------------------------------------------------===//

// --cfi-check is record-only: verdicts are bit-identical with and without
// it, every committed transfer lands in the static target set, and the
// stats report the cross-check.
TEST(AnalysisCfiTest, TypedCampaignCommitsStayInStaticSets) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Program P = load(TC, progs::CountdownLoop);
  Expected<CheckedProgram> CP = checkProgram(TC, P, Diags);
  ASSERT_TRUE(CP) << Diags.str();

  TheoremConfig Config;
  CampaignOptions Plain, Checked;
  Checked.CfiCheck = true;
  CampaignResult A = runFaultToleranceCampaign(TC, *CP, Config, Plain);
  CampaignResult B = runFaultToleranceCampaign(TC, *CP, Config, Checked);

  EXPECT_FALSE(A.Stats.CfiChecked);
  EXPECT_TRUE(B.Stats.CfiChecked);
  EXPECT_GT(B.Stats.CfiCommits, 0u);
  EXPECT_EQ(B.Stats.CfiViolations, 0u) << B.CfiFirstViolation;
  EXPECT_TRUE(B.CfiFirstViolation.empty()) << B.CfiFirstViolation;
  EXPECT_EQ(campaignDiff(A, B, FieldClass::Outcome), "");

  std::string Json = campaignToJson(B);
  EXPECT_NE(Json.find("\"cfi\""), std::string::npos);
  EXPECT_NE(Json.find("\"violations\": 0"), std::string::npos);
}

// The raw-semantics campaign under pruning + CFI: the sharpened graph and
// the dynamic cross-check agree on a compiled kernel across engines.
TEST(AnalysisCfiTest, RawCampaignWithPruneHasNoViolations) {
  TypeContext TC;
  DiagnosticEngine Diags;
  const char *Source = R"(
var n = 3; var acc = 0;
while (n != 0) { acc = acc + n * n; n = n - 1; }
output(acc);
)";
  Expected<wile::CompiledProgram> CP = wile::compileWile(
      TC, Source, wile::CodegenMode::FaultTolerant, Diags);
  ASSERT_TRUE(CP) << CP.message();

  TheoremConfig Config;
  Config.InjectionStride = 7;
  CampaignOptions Plain, Checked;
  Checked.CfiCheck = true;
  Checked.Prune = true;
  CampaignResult A = runSingleFaultCampaign(CP->Prog, Config, Plain);
  CampaignResult B = runSingleFaultCampaign(CP->Prog, Config, Checked);

  EXPECT_TRUE(B.Stats.CfiChecked);
  EXPECT_GT(B.Stats.CfiCommits, 0u);
  EXPECT_EQ(B.Stats.CfiViolations, 0u) << B.CfiFirstViolation;
  EXPECT_EQ(fold(A.Table), fold(B.Table));
  EXPECT_EQ(A.Ok, B.Ok);
}

} // namespace
