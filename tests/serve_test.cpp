//===- tests/serve_test.cpp - Certification server and shard oracle -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The serving layer's load-bearing contracts:
//
//   1. shard partition soundness: for any shard count, running every
//      shard and folding (fault/Campaign.h foldShardResult) reproduces
//      the unsharded campaign bit-identically — verdict table, violation
//      list, Ok flag and program hash — with and without pruning, on both
//      campaign entry points; shards run from one shared SweepReference
//      equal shards that each record their own, field for field; an
//      out-of-range shard index is a violation, not silence;
//   2. the whole-program content hash is stable across recompiles of the
//      same source, sensitive to program edits, and pinned bit for bit on
//      the Figure 10 kernels and the examples, so it can anchor the memo
//      key of entries persisted by earlier builds;
//   3. the memo store answers resubmissions (hit), refuses to answer for
//      any changed campaign option (distinct digests → miss), resumes
//      partial folds, bounds its memory footprint by LRU eviction, and
//      round-trips entries through the on-disk cache losslessly; a cache
//      file whose shard counts disagree with its fold, or any mutant of
//      one, is a miss or a consistent entry;
//   4. every row of the campaign field table (fault/CampaignFields.h) is
//      written by campaignToJson, read back exactly by campaignFromJson
//      (the timings to their printed digits), folded by its rule and
//      flagged alone by campaignDiff;
//   5. end to end over loopback: a cold submission streams one event per
//      shard and serves a campaign bit-identical to a directly-run one; a
//      resubmission is a cache hit that streams zero shard events; a
//      drained server leaves a resumable partial entry that a restarted
//      server (same cache directory) finishes from where it stopped; and
//      stop() returns promptly however it races idle handler threads; the
//      front-end memo answers a known source (same lang and bytes) without
//      compiling or certifying it, at any campaign option, and two TAL
//      sources sharing a program hash keep their own certifications;
//   6. crash isolation: a submission's shards stream from one forked
//      worker process, one frame per shard; a worker crashing at a shard
//      boundary (the chaos hook) takes only the undelivered suffix with
//      it, which re-runs on a fresh worker, and the served table stays
//      bit-identical; interleaved ranges of several sweeps on one worker
//      equal the in-process shards; a stream stopped between frames
//      leaves no stale frame; a wedged shard times out mid-stream; a
//      deterministic crasher poisons its one submission, not the server;
//      deadlines fail structured, not silent; mutated pipe frames, in
//      either direction, end as a structured error or a dead worker,
//      never as a folded shard or a hang;
//   7. durability: the write-ahead submission log survives retires,
//      replays, torn tails and compaction; a server started on a log
//      with unretired accepts replays them to completion;
//   8. connection hygiene: oversized request lines get a structured
//      bad_request, pipelined submissions on one connection answer in
//      order, stats serve during an active sweep, and connections beyond
//      the queue cap shed with "overloaded" + retry_after_ms.
//
//===----------------------------------------------------------------------===//

#include "analysis/Certify.h"
#include "check/ProgramChecker.h"
#include "fault/CampaignFields.h"
#include "isa/ProgramHash.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/MemoStore.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/SubmitLog.h"
#include "serve/WorkerPool.h"
#include "support/AtomicFile.h"
#include "support/Crc32.h"
#include "support/StringUtils.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <netinet/in.h>
#include <optional>
#include <poll.h>
#include <random>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace talft;
using namespace talft::serve;

namespace {

struct NamedProgram {
  const char *Name;
  const char *Source;
};

const std::vector<NamedProgram> &allPrograms() {
  static const std::vector<NamedProgram> Programs = {
      {"PairedStore", progs::PairedStore},
      {"CseBroken", progs::CseBroken},
      {"CountdownLoop", progs::CountdownLoop},
      {"QueueForwarding", progs::QueueForwarding},
  };
  return Programs;
}

Program parseOrDie(TypeContext &TC, const NamedProgram &NP) {
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, NP.Source, Diags);
  EXPECT_TRUE(bool(P)) << NP.Name << ": " << Diags.str();
  return std::move(*P);
}

/// A fresh private directory for disk-cache tests.
std::string tempDir() {
  char Template[] = "/tmp/talft-serve-test-XXXXXX";
  const char *D = mkdtemp(Template);
  EXPECT_NE(D, nullptr);
  return D ? D : "";
}

/// A served or folded result against the direct campaign: every outcome
/// and strategy field (campaignDiff names the ones that differ).
void expectSameCampaign(const CampaignResult &A, const CampaignResult &B,
                        const std::string &At) {
  EXPECT_EQ(campaignDiff(A, B, FieldClass::ShardInvariant), "") << At;
}

/// Every field outside the timings: what a shard run from a shared
/// SweepReference must reproduce of a shard that recorded its own.
void expectSameShard(const CampaignResult &A, const CampaignResult &B,
                     const std::string &At) {
  EXPECT_EQ(campaignDiff(A, B, ~FieldClass::Timing), "") << At;
}

/// A campaign as the wire carries it (campaignFromJson): the reference
/// trace stays behind.
CampaignResult overTheWire(const CampaignResult &R) {
  std::string Err;
  std::optional<JsonValue> V = JsonValue::parse(campaignJsonLine(R), &Err);
  CampaignResult Out;
  EXPECT_TRUE(V && campaignFromJson(*V, Out, Err)) << Err;
  return Out;
}

/// The unsharded campaign a server must serve for the TAL submission
/// \p Spec, less the reference trace, which the wire does not carry.
CampaignResult directCampaign(const SubmitSpec &Spec) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, Spec.Source, Diags);
  EXPECT_TRUE(bool(P)) << Diags.str();
  CampaignOptions Direct;
  applySpecOptions(Spec, Direct);
  CampaignResult R;
  if (P)
    R = runSingleFaultCampaign(*P, theoremConfig(Spec, Spec.Stride), Direct);
  R.ReferenceTrace.clear();
  return R;
}

SubmitSpec talSpec(const NamedProgram &NP, uint64_t Stride) {
  SubmitSpec Spec;
  Spec.Name = NP.Name;
  Spec.Lang = "tal";
  Spec.Source = NP.Source;
  Spec.Stride = Stride;
  return Spec;
}

/// One sweep a pool test streams: a TAL program at a stride, compiled here
/// for the in-process shards every streamed shard must equal.
struct Sweep {
  SubmitSpec Spec;
  TypeContext TC;
  std::optional<Program> P;
  std::unique_ptr<ExecEngine> Vm; // the spec's default engine

  Sweep(unsigned Prog, uint64_t Stride, bool Prune = false) {
    Spec = talSpec(allPrograms()[Prog], Stride);
    Spec.Prune = Prune;
    P.emplace(parseOrDie(TC, allPrograms()[Prog]));
    Vm = vm::createEngine(P->code());
  }

  std::string name() const {
    return Spec.Name + " stride " + std::to_string(Spec.Stride) +
           (Spec.Prune ? " pruned" : "");
  }

  /// The worker request for this sweep, minus the shard range.
  std::string request() const {
    std::string Req = submitRequestJson(Spec);
    Req.insert(Req.rfind('}'),
               formatv(", \"resolved_stride\": %llu, \"campaign_threads\": 1",
                       (unsigned long long)Spec.Stride));
    return Req;
  }

  /// Shard \p I of \p N run in-process, as the wire carries it.
  CampaignResult shard(unsigned I, unsigned N) const {
    CampaignOptions Opts;
    applySpecOptions(Spec, Opts);
    Opts.Engine = Vm.get();
    Opts.ShardCount = N;
    Opts.ShardIndex = I;
    return overTheWire(
        runSingleFaultCampaign(*P, theoremConfig(Spec, Spec.Stride), Opts));
  }

  /// The unsharded campaign every fold of this sweep must equal.
  CampaignResult whole() const { return directCampaign(Spec); }
};

/// Runs every shard of \p Config's sweep from one SweepReference for each
/// shard count in \p Ns (0 stands for three more shards than tasks), folds
/// them and holds the fold to the unsharded campaign. With \p OwnShards,
/// every shard also runs on its own runSingleFaultCampaign, recording its
/// own reference, and the two runs must agree shard for shard and folded
/// (expectSameShard).
void expectShardFolds(const Program &P, const TheoremConfig &Config,
                      const CampaignOptions &Base,
                      const std::vector<unsigned> &Ns, const std::string &At,
                      bool OwnShards = true) {
  CampaignResult Whole = runSingleFaultCampaign(P, Config, Base);
  EXPECT_NE(Whole.ProgramHash, 0u) << At;
  SweepReference Ref(P, Config, Base);
  // The reference run's CFI commits: every committed transfer of a
  // fault-free run, which a table declaring no commit site counts without
  // judging any. Shard 0 alone carries them, so an out-of-range shard,
  // which classifies nothing, reports none.
  if (Base.CfiCheck) {
    CfiTable Counter(P.entryAddress(), 0);
    StepPolicy Counting = Config.Policy;
    Counting.Cfi = &Counter;
    MachineState S = *P.initialState();
    referenceEngine().run(S, P.exitAddress(), Config.MaxSteps, Counting);
    uint64_t RefCommits = Counter.commits();
    EXPECT_GT(RefCommits, 0u) << At;
    EXPECT_GE(Whole.Stats.CfiCommits, RefCommits) << At;
  }
  CampaignOptions Outside = Base;
  Outside.ShardIndex = 1;
  CampaignResult Out = Ref.runShard(Outside);
  EXPECT_EQ(Out.Stats.CfiCommits, 0u) << At;
  EXPECT_EQ(Out.Stats.CfiChecked, Base.CfiCheck) << At;
  for (unsigned N : Ns) {
    if (N == 0)
      N = (unsigned)Whole.Stats.TotalTasks + 3;
    std::string AtN = At + " shards=" + std::to_string(N);
    CampaignResult Own, Shared;
    for (unsigned I = 0; I != N; ++I) {
      CampaignOptions Opts = Base;
      Opts.ShardCount = N;
      Opts.ShardIndex = I;
      CampaignResult B = Ref.runShard(Opts);
      EXPECT_EQ(B.Stats.ShardIndex, I) << AtN;
      EXPECT_EQ(B.Stats.ShardCount, N) << AtN;
      if (OwnShards) {
        // The one-shard run is the unsharded campaign itself.
        CampaignResult A =
            N == 1 ? Whole : runSingleFaultCampaign(P, Config, Opts);
        expectSameShard(A, B, AtN + " shard=" + std::to_string(I));
        if (I == 0)
          Own = std::move(A);
        else
          foldShardResult(Own, A);
      }
      if (I == 0)
        Shared = std::move(B);
      else
        foldShardResult(Shared, B);
    }
    if (OwnShards)
      expectSameShard(Own, Shared, AtN + " folded");
    // The fold is the whole campaign, reference trace included, apart from
    // the slice provenance and the strategy counts a shard boundary moves
    // (FieldClass::ShardStrategy). The CFI commits fold because shard 0
    // alone counts the reference run's.
    // (A block a shard boundary splits rebuilds its base state on both
    // sides, which could count a commit twice more; on these programs none
    // does.)
    expectSameCampaign(Shared, Whole, AtN + " vs whole");
    const CampaignStats &F = Shared.Stats;
    EXPECT_EQ(F.ShardCount, N) << AtN;
    EXPECT_EQ(F.ShardIndex, 0u) << AtN;
    EXPECT_EQ(F.ShardFirstTask, 0u) << AtN;
    // ShardsFolded counts fold operations: 0 marks an unfolded
    // single-shard result, N a genuine N-way fold.
    EXPECT_EQ(F.ShardsFolded, N == 1 ? 0u : N) << AtN;
  }
}

// Contract 1: the deterministic shard partition folds back to the
// unsharded table exactly, for shard counts around and beyond the task
// count, with pruning on and off, whether each shard records its own
// sweep reference or all of them share one.
TEST(ShardFold, SingleFaultShardsFoldBitIdentically) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    TheoremConfig Config;
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized
    for (bool Prune : {false, true}) {
      CampaignOptions Base;
      Base.Prune = Prune;
      // One shard per task and more, on the sweeps small enough to afford
      // a reference recording per shard (PairedStore and CseBroken
      // pruned, 183 and 125 tasks).
      std::vector<unsigned> Ns = {1, 4, 7, 16};
      if (runSingleFaultCampaign(P, Config, Base).Stats.TotalTasks <= 200)
        Ns.push_back(0);
      expectShardFolds(P, Config, Base, Ns,
                       std::string(NP.Name) + " prune=" + (Prune ? "1" : "0"));
    }
  }
}

// The shared reference on every Figure 10 kernel at stride steps/2, on
// the vm (lane groups) and on the JIT (native scalar continuations), with
// pruning on and off. Each kernel also runs every shard on a reference of
// its own in one of those four configurations, in turn: a recording per
// shard in all sixty would take most of this binary's time budget under
// the sanitizers.
TEST(ShardFold, SharedReferenceFoldsOnEveryFig10Kernel) {
  unsigned KernelIndex = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << K.Name << ": " << CP.message();
    const Program &P = CP->Prog;
    vm::Engine Vm(P.code());
    vm::JitEngine Jit(P.code());
    MachineState S = *P.initialState();
    TheoremConfig Config;
    RunResult Ref = Vm.run(S, P.exitAddress(), Config.MaxSteps, Config.Policy);
    ASSERT_EQ(Ref.Status, RunStatus::Halted) << K.Name;
    Config.InjectionStride = std::max<uint64_t>(1, Ref.Steps / 2);
    unsigned OwnConfig = KernelIndex++ % 4, ConfigIndex = 0;
    for (const ExecEngine *E : {(const ExecEngine *)&Vm, (const ExecEngine *)&Jit})
      for (bool Prune : {false, true}) {
        CampaignOptions Base;
        Base.Engine = E;
        Base.Prune = Prune;
        expectShardFolds(P, Config, Base, {1, 4, 7},
                         K.Name + " engine=" + E->name() +
                             " prune=" + (Prune ? "1" : "0"),
                         /*OwnShards=*/ConfigIndex++ == OwnConfig);
      }
  }
}

// Recovery campaigns (no differential replay), --cfi-check campaigns
// (the reference run's commits count in every shard) and queue fault
// sites at stride 1.
TEST(ShardFold, SharedReferenceFoldsUnderRecoveryCfiAndQueueSites) {
  TypeContext TC;
  Program Paired = parseOrDie(TC, allPrograms()[0]);
  Program Countdown = parseOrDie(TC, allPrograms()[2]);
  Program Queue = parseOrDie(TC, allPrograms()[3]);
  vm::Engine Vm(Countdown.code());

  TheoremConfig Recover;
  Recover.Recovery.Enabled = true;
  expectShardFolds(Paired, Recover, CampaignOptions(), {1, 4, 7},
                   "PairedStore recover");

  TheoremConfig Config;
  Config.InjectionStride = 3;
  CampaignOptions Cfi;
  Cfi.CfiCheck = true;
  Cfi.Engine = &Vm;
  for (bool Prune : {false, true}) {
    Cfi.Prune = Prune;
    expectShardFolds(Countdown, Config, Cfi, {1, 4, 7},
                     std::string("CountdownLoop cfi-check prune=") +
                         (Prune ? "1" : "0"));
  }

  expectShardFolds(Queue, TheoremConfig(), CampaignOptions(), {1, 4, 7},
                   "QueueForwarding stride 1");
}

// The typed-campaign entry point shards identically (it shares the
// enumeration and the slice), with and without re-typing faulty states
// (its own serial sweep), CFI tallies included: shard 0 alone counts the
// reference run's commits there too.
TEST(ShardFold, FaultToleranceCampaignShardsFoldBitIdentically) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P =
      parseAndLayoutTalProgram(TC, progs::PairedStore, Diags);
  ASSERT_TRUE(bool(P)) << Diags.str();
  Expected<CheckedProgram> CP = checkProgram(TC, *P, Diags);
  ASSERT_TRUE(bool(CP)) << Diags.str();
  TheoremConfig Config;
  Config.InjectionStride = 2;

  CampaignOptions Base;
  Base.CfiCheck = true;
  for (bool Retype : {false, true}) {
    Config.TypeCheckFaultyStates = Retype;
    CampaignResult Whole = runFaultToleranceCampaign(TC, *CP, Config, Base);
    EXPECT_GT(Whole.Stats.CfiCommits, 0u);
    EXPECT_EQ(Whole.StatesTypechecked > 0, Retype);
    for (unsigned N : {4u, 16u}) {
      std::string At = std::string("PairedStore typed retype=") +
                       (Retype ? "1" : "0") + " shards=" + std::to_string(N);
      CampaignResult Acc;
      for (unsigned I = 0; I != N; ++I) {
        CampaignOptions Opts = Base;
        Opts.ShardCount = N;
        Opts.ShardIndex = I;
        CampaignResult Shard =
            runFaultToleranceCampaign(TC, *CP, Config, Opts);
        if (I == 0)
          Acc = std::move(Shard);
        else
          foldShardResult(Acc, Shard);
      }
      expectSameCampaign(Acc, Whole, At);
    }
  }
}

// An out-of-range shard is rejected, and every field it reports agrees
// with its empty slice: no verdict (the static tallies are shard 0's, so
// under pruning too), no pruned task, and the engine it was asked to run.
TEST(ShardFold, OutOfRangeShardIndexIsAViolation) {
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[0]);
  vm::Engine Vm(P.code());
  TheoremConfig Config;
  Config.InjectionStride = 2;
  for (bool Prune : {false, true}) {
    std::string At = std::string("prune=") + (Prune ? "1" : "0");
    CampaignOptions Opts;
    Opts.Engine = &Vm;
    Opts.Prune = Prune;
    // Pruning discharges part of the whole sweep statically, so a shard
    // that kept the static tallies would show them.
    if (Prune) {
      EXPECT_GT(runSingleFaultCampaign(P, Config, Opts).Stats.PrunedTasks,
                0u)
          << At;
    }
    Opts.ShardCount = 4;
    Opts.ShardIndex = 4; // one past the end
    CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
    EXPECT_FALSE(R.Ok) << At;
    ASSERT_EQ(R.Violations.size(), 1u) << At;
    EXPECT_NE(R.Violations[0].find("out of range"), std::string::npos) << At;
    EXPECT_EQ(R.Table, VerdictTable()) << At;
    EXPECT_EQ(R.Stats.Tasks, 0u) << At;
    EXPECT_EQ(R.Stats.PrunedTasks, 0u) << At;
    EXPECT_STREQ(R.Stats.Engine, "vm") << At;
  }
}

// Contract 2: the content hash is deterministic over recompiles and
// sensitive to the program actually changing.
TEST(ProgramHash, StableAcrossRecompilesSensitiveToEdits) {
  std::vector<uint64_t> Hashes;
  for (const NamedProgram &NP : allPrograms()) {
    uint64_t First = 0;
    for (int Round = 0; Round != 2; ++Round) {
      TypeContext TC;
      Program P = parseOrDie(TC, NP);
      Expected<MachineState> S0 = P.initialState();
      ASSERT_TRUE(bool(S0)) << NP.Name;
      uint64_t H = programContentHash(P.code(), P.entryAddress(),
                                      P.exitAddress(), *S0);
      EXPECT_NE(H, 0u) << NP.Name;
      if (Round == 0)
        First = H;
      else
        EXPECT_EQ(H, First) << NP.Name << ": hash not reproducible";
    }
    Hashes.push_back(First);
  }
  // Distinct programs hash apart.
  for (size_t I = 0; I != Hashes.size(); ++I)
    for (size_t J = I + 1; J != Hashes.size(); ++J)
      EXPECT_NE(Hashes[I], Hashes[J])
          << allPrograms()[I].Name << " vs " << allPrograms()[J].Name;
}

TEST(ProgramHash, StringFormRoundTrips) {
  uint64_t H = 0x0123456789abcdefull;
  std::string S = programHashString(H);
  EXPECT_EQ(S, "0x0123456789abcdef");
  uint64_t Back = 0;
  EXPECT_TRUE(parseProgramHash(S, Back));
  EXPECT_EQ(Back, H);
  // The prefix is optional on input; garbage is not.
  EXPECT_TRUE(parseProgramHash("123", Back));
  EXPECT_EQ(Back, 0x123u);
  EXPECT_FALSE(parseProgramHash("0x", Back));
  EXPECT_FALSE(parseProgramHash("", Back));
  EXPECT_FALSE(parseProgramHash("0xzz", Back));
  EXPECT_FALSE(parseProgramHash("-1", Back));
}

// Memo keys, the disk memo tier and the write-ahead log all persist
// program hashes, so the hash of a given program must never move. These
// values are the "program_hash" fields of campaign JSON written by an
// earlier build, whose state-hash half was maintained incrementally
// inside MachineState; today's from-scratch hash must reproduce them.
TEST(ProgramHash, PinnedOnFig10KernelsAndExamples) {
  const std::map<std::string, std::string> Pinned = {
      {"164.gzip", "0x7ff41e4ef2573762"},
      {"175.vpr", "0x459c30f1f2c1c533"},
      {"176.gcc", "0x435e373c8003b694"},
      {"181.mcf", "0xe5d103fbe880378d"},
      {"186.crafty", "0x2f2150674403cae7"},
      {"197.parser", "0x288171ca7f2f6dee"},
      {"254.gap", "0xc2d3525eeb73aa1d"},
      {"255.vortex", "0x0ff45e9324cc6262"},
      {"256.bzip2", "0x1db7fd5264d35081"},
      {"300.twolf", "0x64151b92715523eb"},
      {"adpcm", "0xb5f1e629da38084a"},
      {"epic", "0x128dca12829a9bf3"},
      {"g721", "0xb1d596ee6a9c176b"},
      {"pegwit", "0x46670e0bef91eb00"},
      {"jpeg", "0x3516cd7e8f003b10"},
      {"wile_demo.tal", "0xf7be931d1c65cc04"},
      {"checksum.wile", "0x7a015c3ad764906d"},
  };

  auto HashOf = [](const Program &P) {
    Expected<MachineState> S0 = P.initialState();
    EXPECT_TRUE(bool(S0));
    return programHashString(programContentHash(P.code(), P.entryAddress(),
                                                 P.exitAddress(),
                                                 S0 ? *S0 : MachineState()));
  };
  auto CompileWile = [&](const std::string &Name, const std::string &Source) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, Source, wile::CodegenMode::FaultTolerant, Diags);
    ASSERT_TRUE(bool(CP)) << Name << ": " << CP.message();
    EXPECT_EQ(HashOf(CP->Prog), Pinned.at(Name)) << Name;
  };
  auto ReadExample = [](const std::string &File) {
    std::ifstream In(std::string(TALFT_EXAMPLES_DIR) + "/" + File);
    EXPECT_TRUE(In.good()) << File;
    std::ostringstream SS;
    SS << In.rdbuf();
    return SS.str();
  };

  for (const wile::Kernel &K : wile::benchmarkKernels())
    CompileWile(K.Name, K.Source);
  CompileWile("checksum.wile", ReadExample("checksum.wile"));
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> Demo =
      parseAndLayoutTalProgram(TC, ReadExample("wile_demo.tal"), Diags);
  ASSERT_TRUE(bool(Demo)) << Diags.str();
  EXPECT_EQ(HashOf(*Demo), Pinned.at("wile_demo.tal"));
}

// The campaign records the same hash the serve layer computes for the
// memo key — they must agree or the cache could answer for the wrong
// program.
TEST(ProgramHash, CampaignRecordsTheMemoKeyHash) {
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[0]);
  TheoremConfig Config;
  Config.InjectionStride = 2;
  CampaignResult R = runSingleFaultCampaign(P, Config, CampaignOptions());
  Expected<MachineState> S0 = P.initialState();
  ASSERT_TRUE(bool(S0));
  EXPECT_EQ(R.ProgramHash, programContentHash(P.code(), P.entryAddress(),
                                              P.exitAddress(), *S0));
}

// Contract 4: JSON plumbing.
TEST(ServeJson, ParserHandlesTheProtocolSubset) {
  std::string Err;
  std::optional<JsonValue> V = JsonValue::parse(
      "{\"a\": 18446744073709551615, \"b\": [1, 2.5, true, null], "
      "\"s\": \"q\\\"\\u0041\\n\"}",
      &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(V->u64At("a", 0), 18446744073709551615ull); // > 2^53: exact
  EXPECT_EQ(V->get("b")->items().size(), 4u);
  EXPECT_EQ(V->stringAt("s", ""), "q\"A\n");
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", &Err).has_value());
  EXPECT_FALSE(JsonValue::parse("{", &Err).has_value());
  EXPECT_FALSE(JsonValue::parse("", &Err).has_value());
}

/// Sets field \p F of \p R to the K-th of two perturbations (K is 1 or
/// 2): values that differ from a real campaign's and from each other,
/// that the wire carries exactly, and whose strings need escaping. A
/// bool's second perturbation keeps it.
void perturb(const CampaignField &F, CampaignResult &R, unsigned K) {
  std::string Tag = "\"\n\t~" + std::to_string(K);
  std::visit(
      [&](auto P) {
        using T = std::remove_pointer_t<decltype(P)>;
        if constexpr (!std::is_pointer_v<decltype(P)>)
          return; // a derived value
        else if constexpr (std::is_same_v<T, bool>)
          *P = K == 1 ? !*P : *P;
        else if constexpr (std::is_integral_v<T>)
          *P += 3 * K;
        else if constexpr (std::is_same_v<T, double>)
          *P = 2.5 * K;
        else if constexpr (std::is_same_v<T, const char *>)
          *P = K == 1 ? "jit" : "vm";
        else if constexpr (std::is_same_v<T, VerdictTable>)
          P->Counts[0] = UINT64_MAX - K;
        else if constexpr (std::is_same_v<T, OutputTrace>)
          P->push_back({0x40, K});
        else if constexpr (std::is_same_v<T, std::string>)
          *P += Tag;
        else
          P->push_back(Tag);
      },
      F.At(R));
}

/// This test's own reading of an integer fold rule (bools as 0 and 1).
uint64_t foldOracle(FoldRule Rule, uint64_t A, uint64_t B) {
  using enum FoldRule;
  return Rule == Sum             ? A + B
         : Rule == SaturatingSum ? (B > UINT64_MAX - A ? UINT64_MAX : A + B)
         : Rule == Max           ? std::max(A, B)
         : Rule == Min           ? std::min(A, B)
         : Rule == Or            ? A || B
         : Rule == And           ? A && B
         : Rule == First         ? (A ? A : B)
         : Rule == Shards        ? (A ? A : 1) + (B ? B : 1)
                                 : UINT64_MAX; // no integer rule
}

/// Holds field \p F of \p Got, which folded \p B into \p A with cap
/// \p Cap, to this test's reading of the row's rule.
void expectFolded(const CampaignField &F, const CampaignResult &A,
                  const CampaignResult &B, const CampaignResult &Got,
                  size_t Cap) {
  std::visit(
      [&](auto PA) {
        using Ptr = decltype(PA);
        if constexpr (std::is_pointer_v<Ptr>) {
          const auto &X = *PA, &Y = *std::get<Ptr>(F.read(B));
          const auto &Z = *std::get<Ptr>(F.read(Got));
          using T = std::decay_t<decltype(X)>;
          if constexpr (std::is_integral_v<T>) {
            EXPECT_EQ(Z, foldOracle(F.Fold, X, Y));
          } else if constexpr (std::is_same_v<T, double>) {
            const CampaignStats &S = Got.Stats;
            EXPECT_EQ(Z, F.Fold == FoldRule::Rate ? S.Tasks / S.WallSeconds
                                                  : X + Y);
          } else if constexpr (std::is_same_v<T, VerdictTable>) {
            for (size_t I = 0; I != NumVerdicts; ++I)
              EXPECT_EQ(Z.Counts[I],
                        foldOracle(F.Fold, X.Counts[I], Y.Counts[I]));
          } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
            T Cat = X;
            Cat.insert(Cat.end(), Y.begin(), Y.end());
            Cat.resize(Cap);
            EXPECT_EQ(Z, Cat);
          } else { // a string, the trace or the engine, never empty here
            EXPECT_EQ(F.Fold, FoldRule::First);
            EXPECT_EQ(Z, X);
          }
        }
      },
      F.read(A));
}

// The field table, row by row, on a real result. Each stored field,
// perturbed alone, changes the JSON unless it is never written, comes
// back over the wire unless it never goes there, folds by its row's rule
// in either shard order, and is the one field campaignDiff flags. The
// real shards of the same sweep then fold to the whole campaign on every
// field a fold must keep.
TEST(CampaignFields, EveryRowWritesReadsFoldsAndCompares) {
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[2]);
  vm::Engine Vm(P.code());
  TheoremConfig Config;
  Config.InjectionStride = 3;
  CampaignOptions Opts;
  Opts.Engine = &Vm;
  Opts.Prune = true;
  Opts.CfiCheck = true;
  CampaignResult Whole = runSingleFaultCampaign(P, Config, Opts);
  EXPECT_GT(Whole.Stats.PrunedDetected, 0u);
  EXPECT_GT(Whole.Stats.CfiCommits, 0u);
  // One line on the wire, which loses the reference trace and rounds the
  // timings, and only those: read back, they print the same again.
  EXPECT_EQ(campaignJsonLine(Whole).find('\n'), std::string::npos);
  CampaignResult R = overTheWire(Whole);
  EXPECT_EQ(campaignDiff(R, Whole, ~FieldClass::Timing), "reference_trace");
  R.ReferenceTrace = Whole.ReferenceTrace;
  R.Violations = {"a violation"};
  for (const CampaignField &F : campaignFields()) {
    if (F.Class & FieldClass::Derived)
      continue;
    std::string At = F.name();
    SCOPED_TRACE(At);
    CampaignResult A = R, B = R;
    perturb(F, A, 1);
    perturb(F, B, 2);
    EXPECT_EQ(campaignDiff(A, R, ~FieldClass::Derived), At);
    if (F.Format != FieldFormat::Unwritten) {
      EXPECT_NE(campaignToJson(A), campaignToJson(R));
      EXPECT_EQ(campaignDiff(overTheWire(A), A, ~0u), "reference_trace");
    }
    // The cap cuts the last violation of a perturbed pair.
    size_t Cap = A.Violations.size() + B.Violations.size() - 1;
    for (auto [X, Y] : {std::pair{&A, &B}, std::pair{&B, &A}}) {
      CampaignResult Got = *X;
      foldShardResult(Got, *Y, Cap);
      expectFolded(F, *X, *Y, Got, Cap);
    }
  }
  expectShardFolds(P, Config, Opts, {4}, "real shards");
}

// Contract 3 (key half): every campaign knob lands in the digest, so an
// entry can never answer for different options; shard/thread counts are
// verdict-neutral and deliberately excluded.
TEST(MemoStore, EveryOptionChangeChangesTheDigest) {
  SubmitSpec Base;
  Base.Source = "irrelevant";
  uint64_t D0 = optionsDigest(Base);

  std::vector<SubmitSpec> Variants(10, Base);
  Variants[0].Engine = "reference";
  Variants[1].Stride = 7;
  Variants[2].MaxSteps = 12345;
  Variants[3].ExtraSteps = 1;
  Variants[4].OnlyMentionedRegisters = false;
  Variants[5].Prune = true;
  Variants[6].Converge = false;
  Variants[7].Lanes = false;
  Variants[8].Recover = true;
  Variants[9].RetryBudget = 9;
  std::vector<uint64_t> Digests{D0};
  for (const SubmitSpec &S : Variants)
    Digests.push_back(optionsDigest(S));
  for (size_t I = 0; I != Digests.size(); ++I)
    for (size_t J = I + 1; J != Digests.size(); ++J)
      EXPECT_NE(Digests[I], Digests[J]) << I << " vs " << J;

  // Shard count is partitioning, not semantics: same digest.
  SubmitSpec Sharded = Base;
  Sharded.Shards = 16;
  EXPECT_EQ(optionsDigest(Sharded), D0);
}

// Digests address memo entries on disk and in the write-ahead log, so
// their values are part of the format: pinned.
TEST(MemoStore, OptionsDigestValuesArePinned) {
  SubmitSpec Base;
  EXPECT_EQ(optionsDigest(Base), 0x21f12bc6681210ceull);
  SubmitSpec JitPruned = Base;
  JitPruned.Engine = "jit";
  JitPruned.Prune = true;
  EXPECT_EQ(optionsDigest(JitPruned), 0x3e5ab5b2ff3041c1ull);
  SubmitSpec Recover = Base;
  Recover.Recover = true;
  EXPECT_EQ(optionsDigest(Recover), 0xbbbb37a8b6361dc8ull);
}

TEST(MemoStore, HitsMissesAndInvalidation) {
  MemoStore Store(8);
  MemoEntry E;
  E.Key = {0x1111, 0x2222};
  E.ShardsTotal = 4;
  E.ShardsDone = 4;
  Store.store(E);

  EXPECT_TRUE(Store.lookup({0x1111, 0x2222}).has_value());
  // Program edit → different hash → miss.
  EXPECT_FALSE(Store.lookup({0x1112, 0x2222}).has_value());
  // Option change → different digest → miss.
  EXPECT_FALSE(Store.lookup({0x1111, 0x2223}).has_value());

  MemoStats S = Store.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Entries, 1u);

  // A partial entry is a partial hit, not a hit.
  MemoEntry Partial;
  Partial.Key = {0x3333, 0x4444};
  Partial.ShardsTotal = 4;
  Partial.ShardsDone = 2;
  Store.store(Partial);
  std::optional<MemoEntry> Got = Store.lookup(Partial.Key);
  ASSERT_TRUE(Got.has_value());
  EXPECT_FALSE(Got->complete());
  EXPECT_EQ(Store.stats().PartialHits, 1u);
}

TEST(MemoStore, EvictionBoundsTheEntryCount) {
  MemoStore Store(4);
  for (uint64_t I = 0; I != 10; ++I) {
    MemoEntry E;
    E.Key = {I, I};
    E.ShardsTotal = E.ShardsDone = 1;
    Store.store(E);
  }
  MemoStats S = Store.stats();
  EXPECT_EQ(S.Entries, 4u);
  EXPECT_EQ(S.Evictions, 6u);
  // LRU: the oldest keys are gone, the newest survive.
  EXPECT_FALSE(Store.lookup({0, 0}).has_value());
  EXPECT_TRUE(Store.lookup({9, 9}).has_value());
}

TEST(MemoStore, DiskPersistenceRoundTripsAndSurvivesRestart) {
  // A nested, not-yet-existing path: the store must mkdir -p its cache
  // dir so a fresh --cache-dir works without manual setup.
  std::string Dir = tempDir() + "/nested/cache";
  ASSERT_FALSE(Dir.empty());

  // Shard 0 of 4: a partial entry, the drain case.
  CampaignResult R = Sweep(0, 2).shard(0, 4);

  MemoKey Key{R.ProgramHash, 0xabcdef};
  {
    MemoStore Store(4, Dir);
    MemoEntry E;
    E.Key = Key;
    E.Name = "PairedStore";
    E.Certification = "typed";
    E.ShardsTotal = 4;
    E.ShardsDone = 1;
    E.Folded = R;
    Store.store(E);
    EXPECT_EQ(Store.stats().DiskStores, 1u);
  }
  // A brand-new store (fresh process, same cache dir) must answer from
  // disk with the partial fold intact.
  MemoStore Fresh(4, Dir);
  std::optional<MemoEntry> Got = Fresh.lookup(Key);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Fresh.stats().DiskLoads, 1u);
  EXPECT_EQ(Got->Name, "PairedStore");
  EXPECT_EQ(Got->Certification, "typed");
  EXPECT_EQ(Got->ShardsTotal, 4u);
  EXPECT_EQ(Got->ShardsDone, 1u);
  EXPECT_FALSE(Got->complete());
  expectSameCampaign(Got->Folded, R, "disk roundtrip");

  // Eviction only trims memory; the file still answers.
  for (uint64_t I = 0; I != 8; ++I) {
    MemoEntry E;
    E.Key = {I, I};
    E.ShardsTotal = E.ShardsDone = 1;
    Fresh.store(E);
  }
  EXPECT_TRUE(Fresh.lookup(Key).has_value());
}

// Seeded mutants of a memo file, read through MemoStore::lookup:
// truncations, bit flips, and edited counts, keys and schema. Each is a
// miss or an entry whose shard counts agree with its fold; none crashes
// or hangs the reader.
TEST(MemoStore, MutatedFilesAreMissesOrConsistentEntries) {
  CampaignResult R = Sweep(0, 2).shard(0, 4);
  MemoEntry E{.Key = {R.ProgramHash, 0xabcdef},
              .ShardsTotal = 4,
              .ShardsDone = 1,
              .Folded = R};
  std::string Dir = tempDir();
  MemoStore(4, Dir).store(E);
  ASSERT_TRUE(MemoStore(4, Dir).lookup(E.Key).has_value());
  std::string Path = MemoStore(4, Dir).entryPath(E.Key);
  std::ostringstream Valid;
  Valid << std::ifstream(Path).rdbuf();

  const std::pair<const char *, const char *> Edits[] = {
      {"\"shards_done\": 1", "\"shards_done\": 5"},
      {"\"shards_done\": 1", "\"shards_done\": 0"},
      {"\"shards_total\": 4", "\"shards_total\": 0"},
      {"\"shards_total\": 4", "\"shards_total\": 4294967300"},
      {"\"count\": 4", "\"count\": 2"},
      {"\"program_hash\": \"0x", "\"program_hash\": \"0x1"},
      {CacheSchema, "talft-serve-cache-v0"},
  };
  std::mt19937_64 Rng(0x6d656d6f);
  for (unsigned I = 0; I != 900; ++I) {
    std::string Text = Valid.str();
    if (I % 3 == 0) {
      Text.resize(Rng() % Text.size());
    } else if (I % 3 == 1) {
      for (unsigned Flips = 1 + Rng() % 3; Flips--;)
        Text[Rng() % Text.size()] ^= (char)(1u << (Rng() % 8));
    } else {
      auto [From, To] = Edits[Rng() % std::size(Edits)];
      Text.replace(Text.find(From), std::strlen(From), To);
    }
    ASSERT_TRUE(support::writeFileAtomic(Path, Text));
    std::optional<MemoEntry> Got = MemoStore(4, Dir).lookup(E.Key);
    if (!Got)
      continue;
    const CampaignStats &S = Got->Folded.Stats;
    EXPECT_EQ(Got->ShardsDone, std::max(1u, S.ShardsFolded)) << Text;
    EXPECT_LE(Got->ShardsDone, Got->ShardsTotal) << Text;
    EXPECT_EQ(S.ShardCount, Got->ShardsTotal) << Text;
  }
}

// Contract 5: the full loop over loopback.
TEST(ServeEndToEnd, ColdSubmitStreamsShardsAndMatchesDirectRun) {
  ServerOptions SO;
  SO.DefaultShards = 4;
  SO.Workers = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  Spec.Stride = 2; // explicit so the direct run below matches exactly
  Spec.Engine = "reference";

  SubmitOutcome Cold = submitProgram("127.0.0.1", S.port(), Spec);
  ASSERT_TRUE(Cold.Error.empty()) << Cold.Error;
  ASSERT_TRUE(Cold.GotResult);
  EXPECT_EQ(Cold.Cache, "miss");
  EXPECT_EQ(Cold.ShardEvents, 4u);
  EXPECT_EQ(Cold.ShardsDone, 4u);
  EXPECT_EQ(Cold.Certification, "typed");

  // The same campaign run directly, unsharded: bit-identical fold.
  CampaignResult Whole = directCampaign(Spec);
  expectSameCampaign(Cold.Campaign, Whole, "served vs direct");
  EXPECT_EQ(Cold.Campaign.Stats.ShardsFolded, 4u);

  // Resubmission: a hit that runs nothing.
  SubmitOutcome Warm = submitProgram("127.0.0.1", S.port(), Spec);
  ASSERT_TRUE(Warm.Error.empty()) << Warm.Error;
  ASSERT_TRUE(Warm.GotResult);
  EXPECT_EQ(Warm.Cache, "hit");
  EXPECT_EQ(Warm.ShardEvents, 0u);
  expectSameCampaign(Warm.Campaign, Whole, "warm vs direct");

  // Any option change misses (prune flips the digest).
  SubmitSpec Pruned = Spec;
  Pruned.Prune = true;
  SubmitOutcome M = submitProgram("127.0.0.1", S.port(), Pruned);
  ASSERT_TRUE(M.Error.empty()) << M.Error;
  EXPECT_EQ(M.Cache, "miss");

  // Stats: well-formed, counts what happened.
  std::string StatsLine, StatsErr;
  ASSERT_TRUE(requestStats("127.0.0.1", S.port(), StatsLine, StatsErr))
      << StatsErr;
  std::optional<JsonValue> Stats = JsonValue::parse(StatsLine, &StatsErr);
  ASSERT_TRUE(Stats.has_value()) << StatsErr;
  EXPECT_EQ(Stats->stringAt("schema", ""), StatsSchema);
  EXPECT_EQ(Stats->u64At("submits", 0), 3u);
  EXPECT_EQ(Stats->get("cache")->u64At("hits", 0), 1u);
  EXPECT_EQ(Stats->get("cache")->u64At("misses", 0), 2u);
  EXPECT_EQ(Stats->get("shards")->u64At("retired", 0), 8u);

  S.stop();
}

TEST(ServeEndToEnd, MalformedRequestsAreErrorsNotCrashes) {
  Server S((ServerOptions()));
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Bad;
  Bad.Lang = "tal";
  Bad.Source = "block main { this does not parse }";
  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Bad);
  EXPECT_FALSE(O.Error.empty());
  EXPECT_EQ(O.ErrorCode, "compile_error");
  EXPECT_FALSE(O.GotResult);

  S.stop();
}

// Start -> stop cycles racing the handler threads as they park: the drain
// flag flips under the queue mutex, so no handler can check its wait
// predicate, miss the drain notification and block forever. Every stop()
// gets a deadline instead of hanging the suite; a server whose stop()
// missed it is leaked with its stopper thread, so the stuck thread never
// touches freed memory.
TEST(ServeEndToEnd, StopWakesIdleHandlersEveryTime) {
  for (int Cycle = 0; Cycle != 300; ++Cycle) {
    ServerOptions SO;
    SO.Workers = 8;
    SO.PoolWorkers = 0;
    auto *S = new Server(SO);
    std::string Err;
    ASSERT_TRUE(S->start(&Err)) << Err;
    std::promise<void> Stopped;
    std::future<void> Done = Stopped.get_future();
    std::thread Stopper([S, P = std::move(Stopped)]() mutable {
      S->stop();
      P.set_value();
    });
    if (Done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      Stopper.detach();
      FAIL() << "stop() missed its deadline in cycle " << Cycle;
    }
    Stopper.join();
    delete S;
  }
}

// Drain + resume across a server restart: the partial fold persists
// through the shared cache directory, and the resumed total equals an
// uninterrupted run.
TEST(ServeEndToEnd, DrainLeavesAResumablePartialEntry) {
  std::string Dir = tempDir();
  ASSERT_FALSE(Dir.empty());

  SubmitSpec Spec;
  Spec.Name = "CountdownLoop";
  Spec.Lang = "tal";
  Spec.Source = progs::CountdownLoop;
  Spec.Stride = 2;
  Spec.Engine = "reference";
  Spec.Shards = 4;

  SubmitOutcome First;
  {
    ServerOptions SO;
    SO.CacheDir = Dir;
    SO.DrainAfterShards = 2; // deterministic mid-campaign drain
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(&Err)) << Err;
    First = submitProgram("127.0.0.1", S.port(), Spec);
    S.wait(); // the drain hook already stopped it
    // The drain discarded the shard in flight: no crash, no replacement
    // worker for the pool that is about to stop, and exactly the two
    // drained shards retired.
    EXPECT_EQ(S.poolStats().Crashes, 0u);
    EXPECT_EQ(S.poolStats().Spawned, 2u);
    std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
    ASSERT_TRUE(Stats && Stats->get("shards"));
    EXPECT_EQ(Stats->get("shards")->u64At("retired", 0), 2u);
  }
  ASSERT_TRUE(First.Error.empty()) << First.Error;
  EXPECT_TRUE(First.Drained);
  EXPECT_FALSE(First.GotResult);
  EXPECT_EQ(First.ShardsDone, 2u);
  EXPECT_EQ(First.ShardsTotal, 4u);

  // Restart on the same cache dir; the resubmission resumes shards 2..3.
  ServerOptions SO2;
  SO2.CacheDir = Dir;
  Server S2(SO2);
  std::string Err;
  ASSERT_TRUE(S2.start(&Err)) << Err;
  SubmitOutcome Second = submitProgram("127.0.0.1", S2.port(), Spec);
  ASSERT_TRUE(Second.Error.empty()) << Second.Error;
  ASSERT_TRUE(Second.GotResult);
  EXPECT_EQ(Second.Cache, "partial");
  EXPECT_EQ(Second.ShardEvents, 2u); // only the remaining shards ran
  EXPECT_EQ(S2.poolStats().Dispatched, 2u);
  S2.stop();

  // The resumed fold equals an uninterrupted direct run.
  expectSameCampaign(Second.Campaign, directCampaign(Spec),
                     "resumed vs direct");
}

/// The "front_end" object of \p S's stats document.
JsonValue frontEndStats(const Server &S) {
  std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
  EXPECT_TRUE(Stats && Stats->get("front_end"));
  return Stats && Stats->get("front_end") ? *Stats->get("front_end")
                                          : JsonValue();
}

/// \p Spec's certification, computed directly.
std::string certificationOf(const SubmitSpec &Spec) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, Spec.Source, Diags);
  EXPECT_TRUE(bool(P)) << Diags.str();
  return P ? analysis::certificationStatusJsonKey(
                 analysis::certifyProgram(TC, *P).Status)
           : "";
}

// PairedStore and a twin whose done block demands a register the jump to
// it never sets. Code, entry, exit and initial state agree, so do the
// program hash and the memo key, and the twin is a memo hit served the
// first one's campaign; but the checker reads block preconditions, so the
// two certify differently, and each must report its own certification.
// The front-end memo keys on the source bytes for exactly this reason.
TEST(FrontEndMemo, TalTwinsShareAProgramHashNotACertification) {
  SubmitSpec Paired = talSpec(allPrograms()[0], 2);
  SubmitSpec Twin = Paired;
  Twin.Name = "PairedStoreTwin";
  const std::string DonePre = "block done {\n"
                              "  pre { forall m: mem; queue []; mem m }";
  size_t At = Twin.Source.find(DonePre);
  ASSERT_NE(At, std::string::npos);
  Twin.Source.replace(At, DonePre.size(),
                      "block done {\n"
                      "  pre { forall m: mem; r7: (G, int, 9); queue []; "
                      "mem m }");
  std::string PairedCert = certificationOf(Paired);
  std::string TwinCert = certificationOf(Twin);
  ASSERT_EQ(PairedCert, "typed");
  ASSERT_NE(TwinCert, PairedCert);

  ServerOptions SO;
  SO.CampaignThreads = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  SubmitOutcome First = submitProgram("127.0.0.1", S.port(), Paired);
  SubmitOutcome Second = submitProgram("127.0.0.1", S.port(), Twin);
  SubmitOutcome Again = submitProgram("127.0.0.1", S.port(), Paired);
  JsonValue FE = frontEndStats(S);
  S.stop();

  ASSERT_TRUE(First.GotResult) << First.Error;
  ASSERT_TRUE(Second.GotResult) << Second.Error;
  ASSERT_TRUE(Again.GotResult) << Again.Error;
  EXPECT_EQ(First.Cache, "miss");
  EXPECT_EQ(Second.ProgramHash, First.ProgramHash);
  EXPECT_EQ(Second.Cache, "hit");
  EXPECT_EQ(Second.ShardEvents, 0u);
  expectSameCampaign(Second.Campaign, First.Campaign, "twin vs first");
  EXPECT_EQ(First.Certification, PairedCert);
  EXPECT_EQ(Second.Certification, TwinCert);
  EXPECT_EQ(Again.Cache, "hit");
  EXPECT_EQ(Again.Certification, PairedCert);
  // Two sources, two front-end misses; the resubmission is the one hit.
  EXPECT_EQ(FE.u64At("misses", 0), 2u);
  EXPECT_EQ(FE.u64At("hits", 0), 1u);
  EXPECT_EQ(FE.u64At("entries", 0), 2u);
}

// A known source skips the front end whatever its campaign options: a
// warm resubmission, a new stride (which still runs every shard) and the
// adaptive stride (whose probe compiles the program again) each count a
// front-end hit, with the pool and with in-process shards. A bad source
// is remembered too and keeps failing with compile_error. The front-end
// memo never holds more than CacheEntries sources.
TEST(FrontEndMemo, KnownSourcesSkipTheFrontEndAtAnyOptions) {
  for (unsigned PoolWorkers : {2u, 0u}) {
    std::string At = "pool workers " + std::to_string(PoolWorkers);
    ServerOptions SO;
    SO.PoolWorkers = PoolWorkers;
    SO.CampaignThreads = 1;
    SO.CacheEntries = 2;
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(&Err)) << Err;
    auto ExpectCounts = [&](uint64_t Hits, uint64_t Misses,
                            const std::string &After) {
      JsonValue FE = frontEndStats(S);
      EXPECT_EQ(FE.u64At("hits", 0), Hits) << At << " after " << After;
      EXPECT_EQ(FE.u64At("misses", 0), Misses) << At << " after " << After;
      EXPECT_LE(FE.u64At("entries", 0), SO.CacheEntries) << At;
      EXPECT_EQ(FE.u64At("capacity", 0), SO.CacheEntries) << At;
    };
    SubmitSpec Countdown = talSpec(allPrograms()[2], 2);
    Countdown.Engine = "reference";
    SubmitOutcome Cold = submitProgram("127.0.0.1", S.port(), Countdown);
    ASSERT_TRUE(Cold.GotResult) << At << ": " << Cold.Error;
    EXPECT_EQ(Cold.Cache, "miss") << At;
    ExpectCounts(0, 1, "the cold submit");

    SubmitOutcome Warm = submitProgram("127.0.0.1", S.port(), Countdown);
    ASSERT_TRUE(Warm.GotResult) << At << ": " << Warm.Error;
    EXPECT_EQ(Warm.Cache, "hit") << At;
    EXPECT_EQ(Warm.ShardEvents, 0u) << At;
    EXPECT_EQ(Warm.Certification, Cold.Certification) << At;
    ExpectCounts(1, 1, "the warm submit");

    SubmitSpec Stride3 = Countdown;
    Stride3.Stride = 3;
    SubmitOutcome New = submitProgram("127.0.0.1", S.port(), Stride3);
    ASSERT_TRUE(New.GotResult) << At << ": " << New.Error;
    EXPECT_EQ(New.Cache, "miss") << At;
    EXPECT_EQ(New.ShardEvents, 4u) << At;
    EXPECT_EQ(New.ProgramHash, Cold.ProgramHash) << At;
    EXPECT_EQ(New.Certification, Cold.Certification) << At;
    expectSameCampaign(New.Campaign, directCampaign(Stride3), At + " stride 3");
    ExpectCounts(2, 1, "stride 3");

    SubmitSpec Adaptive = Countdown;
    Adaptive.Stride = 0;
    SubmitOutcome Probed = submitProgram("127.0.0.1", S.port(), Adaptive);
    ASSERT_TRUE(Probed.GotResult) << At << ": " << Probed.Error;
    EXPECT_EQ(Probed.Cache, "miss") << At;
    Adaptive.Stride =
        std::max<uint64_t>(1, Probed.Campaign.ReferenceSteps / 12);
    expectSameCampaign(Probed.Campaign, directCampaign(Adaptive),
                       At + " adaptive stride");
    ExpectCounts(3, 1, "the adaptive stride");

    SubmitSpec Bad;
    Bad.Lang = "tal";
    Bad.Source = "block main { this does not parse }";
    for (uint64_t Round = 0; Round != 2; ++Round) {
      SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Bad);
      EXPECT_EQ(O.ErrorCode, "compile_error") << At;
      EXPECT_FALSE(O.Error.empty()) << At;
      EXPECT_FALSE(O.GotResult) << At;
      ExpectCounts(3 + Round, 2, "a bad source");
    }

    // A third source evicts the least recently used one, the countdown
    // loop, which misses again on its return.
    SubmitOutcome Paired =
        submitProgram("127.0.0.1", S.port(), talSpec(allPrograms()[0], 2));
    ASSERT_TRUE(Paired.GotResult) << At << ": " << Paired.Error;
    ExpectCounts(4, 3, "a third source");
    SubmitOutcome Back = submitProgram("127.0.0.1", S.port(), Countdown);
    ASSERT_TRUE(Back.GotResult) << At << ": " << Back.Error;
    EXPECT_EQ(Back.Certification, Cold.Certification) << At;
    ExpectCounts(4, 4, "the evicted source");
    S.stop();
  }
}

// --- Contract 6: crash-isolated worker pool ------------------------------

// The chaos hook kills every second dispatched worker at the shard
// boundary — after the shard's work is done but before any result byte
// leaves the process. Every crashed shard must be retried on a fresh
// worker and the folded table must not differ by a bit.
TEST(WorkerPoolE2E, CrashedShardsAreRetriedBitIdentically) {
  ServerOptions SO;
  SO.DefaultShards = 4;
  SO.ChaosCrashEveryN = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  Spec.Stride = 2;
  Spec.Engine = "reference";

  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  ASSERT_TRUE(O.Error.empty()) << O.Error;
  ASSERT_TRUE(O.GotResult);
  EXPECT_EQ(O.ShardEvents, 4u);
  // At least one shard needed a second attempt, and the client saw it.
  EXPECT_GE(O.MaxShardAttempts, 2u);

  WorkerPoolStats P = S.poolStats();
  EXPECT_GT(P.Crashes, 0u);
  EXPECT_EQ(P.Retries, P.Crashes); // every crash was retried, none leaked
  EXPECT_GT(P.ChaosInjected, 0u);
  EXPECT_EQ(P.Poisoned, 0u);
  EXPECT_EQ(P.Alive, SO.PoolWorkers); // dead workers were respawned

  expectSameCampaign(O.Campaign, directCampaign(Spec),
                     "chaos-retried vs direct");
  S.stop();
}

/// The in-process server's table for \p Spec: the pool-off baseline every
/// pool-served table must equal.
CampaignResult servedInProcess(const SubmitSpec &Spec) {
  ServerOptions SO;
  SO.PoolWorkers = 0;
  SO.CampaignThreads = 1;
  Server S(SO);
  std::string Err;
  EXPECT_TRUE(S.start(&Err)) << Err;
  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  EXPECT_TRUE(O.GotResult) << O.Error;
  S.stop();
  return O.Campaign;
}

// A one-worker pool streams every shard of a submission from one sweep
// reference, recorded once per stream. Two submissions in flight at once
// (two programs, and two strides of one program) take turns at the
// worker, one whole stream each. Every served table equals the in-process
// server's and the unsharded campaign's.
TEST(WorkerPoolE2E, OneWorkerSharesItsSweepReferenceAcrossShards) {
  ServerOptions SO;
  SO.PoolWorkers = 1;
  SO.DefaultShards = 4;
  SO.CampaignThreads = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  auto Check = [](const SubmitSpec &Spec, const SubmitOutcome &O) {
    ASSERT_TRUE(O.GotResult) << Spec.Name << ": " << O.Error;
    EXPECT_EQ(O.Cache, "miss") << Spec.Name;
    EXPECT_EQ(O.ShardEvents, 4u) << Spec.Name;
    std::string At = Spec.Name + " stride " + std::to_string(Spec.Stride);
    expectSameShard(O.Campaign, servedInProcess(Spec), At + " vs in-process");
    expectSameCampaign(O.Campaign, directCampaign(Spec), At + " vs direct");
  };

  SubmitSpec Countdown = talSpec(allPrograms()[2], 2);
  Check(Countdown, submitProgram("127.0.0.1", S.port(), Countdown));

  for (auto [A, B] : {std::pair{talSpec(allPrograms()[0], 1),
                                talSpec(allPrograms()[3], 1)},
                      std::pair{talSpec(allPrograms()[2], 3),
                                talSpec(allPrograms()[2], 5)}}) {
    std::future<SubmitOutcome> First = std::async(std::launch::async, [&] {
      return submitProgram("127.0.0.1", S.port(), A);
    });
    SubmitOutcome Second = submitProgram("127.0.0.1", S.port(), B);
    Check(A, First.get());
    Check(B, Second);
  }
  WorkerPoolStats P = S.poolStats();
  EXPECT_EQ(P.Spawned, 1u);
  EXPECT_EQ(P.Crashes, 0u);
  S.stop();
}

/// A shard as a stream sink saw it.
// A memo file whose shard counts disagree with its fold is a miss, on the
// pool path and in process: the server reruns the campaign rather than
// serve a prefix as finished or resume past the last shard.
TEST(ServeEndToEnd, MangledMemoCountsAreMisses) {
  Sweep W(0, 2);
  W.Spec.Shards = 4;
  CampaignResult Whole = W.whole();
  std::string Dir = tempDir();
  // Shard 0's fold stored under counts that run past the last shard, name
  // no partition, cover nothing, or a partition it was not cut under.
  for (auto [Done, Total] : {std::pair{9u, 4u}, std::pair{1u, 0u},
                             std::pair{0u, 4u}, std::pair{1u, 2u}})
    for (unsigned Workers : {2u, 0u}) {
      std::string At = formatv("done=%u total=%u workers=%u", Done, Total,
                               Workers);
      MemoStore(4, Dir).store({.Key = {Whole.ProgramHash,
                                       optionsDigest(W.Spec)},
                               .ShardsTotal = Total,
                               .ShardsDone = Done,
                               .Folded = W.shard(0, 4)});
      ServerOptions SO;
      SO.CacheDir = Dir;
      SO.PoolWorkers = Workers;
      Server S(SO);
      std::string Err;
      ASSERT_TRUE(S.start(&Err)) << Err;
      SubmitOutcome O = submitProgram("127.0.0.1", S.port(), W.Spec);
      S.stop();
      ASSERT_TRUE(O.GotResult) << At << ": " << O.Error;
      EXPECT_EQ(O.Cache, "miss") << At;
      expectSameCampaign(O.Campaign, Whole, At);
    }
}

struct Delivered {
  unsigned Index = 0;
  unsigned Attempts = 0;
  CampaignResult R;
};

/// Streams [\p First, \p Count) of \p W through \p Pool, collecting every
/// delivered shard; the sink stops after \p StopAfter shards (0 = never).
WorkerPool::StreamOutcome streamSweep(WorkerPool &Pool, const Sweep &W,
                                      unsigned First, unsigned Count,
                                      std::vector<Delivered> &Got,
                                      unsigned StopAfter = 0,
                                      uint64_t DeadlineMs = 0) {
  unsigned Next = First;
  return Pool.runStream(W.request(), First, Count, DeadlineMs,
                        [&](CampaignResult &R, unsigned Attempts) {
                          Got.push_back({Next++, Attempts, std::move(R)});
                          return !StopAfter || Got.size() < StopAfter;
                        });
}

/// Every delivered shard equals the same shard run in-process and names
/// the index the stream was at.
void expectDeliveredShards(const Sweep &W, unsigned Count,
                           const std::vector<Delivered> &Got,
                           const std::string &At) {
  for (const Delivered &D : Got) {
    std::string AtI = At + " shard " + std::to_string(D.Index);
    EXPECT_EQ(D.R.Stats.ShardIndex, D.Index) << AtI;
    expectSameShard(D.R, W.shard(D.Index, Count), AtI);
  }
}

// One worker serves ranges of four sweeps (two programs, and a second
// stride and pruning on one of them) interleaved: round r streams the
// range [(r + j) mod 4, 4) of sweep j, round-robin over the sweeps, so no
// request continues the one before it and each records its own sweep
// reference. Every streamed shard equals the same shard run in-process by
// runSingleFaultCampaign, and each sweep's full-range shards fold to its
// unsharded campaign.
TEST(WorkerPoolE2E, InterleavedRangesStreamFromOneWorker) {
  WorkerPoolOptions PO;
  PO.Workers = 1;
  PO.CampaignThreads = 1;
  WorkerPool Pool(PO);
  std::string Err;
  ASSERT_TRUE(Pool.start(&Err)) << Err;

  std::vector<std::unique_ptr<Sweep>> Sweeps;
  for (auto [Prog, Stride, Prune] :
       {std::tuple{0, 2, false}, std::tuple{2, 2, false},
        std::tuple{2, 2, true}, std::tuple{2, 3, false}})
    Sweeps.push_back(std::make_unique<Sweep>(Prog, Stride, Prune));
  constexpr unsigned Shards = 4;

  uint64_t Streamed = 0;
  std::vector<CampaignResult> Folds(Sweeps.size());
  for (unsigned Round = 0; Round != Shards; ++Round) {
    for (size_t J = 0; J != Sweeps.size(); ++J) {
      const Sweep &W = *Sweeps[J];
      unsigned First = (Round + (unsigned)J) % Shards;
      std::string At = W.name() + " range [" + std::to_string(First) + ", 4)";
      std::vector<Delivered> Got;
      WorkerPool::StreamOutcome O = streamSweep(Pool, W, First, Shards, Got);
      ASSERT_TRUE(O.Ok) << At << ": " << O.Error;
      ASSERT_EQ(Got.size(), Shards - First) << At;
      Streamed += Got.size();
      expectDeliveredShards(W, Shards, Got, At);
      for (Delivered &D : Got) {
        EXPECT_EQ(D.Attempts, 1u) << At;
        if (First != 0)
          continue;
        if (D.Index == 0)
          Folds[J] = std::move(D.R);
        else
          foldShardResult(Folds[J], D.R);
      }
    }
  }
  for (size_t J = 0; J != Sweeps.size(); ++J)
    expectSameCampaign(Folds[J], Sweeps[J]->whole(),
                       Sweeps[J]->name() + " folded");
  WorkerPoolStats S = Pool.stats();
  EXPECT_EQ(S.Spawned, 1u);
  EXPECT_EQ(S.Crashes, 0u);
  EXPECT_EQ(S.Timeouts, 0u);
  EXPECT_EQ(S.Dispatched, Streamed);
  Pool.stop();
}

// A worker that crashes at shard k of a stream takes only the undelivered
// suffix [k, N) with it: the retry on a fresh worker re-runs exactly
// those shards, the sink sees every index once and in order, and each
// shard equals the in-process one.
TEST(WorkerPoolE2E, ChaosCrashReRunsOnlyTheUndeliveredSuffix) {
  WorkerPoolOptions PO;
  PO.Workers = 1;
  PO.CampaignThreads = 1;
  PO.ChaosCrashEveryN = 3; // the stream's third shard attempt: shard 2
  WorkerPool Pool(PO);
  std::string Err;
  ASSERT_TRUE(Pool.start(&Err)) << Err;

  Sweep W(2, 2);
  std::vector<Delivered> Got;
  WorkerPool::StreamOutcome O = streamSweep(Pool, W, 0, 4, Got);
  ASSERT_TRUE(O.Ok) << O.Error;
  ASSERT_EQ(Got.size(), 4u);
  std::vector<unsigned> Indexes, Attempts;
  for (const Delivered &D : Got) {
    Indexes.push_back(D.Index);
    Attempts.push_back(D.Attempts);
  }
  EXPECT_EQ(Indexes, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(Attempts, (std::vector<unsigned>{1, 1, 2, 1}));
  expectDeliveredShards(W, 4, Got, "chaos at shard 2");
  WorkerPoolStats S = Pool.stats();
  EXPECT_EQ(S.Crashes, 1u);
  EXPECT_EQ(S.Retries, 1u);
  EXPECT_EQ(S.ChaosInjected, 1u);
  // Shards 0, 1 and 2 on the first worker, then only 2 and 3 again.
  EXPECT_EQ(S.Dispatched, 5u);
  EXPECT_EQ(S.Spawned, 2u);
  EXPECT_EQ(S.Alive, 1u);
  Pool.stop();
}

// A sink that stops after k shards (what a drain or an expired deadline
// does between frames) folds exactly k, discards the shard in flight
// without counting a crash, and leaves the pool whole: the next stream
// reads its own shards only, never a frame the stopped worker had queued.
TEST(WorkerPoolE2E, StoppedStreamLeavesNoStaleFrame) {
  WorkerPoolOptions PO;
  PO.Workers = 1;
  PO.CampaignThreads = 1;
  WorkerPool Pool(PO);
  std::string Err;
  ASSERT_TRUE(Pool.start(&Err)) << Err;

  Sweep Countdown(2, 2), Paired(0, 2);
  for (unsigned K : {1u, 2u, 3u}) {
    std::string At = "stop after " + std::to_string(K);
    std::vector<Delivered> Got;
    WorkerPool::StreamOutcome O = streamSweep(Pool, Countdown, 0, 4, Got, K);
    EXPECT_FALSE(O.Ok) << At;
    EXPECT_TRUE(O.Stopped) << At;
    EXPECT_EQ(O.Next, K) << At;
    ASSERT_EQ(Got.size(), K) << At;
    expectDeliveredShards(Countdown, 4, Got, At);

    // A different sweep next: any frame left from the stopped stream
    // would decode as the wrong shard.
    std::vector<Delivered> Next;
    O = streamSweep(Pool, Paired, 0, 4, Next);
    ASSERT_TRUE(O.Ok) << At << ": " << O.Error;
    ASSERT_EQ(Next.size(), 4u) << At;
    expectDeliveredShards(Paired, 4, Next, At + ", next stream");
  }
  WorkerPoolStats S = Pool.stats();
  EXPECT_EQ(S.Crashes, 0u);
  EXPECT_EQ(S.Timeouts, 0u);
  EXPECT_EQ(S.Retries, 0u);
  EXPECT_EQ(S.Alive, 1u);
  EXPECT_EQ(S.Spawned, 4u); // each stopped stream's worker was replaced
  Pool.stop();
}

// A one-worker pool whose worker crashes at every second shard attempt:
// each crash ends a stream at a shard that ran on the reference the
// stream recorded, and the undelivered suffix re-runs on a respawned
// worker that records its own. The served table does not change by a bit.
TEST(WorkerPoolE2E, RespawnedWorkerRecordsItsOwnReference) {
  ServerOptions SO;
  SO.PoolWorkers = 1;
  SO.DefaultShards = 4;
  SO.CampaignThreads = 1;
  SO.ChaosCrashEveryN = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec = talSpec(allPrograms()[2], 2);
  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  ASSERT_TRUE(O.GotResult) << O.Error;
  EXPECT_EQ(O.ShardEvents, 4u);
  EXPECT_EQ(O.MaxShardAttempts, 2u);
  WorkerPoolStats P = S.poolStats();
  EXPECT_EQ(P.Crashes, 3u); // shards 1, 2 and 3 crash once each
  EXPECT_EQ(P.Retries, P.Crashes);
  EXPECT_EQ(P.Alive, 1u);
  S.stop();

  expectSameShard(O.Campaign, servedInProcess(Spec), "chaos vs in-process");
  expectSameCampaign(O.Campaign, directCampaign(Spec), "chaos vs direct");
}

// A shard that crashes on *every* attempt is a deterministic crasher:
// after MaxShardAttempts the submission fails with a structured
// "shard_poisoned" error, the pool has respawned its workers, and the
// server keeps answering.
TEST(WorkerPoolE2E, DeterministicCrasherPoisonsTheShardNotTheServer) {
  ServerOptions SO;
  SO.DefaultShards = 2;
  SO.ChaosCrashEveryN = 1; // every dispatch crashes
  SO.MaxShardAttempts = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  Spec.Stride = 2;
  Spec.Engine = "reference";

  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  EXPECT_FALSE(O.GotResult);
  EXPECT_EQ(O.ErrorCode, "shard_poisoned");
  EXPECT_EQ(O.MaxShardAttempts, 2u);

  WorkerPoolStats P = S.poolStats();
  EXPECT_EQ(P.Poisoned, 1u);
  EXPECT_EQ(P.Alive, SO.PoolWorkers);

  // The server is fail-operational: it still answers after the poisoning.
  std::string Pong, PingErr;
  EXPECT_TRUE(requestPing("127.0.0.1", S.port(), Pong, PingErr)) << PingErr;
  S.stop();
}

// A submission deadline bounds the whole shard pipeline — including the
// retries a crashing worker burns — and fails structured.
TEST(WorkerPoolE2E, DeadlineExceededIsStructuredNotSilent) {
  ServerOptions SO;
  SO.DefaultShards = 2;
  SO.ChaosCrashEveryN = 1;  // every attempt crashes…
  SO.MaxShardAttempts = 100; // …and attempts alone never give up,
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  Spec.Stride = 2;
  Spec.Engine = "reference";
  Spec.DeadlineMs = 50; // …so only the deadline can end it.

  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  EXPECT_FALSE(O.GotResult);
  EXPECT_EQ(O.ErrorCode, "deadline_exceeded");

  std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
  ASSERT_TRUE(Stats.has_value());
  EXPECT_GE(Stats->u64At("deadline_exceeded", 0), 1u);
  S.stop();
}

// A shard that wedges mid-stream (the chaos hook stops the worker at
// shard 2's boundary) blows the per-shard timeout: the worker is killed
// and counted as a timeout, not a crash, shards 2 and 3 re-run on a fresh
// worker, and the table equals the in-process server's. Under a
// submission deadline instead, the same wedge ends the submission with a
// structured deadline_exceeded after the two shards that did stream.
TEST(WorkerPoolE2E, TimeoutAndDeadlineExpireMidStream) {
  SubmitSpec Spec = talSpec(allPrograms()[2], 2);
  ServerOptions SO;
  SO.PoolWorkers = 1;
  SO.DefaultShards = 4;
  SO.CampaignThreads = 1;
  SO.ChaosCrashEveryN = 3; // the first stream's third shard: shard 2
  SO.ChaosSignal = SIGSTOP;
  {
    ServerOptions Timed = SO;
    Timed.ShardTimeoutMs = 2000;
    Server S(Timed);
    std::string Err;
    ASSERT_TRUE(S.start(&Err)) << Err;
    SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
    ASSERT_TRUE(O.GotResult) << O.Error;
    EXPECT_EQ(O.ShardEvents, 4u);
    EXPECT_EQ(O.MaxShardAttempts, 2u);
    WorkerPoolStats P = S.poolStats();
    EXPECT_EQ(P.Timeouts, 1u);
    EXPECT_EQ(P.Crashes, 0u);
    EXPECT_EQ(P.Retries, 1u);
    EXPECT_EQ(P.Dispatched, 5u); // shards 0-2, then only 2 and 3 again
    EXPECT_EQ(P.Alive, 1u);
    S.stop();
    expectSameShard(O.Campaign, servedInProcess(Spec),
                    "timed out mid-stream vs in-process");
  }
  {
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(&Err)) << Err;
    SubmitSpec Bounded = Spec;
    Bounded.DeadlineMs = 3000;
    SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Bounded);
    EXPECT_FALSE(O.GotResult);
    EXPECT_EQ(O.ErrorCode, "deadline_exceeded");
    EXPECT_EQ(O.ShardEvents, 2u);
    WorkerPoolStats P = S.poolStats();
    EXPECT_EQ(P.Timeouts, 1u); // the wedged worker, killed at the deadline
    EXPECT_EQ(P.Crashes, 0u);
    EXPECT_EQ(P.Alive, 1u);
    S.stop();
  }
}

// --- Worker-pipe frames under seeded mutation ----------------------------

/// Writes all of \p Bytes to \p Fd, whatever they frame.
void writeBytes(int Fd, const std::string &Bytes) {
  for (size_t Done = 0; Done != Bytes.size();) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    ASSERT_GT(N, 0);
    Done += (size_t)N;
  }
}

/// The exact bytes writeFrame sends for \p Payload (which must fit a pipe
/// buffer).
std::string frameBytes(const std::string &Payload) {
  int Fds[2];
  EXPECT_EQ(::pipe(Fds), 0);
  EXPECT_TRUE(writeFrame(Fds[1], Payload));
  ::close(Fds[1]);
  std::string Bytes;
  char Buf[4096];
  for (ssize_t N; (N = ::read(Fds[0], Buf, sizeof(Buf))) > 0;)
    Bytes.append(Buf, (size_t)N);
  ::close(Fds[0]);
  return Bytes;
}

/// \p Request with the shard range [First, Count) spliced in.
std::string withRange(std::string Request, unsigned First, unsigned Count) {
  Request.insert(Request.rfind('}'),
                 formatv(", \"first_shard\": %u, \"shard_count\": %u", First,
                         Count));
  return Request;
}

// Seeded mutations of a real worker's four-frame stream, fed to the
// parent's frame reader through a pipe: truncations (with the writer
// closed, and left open), bit flips anywhere, CRC flips, length prefixes
// above MaxFrameBytes, and an earlier frame replayed in a later one's
// place. Every frame before the mutated one decodes to its shard; the
// mutated one never does. It reads as a dead worker, or as a timeout
// when the bytes stop short and the pipe stays open.
TEST(WorkerPipeFuzz, MutatedShardFramesNeverDecode) {
  Sweep W(0, 2);
  constexpr unsigned Shards = 4;
  WorkerProc Proc;
  std::string Err;
  ASSERT_TRUE(spawnWorker(Proc, &Err)) << Err;
  ASSERT_TRUE(writeFrame(Proc.RequestFd, withRange(W.request(), 0, Shards)));
  std::string Stream;
  std::vector<size_t> Starts;
  for (unsigned I = 0; I != Shards; ++I) {
    std::string Payload;
    ASSERT_TRUE(readFrame(Proc.ResponseFd, Payload));
    Starts.push_back(Stream.size());
    Stream += frameBytes(Payload);
  }
  destroyWorker(Proc);
  Starts.push_back(Stream.size());
  ASSERT_LT(Stream.size(), 60000u); // the whole stream fits a pipe buffer
  std::vector<CampaignResult> Expected;
  for (unsigned I = 0; I != Shards; ++I)
    Expected.push_back(W.shard(I, Shards));

  using Kind = StreamFrame::Kind;
  // Decodes \p Bytes frame by frame; returns how many frames decoded as
  // their shard and, in \p Last, what ended the read.
  auto Feed = [&](const std::string &Bytes, bool Close, Kind &Last,
                  const std::string &At) {
    int Fds[2];
    EXPECT_EQ(::pipe(Fds), 0);
    writeBytes(Fds[1], Bytes);
    if (Close)
      ::close(Fds[1]);
    unsigned I = 0;
    for (; I != Shards + 1; ++I) {
      StreamFrame F = readStreamFrame(Fds[0], 20, I, Shards);
      Last = F.K;
      if (F.K != Kind::Shard)
        break;
      EXPECT_LT(I, Shards) << At;
      if (I < Shards)
        expectSameShard(F.Result, Expected[I], At + " frame " +
                                                   std::to_string(I));
    }
    ::close(Fds[0]);
    if (!Close)
      ::close(Fds[1]);
    return I;
  };
  auto FrameOf = [&](size_t Offset) {
    unsigned J = 0;
    while (J + 1 < Shards && Starts[J + 1] <= Offset)
      ++J;
    return J;
  };

  Kind Last;
  ASSERT_EQ(Feed(Stream, true, Last, "unmutated"), Shards);
  EXPECT_EQ(Last, Kind::Dead); // EOF after the last frame

  std::mt19937_64 Rng(0x5eedf4a3e5ull);
  for (unsigned Case = 0; Case != 240; ++Case) {
    std::string Bytes = Stream;
    bool Close = true;
    Kind Want = Kind::Dead;
    unsigned Victim = 0;
    std::string What;
    unsigned J = (unsigned)(Rng() % Shards);
    switch (Case % 6) {
    case 0:
    case 1: {
      size_t Cut = Rng() % Bytes.size();
      Bytes.resize(Cut);
      Victim = FrameOf(Cut);
      Close = Case % 6 == 0;
      Want = Close ? Kind::Dead : Kind::Timeout;
      What = "truncated at " + std::to_string(Cut) +
             (Close ? ", writer closed" : ", writer open");
      break;
    }
    case 2: {
      size_t At = Rng() % Bytes.size();
      Bytes[At] = (char)(Bytes[At] ^ (1u << (Rng() % 8)));
      Victim = FrameOf(At);
      What = "bit flip at " + std::to_string(At);
      break;
    }
    case 3: {
      size_t At = Starts[J] + 4 + Rng() % 4;
      Bytes[At] = (char)(Bytes[At] ^ (1u << (Rng() % 8)));
      Victim = J;
      What = "crc flip in frame " + std::to_string(J);
      break;
    }
    case 4: {
      uint32_t Len = MaxFrameBytes + 1 + (uint32_t)(Rng() % 4096);
      std::memcpy(&Bytes[Starts[J]], &Len, sizeof(Len));
      Victim = J;
      What = "length prefix " + std::to_string(Len) + " in frame " +
             std::to_string(J);
      break;
    }
    case 5: {
      J = 1 + (unsigned)(Rng() % (Shards - 1));
      unsigned K = (unsigned)(Rng() % J);
      Bytes = Stream.substr(0, Starts[J]) +
              Stream.substr(Starts[K], Starts[K + 1] - Starts[K]) +
              Stream.substr(Starts[J + 1]);
      Victim = J;
      What = "frame " + std::to_string(K) + " replayed as frame " +
             std::to_string(J);
      break;
    }
    }
    std::string At = "case " + std::to_string(Case) + ": " + What;
    EXPECT_EQ(Feed(Bytes, Close, Last, At), Victim) << At;
    EXPECT_EQ(Last, Want) << At;
  }
}

// Seeded mutations of valid request frames, written to a real worker. A
// frame the worker cannot read (truncated and the pipe closed, a flipped
// CRC or payload bit, a length prefix above MaxFrameBytes) makes it exit
// cleanly, which the parent reads as a dead worker to retire; truncated
// with the pipe left open, it reads as a timeout and the worker is
// killed. A frame the worker reads but cannot serve (an empty shard
// range, no source, not JSON) gets one structured error frame, and the
// same worker then streams a valid request exactly, with nothing left
// over in its pipe. Through the pool, a refused request is a structured
// error that costs no worker.
TEST(WorkerPipeFuzz, MutatedRequestsEndStructuredOrDead) {
  Sweep W(2, 2);
  constexpr unsigned Shards = 4;
  using Kind = StreamFrame::Kind;
  std::string Base = W.request();

  auto ExpectValidStream = [&](WorkerProc &Proc, unsigned First,
                               const std::string &At) {
    ASSERT_TRUE(writeFrame(Proc.RequestFd, withRange(Base, First, Shards)));
    for (unsigned I = First; I != Shards; ++I) {
      StreamFrame F = readStreamFrame(Proc.ResponseFd, 60000, I, Shards);
      ASSERT_EQ(F.K, Kind::Shard) << At << " shard " << I << ": " << F.Error;
      expectSameShard(F.Result, W.shard(I, Shards),
                      At + " shard " + std::to_string(I));
    }
    pollfd P{Proc.ResponseFd, POLLIN, 0};
    EXPECT_EQ(::poll(&P, 1, 20), 0) << At << ": a frame nobody asked for";
  };

  SubmitSpec Empty = W.Spec;
  Empty.Source.clear();
  std::string NoSource = "{\"cmd\": \"submit\", \"lang\": \"tal\", "
                         "\"resolved_stride\": 2}";
  const std::vector<std::pair<std::string, std::string>> Refused = {
      {"first == count", withRange(Base, Shards, Shards)},
      {"first > count", withRange(Base, 7, Shards)},
      {"count == 0", withRange(Base, 0, 0)},
      {"no range", Base},
      {"no source", withRange(NoSource, 0, Shards)},
      {"empty source", withRange(submitRequestJson(Empty), 0, Shards)},
      {"not JSON", Base.substr(0, Base.size() / 2)},
      {"not an object", "[1, 2]"},
  };
  WorkerProc Proc;
  std::string Err;
  ASSERT_TRUE(spawnWorker(Proc, &Err)) << Err;
  for (const auto &[What, Request] : Refused) {
    ASSERT_TRUE(writeFrame(Proc.RequestFd, Request));
    StreamFrame F = readStreamFrame(Proc.ResponseFd, 60000, 0, Shards);
    EXPECT_EQ(F.K, Kind::Error) << What;
    EXPECT_EQ(F.Code, "bad_request") << What;
    ExpectValidStream(Proc, 1, "after " + What);
  }
  destroyWorker(Proc);

  std::string Frame = frameBytes(withRange(Base, 0, Shards));
  std::mt19937_64 Rng(0x5eedbadf7a3eull);
  for (unsigned Case = 0; Case != 25; ++Case) {
    std::string Bytes = Frame;
    bool Close = false;
    std::string What;
    switch (Case % 5) {
    case 0:
    case 1: {
      size_t Cut = Rng() % Bytes.size();
      Bytes.resize(Cut);
      Close = Case % 5 == 0;
      What = "truncated at " + std::to_string(Cut) +
             (Close ? ", pipe closed" : ", pipe open");
      break;
    }
    case 2: {
      size_t At = 4 + Rng() % 4;
      Bytes[At] = (char)(Bytes[At] ^ (1u << (Rng() % 8)));
      What = "crc flip";
      break;
    }
    case 3: {
      size_t At = 8 + Rng() % (Bytes.size() - 8);
      Bytes[At] = (char)(Bytes[At] ^ (1u << (Rng() % 8)));
      What = "payload flip at " + std::to_string(At);
      break;
    }
    case 4: {
      uint32_t Len = MaxFrameBytes + 1 + (uint32_t)(Rng() % 4096);
      std::memcpy(&Bytes[0], &Len, sizeof(Len));
      What = "length prefix " + std::to_string(Len);
      break;
    }
    }
    std::string At = "case " + std::to_string(Case) + ": " + What;
    WorkerProc P;
    ASSERT_TRUE(spawnWorker(P, &Err)) << Err;
    writeBytes(P.RequestFd, Bytes);
    if (Close) {
      ::close(P.RequestFd);
      P.RequestFd = -1;
    }
    bool Open = Case % 5 == 1;
    StreamFrame F = readStreamFrame(P.ResponseFd, Open ? 50 : 60000, 0,
                                    Shards);
    if (Open) {
      // The worker waits for the rest of the frame: the parent times out
      // and kills it.
      EXPECT_EQ(F.K, Kind::Timeout) << At;
      destroyWorker(P);
      continue;
    }
    EXPECT_EQ(F.K, Kind::Dead) << At;
    int Status = 0;
    ASSERT_EQ(::waitpid(P.Pid, &Status, 0), P.Pid) << At;
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << At << ": the worker crashed (status " << Status << ")";
    P.Pid = -1;
    destroyWorker(P);
  }

  WorkerPoolOptions PO;
  PO.Workers = 1;
  PO.CampaignThreads = 1;
  WorkerPool Pool(PO);
  ASSERT_TRUE(Pool.start(&Err)) << Err;
  unsigned Sunk = 0;
  WorkerPool::StreamOutcome O =
      Pool.runStream(NoSource, 0, Shards, 0, [&](CampaignResult &, unsigned) {
        ++Sunk;
        return true;
      });
  EXPECT_FALSE(O.Ok);
  EXPECT_EQ(O.Code, "bad_request");
  EXPECT_EQ(Sunk, 0u);
  std::vector<Delivered> Got;
  O = streamSweep(Pool, W, 0, Shards, Got);
  ASSERT_TRUE(O.Ok) << O.Error;
  expectDeliveredShards(W, Shards, Got, "after a refused stream");
  WorkerPoolStats S = Pool.stats();
  EXPECT_EQ(S.Spawned, 1u);
  EXPECT_EQ(S.Crashes, 0u);
  Pool.stop();
}

// --- Contract 7: the write-ahead submission log --------------------------

TEST(Crc32, MatchesTheIsoHdlcCheckValue) {
  // The canonical CRC-32 check value ("123456789" → 0xCBF43926) pins the
  // polynomial and bit order; the split computation pins the seeding
  // contract used for incremental framing.
  EXPECT_EQ(support::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(support::crc32(""), 0u);
  uint32_t Split = support::crc32("6789", support::crc32("12345"));
  EXPECT_EQ(Split, 0xCBF43926u);
}

TEST(SubmitLog, AcceptRetireTornTailAndCompaction) {
  std::string Dir = tempDir();
  ASSERT_FALSE(Dir.empty());
  std::string Path = Dir + "/submit.wal";

  SubmitSpec Spec;
  Spec.Name = "CountdownLoop";
  Spec.Lang = "tal";
  Spec.Source = progs::CountdownLoop;
  Spec.Stride = 2;
  Spec.Shards = 4;

  uint64_t IdA = 0, IdB = 0;
  {
    SubmitLog L;
    std::string Err;
    ASSERT_TRUE(L.open(Path, &Err)) << Err;
    EXPECT_TRUE(L.pending().empty());
    IdA = L.appendAccept("a", 0x11, 0x22, 4, submitRequestJson(Spec));
    IdB = L.appendAccept("b", 0x33, 0x44, 2, submitRequestJson(Spec));
    ASSERT_NE(IdA, 0u);
    ASSERT_NE(IdB, 0u);
    EXPECT_NE(IdA, IdB);
    L.appendRetire(IdA, "served");
    EXPECT_EQ(L.stats().Appends, 2u);
    EXPECT_EQ(L.stats().Retires, 1u);
  }

  // Reopen: only the unretired accept survives, with its spec parsed
  // back out of the logged request.
  {
    SubmitLog L;
    std::string Err;
    ASSERT_TRUE(L.open(Path, &Err)) << Err;
    ASSERT_EQ(L.pending().size(), 1u);
    const PendingSubmission &P = L.pending()[0];
    EXPECT_EQ(P.Id, IdB);
    EXPECT_EQ(P.Name, "b");
    EXPECT_EQ(P.ProgramHash, 0x33u);
    EXPECT_EQ(P.ShardsTotal, 2u);
    EXPECT_EQ(P.Spec.Source, Spec.Source);
    EXPECT_EQ(P.Spec.Stride, 2u);
    EXPECT_EQ(L.stats().Recovered, 1u);
    // New ids never reuse recovered ones.
    uint64_t IdC = L.appendAccept("c", 0x55, 0x66, 1, submitRequestJson(Spec));
    EXPECT_GT(IdC, IdB);
    L.appendRetire(IdC, "served");
  }

  // A torn tail — a frame cut mid-write by a crash — is discarded; the
  // whole records before it survive.
  {
    std::ofstream Out(Path, std::ios::app | std::ios::binary);
    Out << std::string("\xff\xff\xff\xff torn", 9);
  }
  {
    SubmitLog L;
    std::string Err;
    ASSERT_TRUE(L.open(Path, &Err)) << Err;
    EXPECT_EQ(L.pending().size(), 1u);
    EXPECT_EQ(L.pending()[0].Id, IdB);
    EXPECT_GT(L.stats().TornBytes, 0u);
  }
}

// A server started on a WAL holding an unretired accept replays it to
// completion: the memo fills without any client, the record retires, and
// a later submission of the same program is a pure cache hit.
TEST(WalE2E, ServerReplaysUnretiredSubmissionsOnStartup) {
  std::string Dir = tempDir();
  ASSERT_FALSE(Dir.empty());
  std::string Path = Dir + "/submit.wal";

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  Spec.Stride = 2;
  Spec.Engine = "reference";
  Spec.Shards = 2;

  // Simulate the crash: an accept hits the log and the server dies
  // before any shard retires.
  {
    SubmitLog L;
    std::string Err;
    ASSERT_TRUE(L.open(Path, &Err)) << Err;
    ASSERT_NE(L.appendAccept(Spec.Name, 0, 0, 2, submitRequestJson(Spec)),
              0u);
  }

  ServerOptions SO;
  SO.WalPath = Path;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  EXPECT_EQ(S.walStats().Recovered, 1u);

  // The replayer runs in the background; wait for it to finish.
  bool Replayed = false;
  for (int I = 0; I != 200 && !Replayed; ++I) {
    std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
    ASSERT_TRUE(Stats.has_value());
    Replayed = Stats->u64At("replayed", 0) == 1;
    if (!Replayed)
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(Replayed) << "WAL replay did not complete";

  // The replayed campaign is already folded: a client submission of the
  // same program runs zero shards.
  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  ASSERT_TRUE(O.Error.empty()) << O.Error;
  ASSERT_TRUE(O.GotResult);
  EXPECT_EQ(O.Cache, "hit");
  EXPECT_EQ(O.ShardEvents, 0u);

  expectSameCampaign(O.Campaign, directCampaign(Spec), "replayed vs direct");
  S.stop();

  // The replay retired its record: a restarted log recovers nothing.
  SubmitLog L;
  std::string LErr;
  ASSERT_TRUE(L.open(Path, &LErr)) << LErr;
  EXPECT_TRUE(L.pending().empty());
}

// --- Contract 8: connection hygiene --------------------------------------

int connectRaw(unsigned Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons((uint16_t)Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  EXPECT_EQ(::connect(Fd, (sockaddr *)&Addr, sizeof(Addr)), 0);
  return Fd;
}

bool sendRaw(int Fd, const std::string &S) {
  const char *P = S.data();
  size_t Len = S.size();
  while (Len) {
    ssize_t N = ::send(Fd, P, Len, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    P += N;
    Len -= (size_t)N;
  }
  return true;
}

/// Reads lines until \p Want terminal events ("result"/"drained"/"error")
/// arrived or the peer closed. Returns every parsed event object.
std::vector<JsonValue> readEvents(int Fd, unsigned Want) {
  std::vector<JsonValue> Events;
  std::string Buf;
  unsigned Terminals = 0;
  char Chunk[4096];
  while (Terminals < Want) {
    size_t NL;
    while (Terminals < Want && (NL = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      if (Line.empty())
        continue;
      std::optional<JsonValue> Ev = JsonValue::parse(Line);
      if (!Ev || !Ev->isObject())
        continue;
      std::string Kind = Ev->stringAt("event", "");
      if (Kind == "result" || Kind == "drained" || Kind == "error")
        ++Terminals;
      Events.push_back(std::move(*Ev));
    }
    if (Terminals >= Want)
      break;
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Buf.append(Chunk, (size_t)N);
  }
  return Events;
}

// A request line exceeding the cap is refused with a structured
// bad_request naming the limit — never a silent close the client has to
// diagnose from a reset.
TEST(ConnectionHygiene, OversizedLineGetsAStructuredBadRequest) {
  ServerOptions SO;
  SO.MaxLineBytes = 1024;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  int Fd = connectRaw(S.port());
  ASSERT_TRUE(sendRaw(Fd, std::string(4096, 'x'))); // no newline, ever
  std::vector<JsonValue> Events = readEvents(Fd, 1);
  ::close(Fd);
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].stringAt("event", ""), "error");
  EXPECT_EQ(Events[0].stringAt("code", ""), "bad_request");
  EXPECT_NE(Events[0].stringAt("error", "").find("1024"), std::string::npos);

  std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
  ASSERT_TRUE(Stats.has_value());
  EXPECT_EQ(Stats->u64At("oversized_lines", 0), 1u);
  S.stop();
}

// Two submissions pipelined down one connection answer strictly in
// order, each with its own accepted→shards→result stream.
TEST(ConnectionHygiene, PipelinedSubmissionsAnswerInOrder) {
  ServerOptions SO;
  SO.DefaultShards = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec A;
  A.Name = "PairedStore";
  A.Lang = "tal";
  A.Source = progs::PairedStore;
  A.Stride = 2;
  A.Engine = "reference";
  SubmitSpec B = A;
  B.Name = "CountdownLoop";
  B.Source = progs::CountdownLoop;

  int Fd = connectRaw(S.port());
  ASSERT_TRUE(
      sendRaw(Fd, submitRequestJson(A) + "\n" + submitRequestJson(B) + "\n"));
  std::vector<JsonValue> Events = readEvents(Fd, 2);
  ::close(Fd);

  std::vector<std::string> ResultNames;
  unsigned Accepted = 0;
  for (const JsonValue &Ev : Events) {
    if (Ev.stringAt("event", "") == "accepted")
      ++Accepted;
    if (Ev.stringAt("event", "") == "result")
      ResultNames.push_back(Ev.stringAt("name", ""));
  }
  EXPECT_EQ(Accepted, 2u);
  ASSERT_EQ(ResultNames.size(), 2u);
  EXPECT_EQ(ResultNames[0], "PairedStore");
  EXPECT_EQ(ResultNames[1], "CountdownLoop");
  S.stop();
}

// GET /stats (and the stats cmd) answer while a sweep is in flight on
// another connection — introspection is never blocked behind work.
TEST(ConnectionHygiene, StatsServeDuringAnActiveSweep) {
  ServerOptions SO;
  SO.DefaultShards = 8;
  SO.Workers = 2; // one handler free while the other sweeps
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "QueueForwarding";
  Spec.Lang = "tal";
  Spec.Source = progs::QueueForwarding;
  Spec.Stride = 1;
  Spec.Engine = "reference";

  SubmitOutcome O;
  std::thread Submitter(
      [&] { O = submitProgram("127.0.0.1", S.port(), Spec); });
  for (int I = 0; I != 10; ++I) {
    std::string Line, StatsErr;
    ASSERT_TRUE(requestStats("127.0.0.1", S.port(), Line, StatsErr))
        << StatsErr;
    std::optional<JsonValue> Stats = JsonValue::parse(Line, &StatsErr);
    ASSERT_TRUE(Stats.has_value()) << StatsErr;
    EXPECT_EQ(Stats->stringAt("schema", ""), StatsSchema);
  }
  Submitter.join();
  ASSERT_TRUE(O.Error.empty()) << O.Error;
  EXPECT_TRUE(O.GotResult);
  S.stop();
}

// Connections beyond the admission queue are shed with a retry hint, not
// left to time out against a full backlog.
TEST(ConnectionHygiene, OverloadSheddingCarriesARetryHint) {
  ServerOptions SO;
  SO.QueueCap = 0; // everything is backpressure
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  SubmitSpec Spec;
  Spec.Name = "PairedStore";
  Spec.Lang = "tal";
  Spec.Source = progs::PairedStore;
  SubmitOutcome O = submitProgram("127.0.0.1", S.port(), Spec);
  EXPECT_FALSE(O.GotResult);
  EXPECT_EQ(O.ErrorCode, "overloaded");
  EXPECT_GE(O.RetryAfterMs, 200u);

  std::optional<JsonValue> Stats = JsonValue::parse(S.statsJson());
  ASSERT_TRUE(Stats.has_value());
  EXPECT_GE(Stats->u64At("overloaded", 0), 1u);
  S.stop();
}

} // namespace
