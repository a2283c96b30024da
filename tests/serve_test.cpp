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
//      campaign entry points; an out-of-range shard index is a violation,
//      not silence;
//   2. the whole-program content hash is stable across recompiles of the
//      same source, sensitive to program edits, and pinned bit for bit on
//      the Figure 10 kernels and the examples, so it can anchor the memo
//      key of entries persisted by earlier builds;
//   3. the memo store answers resubmissions (hit), refuses to answer for
//      any changed campaign option (distinct digests → miss), resumes
//      partial folds, bounds its memory footprint by LRU eviction, and
//      round-trips entries through the on-disk cache losslessly;
//   4. the wire protocol round-trips campaign results (campaignToJson →
//      campaignFromJson) with every integer field exact;
//   5. end to end over loopback: a cold submission streams one event per
//      shard and serves a campaign bit-identical to a directly-run one; a
//      resubmission is a cache hit that streams zero shard events; a
//      drained server leaves a resumable partial entry that a restarted
//      server (same cache directory) finishes from where it stopped; and
//      stop() returns promptly however it races idle handler threads;
//   6. crash isolation: shards run on forked worker processes; a worker
//      crashing at the shard boundary (the chaos hook) is retried on a
//      fresh worker and the served table stays bit-identical; a
//      deterministic crasher poisons its one submission, not the server;
//      deadlines fail structured, not silent;
//   7. durability: the write-ahead submission log survives retires,
//      replays, torn tails and compaction; a server started on a log
//      with unretired accepts replays them to completion;
//   8. connection hygiene: oversized request lines get a structured
//      bad_request, pipelined submissions on one connection answer in
//      order, stats serve during an active sweep, and connections beyond
//      the queue cap shed with "overloaded" + retry_after_ms.
//
//===----------------------------------------------------------------------===//

#include "check/ProgramChecker.h"
#include "fault/Campaign.h"
#include "isa/ProgramHash.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/MemoStore.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/SubmitLog.h"
#include "support/Crc32.h"
#include "tal/Parser.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <netinet/in.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
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

void expectSameCampaign(const CampaignResult &A, const CampaignResult &B,
                        const std::string &At) {
  EXPECT_EQ(A.Ok, B.Ok) << At;
  EXPECT_EQ(A.Table, B.Table) << At;
  EXPECT_EQ(A.Violations, B.Violations) << At;
  EXPECT_EQ(A.ReferenceSteps, B.ReferenceSteps) << At;
  EXPECT_EQ(A.StatesTypechecked, B.StatesTypechecked) << At;
  EXPECT_EQ(A.ProgramHash, B.ProgramHash) << At;
}

// Contract 1: the deterministic shard partition folds back to the
// unsharded table exactly, for shard counts around and beyond the task
// count, with pruning on and off.
TEST(ShardFold, SingleFaultShardsFoldBitIdentically) {
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    TheoremConfig Config;
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized
    for (bool Prune : {false, true}) {
      CampaignOptions Base;
      Base.Prune = Prune;
      CampaignResult Whole = runSingleFaultCampaign(P, Config, Base);
      EXPECT_NE(Whole.ProgramHash, 0u) << NP.Name;

      for (unsigned N : {1u, 4u, 16u}) {
        CampaignResult Acc;
        for (unsigned I = 0; I != N; ++I) {
          CampaignOptions Opts;
          Opts.Prune = Prune;
          Opts.ShardCount = N;
          Opts.ShardIndex = I;
          CampaignResult Shard = runSingleFaultCampaign(P, Config, Opts);
          EXPECT_EQ(Shard.Stats.ShardIndex, I);
          EXPECT_EQ(Shard.Stats.ShardCount, N);
          if (I == 0)
            Acc = std::move(Shard);
          else
            foldShardResult(Acc, Shard);
        }
        std::string At = std::string(NP.Name) + " prune=" +
                         (Prune ? "1" : "0") + " shards=" +
                         std::to_string(N);
        expectSameCampaign(Acc, Whole, At);
        // ShardsFolded counts fold operations: 0 marks an unfolded
        // single-shard result, N a genuine N-way fold.
        EXPECT_EQ(Acc.Stats.ShardsFolded, N == 1 ? 0u : N) << At;
        EXPECT_EQ(Acc.Stats.TotalTasks, Whole.Stats.TotalTasks) << At;
      }
    }
  }
}

// The typed-campaign entry point shards identically (it shares the
// enumeration and the slice).
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
  CampaignResult Whole = runFaultToleranceCampaign(TC, *CP, Config, Base);
  for (unsigned N : {4u, 16u}) {
    CampaignResult Acc;
    for (unsigned I = 0; I != N; ++I) {
      CampaignOptions Opts;
      Opts.ShardCount = N;
      Opts.ShardIndex = I;
      CampaignResult Shard = runFaultToleranceCampaign(TC, *CP, Config, Opts);
      if (I == 0)
        Acc = std::move(Shard);
      else
        foldShardResult(Acc, Shard);
    }
    expectSameCampaign(Acc, Whole, "PairedStore typed shards=" +
                                       std::to_string(N));
  }
}

TEST(ShardFold, OutOfRangeShardIndexIsAViolation) {
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[0]);
  TheoremConfig Config;
  Config.InjectionStride = 2;
  CampaignOptions Opts;
  Opts.ShardCount = 4;
  Opts.ShardIndex = 4; // one past the end
  CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
  EXPECT_FALSE(R.Ok);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_NE(R.Violations[0].find("out of range"), std::string::npos);
  EXPECT_EQ(R.Stats.Tasks, 0u);
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

TEST(ServeJson, CampaignRoundTripsThroughTheWireForm) {
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[1]); // CseBroken: has violations
  TheoremConfig Config;
  Config.InjectionStride = 2;
  CampaignResult R = runSingleFaultCampaign(P, Config, CampaignOptions());

  std::string Line = campaignJsonLine(R);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  std::string Err;
  std::optional<JsonValue> V = JsonValue::parse(Line, &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  CampaignResult Back;
  ASSERT_TRUE(campaignFromJson(*V, Back, Err)) << Err;
  expectSameCampaign(Back, R, "wire roundtrip");
  EXPECT_EQ(Back.Stats.Tasks, R.Stats.Tasks);
  EXPECT_EQ(Back.Stats.EarlyExits, R.Stats.EarlyExits);
  EXPECT_EQ(Back.Stats.WindowSum, R.Stats.WindowSum);
  EXPECT_EQ(Back.Stats.LaneTasks, R.Stats.LaneTasks);
  EXPECT_EQ(Back.Stats.ShardCount, R.Stats.ShardCount);
  EXPECT_STREQ(Back.Stats.Engine, R.Stats.Engine);
}

// Contract 3 (key half): every campaign knob lands in the digest, so an
// entry can never answer for different options; shard/thread counts are
// verdict-neutral and deliberately excluded.
TEST(MemoStore, EveryOptionChangeChangesTheDigest) {
  SubmitSpec Base;
  Base.Source = "irrelevant";
  uint64_t D0 = optionsDigest(Base);

  std::vector<SubmitSpec> Variants(11, Base);
  Variants[0].Engine = "reference";
  Variants[1].Stride = 7;
  Variants[2].MaxSteps = 12345;
  Variants[3].ExtraSteps = 1;
  Variants[4].OnlyMentionedRegisters = false;
  Variants[5].Prune = true;
  Variants[6].Converge = false;
  Variants[7].Lanes = false;
  Variants[8].LaneWidth = 8;
  Variants[9].Recover = true;
  Variants[10].RetryBudget = 9;
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

  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[0]);
  TheoremConfig Config;
  Config.InjectionStride = 2;
  CampaignResult R = runSingleFaultCampaign(P, Config, CampaignOptions());

  MemoKey Key{R.ProgramHash, 0xabcdef};
  {
    MemoStore Store(4, Dir);
    MemoEntry E;
    E.Key = Key;
    E.Name = "PairedStore";
    E.Certification = "typed";
    E.ShardsTotal = 4;
    E.ShardsDone = 2; // partial: the drain case
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
  EXPECT_EQ(Got->ShardsDone, 2u);
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
  TypeContext TC;
  Program P = parseOrDie(TC, allPrograms()[0]);
  CampaignOptions Direct;
  applySpecOptions(Spec, Direct);
  CampaignResult Whole =
      runSingleFaultCampaign(P, theoremConfig(Spec, Spec.Stride), Direct);
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
  S2.stop();

  // The resumed fold equals an uninterrupted direct run.
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P =
      parseAndLayoutTalProgram(TC, progs::CountdownLoop, Diags);
  ASSERT_TRUE(bool(P)) << Diags.str();
  CampaignOptions Direct;
  applySpecOptions(Spec, Direct);
  CampaignResult Whole =
      runSingleFaultCampaign(*P, theoremConfig(Spec, Spec.Stride), Direct);
  expectSameCampaign(Second.Campaign, Whole, "resumed vs direct");
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

  TypeContext TC;
  Program Prog = parseOrDie(TC, allPrograms()[0]);
  CampaignOptions Direct;
  applySpecOptions(Spec, Direct);
  CampaignResult Whole =
      runSingleFaultCampaign(Prog, theoremConfig(Spec, Spec.Stride), Direct);
  expectSameCampaign(O.Campaign, Whole, "chaos-retried vs direct");
  S.stop();
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

  TypeContext TC;
  Program Prog = parseOrDie(TC, allPrograms()[0]);
  CampaignOptions Direct;
  applySpecOptions(Spec, Direct);
  CampaignResult Whole =
      runSingleFaultCampaign(Prog, theoremConfig(Spec, Spec.Stride), Direct);
  expectSameCampaign(O.Campaign, Whole, "replayed vs direct");
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
