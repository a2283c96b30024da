//===- bench/serve_latency.cpp - Cold vs warm serving latency -------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the certification server's memoization layer
// (src/serve/) buys on resubmission: an in-process server is started on
// a loopback socket, every Figure 10 kernel is submitted twice through
// the real line protocol — once cold (the campaign runs, sharded) and
// once warm (the content-addressed memo answers; zero shards run) — and
// the harness reports end-to-end client latency for both, asserting
// that the warm result is served from cache and that the cold and warm
// campaigns are bit-identical (verdict table, violation list, reference
// steps and program hash). The speedup column is the whole point of the
// memo store: warm latency is protocol + lookup, independent of
// campaign size.
//
// Five rounds run, each on a fresh server, so every cold submit misses
// the memo (at the adaptive stride). A warm submit is a loopback round
// trip of a millisecond or so, and one pair's ratio swings several-fold
// run to run, so each kernel reports the median of its five cold/warm
// pairs by speedup: that pair's cold and warm seconds and their ratio.
// The totals sum the reported pairs.
//
//   serve_latency [--threads N] [--shards N] [--engine reference|vm|jit]
//                 [--prune] [--json [FILE]]
//
//   --threads N   campaign worker threads per shard (default 0 =
//                 hardware concurrency).
//   --shards N    shard partition served per campaign (default 4).
//   --engine E    engine for the faulty continuations (default vm).
//   --prune       discharge statically-dead sites before sweeping.
//   --json [FILE] emit a machine-readable report (schema talft-bench-v1;
//                 the nightly workflow uploads it as BENCH_serve.json)
//                 to FILE (written atomically) or stdout, with the human
//                 table on stderr.
//
// Exit status is nonzero if any cold submission hits the cache, any warm
// submission misses it, or any campaign differs from the kernel's first
// cold one. Warm latency is mostly loopback round-trips, so even the
// median pair's speedup is noisy; the gate in CI runs
// tools/bench_compare.py with generous thresholds and leans on the
// tables_identical flag.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "fault/CampaignFields.h"
#include "support/StringUtils.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "wile/Kernels.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace talft;

namespace {

struct Cli {
  unsigned Threads = 0;
  unsigned Shards = 4;
  std::string Engine = "vm";
  bool Prune = false;
  bool Json = false;
  std::string JsonPath;
};

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--threads") == 0) {
      uint64_t N;
      if (!cli::numArg(Argc, Argv, I, N))
        return false;
      C.Threads = (unsigned)N;
    } else if (std::strcmp(A, "--shards") == 0) {
      uint64_t N;
      if (!cli::numArg(Argc, Argv, I, N) || N == 0)
        return false;
      C.Shards = (unsigned)N;
    } else if (std::strcmp(A, "--engine") == 0) {
      if (!cli::engineArg(Argc, Argv, I, C.Engine))
        return false;
    } else if (std::strcmp(A, "--prune") == 0) {
      C.Prune = true;
    } else if (std::strcmp(A, "--json") == 0) {
      C.Json = true;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        C.JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", A);
      return false;
    }
  }
  return true;
}

/// Rounds per run, each on a fresh server; odd, so the median pair is one
/// of them.
constexpr unsigned Rounds = 5;

struct KernelRow {
  std::string Name;
  std::string Suite;
  /// The median pair by speedup.
  double ColdSeconds = 0;
  double WarmSeconds = 0;
  /// Every round's pair, in round order.
  std::vector<std::pair<double, double>> Pairs;
  serve::SubmitOutcome Cold;
  serve::SubmitOutcome Warm;
  bool Identical = true;
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

std::string reportJson(const Cli &C, const std::vector<KernelRow> &Rows,
                       bool Identical) {
  std::string S = "{\n";
  S += "  \"schema\": \"talft-bench-v1\",\n";
  S += "  \"benchmark\": \"serve_latency\",\n";
  S += "  \"unit\": \"submit_seconds\",\n";
  S += "  \"engine\": \"" + C.Engine + "\",\n";
  S += "  \"threads\": " + std::to_string(C.Threads) + ",\n";
  S += "  \"shards\": " + std::to_string(C.Shards) + ",\n";
  S += "  \"prune\": " + std::string(C.Prune ? "true" : "false") + ",\n";
  S += "  \"rounds\": " + std::to_string(Rounds) + ",\n";
  S += "  \"tables_identical\": " + std::string(Identical ? "true" : "false") +
       ",\n";
  S += "  \"kernels\": [\n";
  double ColdTotal = 0, WarmTotal = 0;
  for (size_t I = 0; I != Rows.size(); ++I) {
    const KernelRow &R = Rows[I];
    ColdTotal += R.ColdSeconds;
    WarmTotal += R.WarmSeconds;
    S += formatv(
        "    {\"name\": \"%s\", \"suite\": \"%s\", "
        "\"injections\": %llu, \"shards\": %u, "
        "\"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
        "\"speedup\": %.2f, \"cold_cache\": \"%s\", "
        "\"warm_cache\": \"%s\", \"tables_identical\": %s}",
        R.Name.c_str(), R.Suite.c_str(),
        (unsigned long long)R.Cold.Campaign.Stats.Tasks,
        R.Cold.ShardsDone, R.ColdSeconds, R.WarmSeconds,
        R.WarmSeconds > 0 ? R.ColdSeconds / R.WarmSeconds : 0.0,
        R.Cold.Cache.c_str(), R.Warm.Cache.c_str(),
        R.Identical ? "true" : "false");
    S += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  S += "  ],\n";
  S += formatv("  \"totals\": {\"cold_seconds\": %.6f, "
                    "\"warm_seconds\": %.6f, \"speedup\": %.2f}\n",
                    ColdTotal, WarmTotal,
                    WarmTotal > 0 ? ColdTotal / WarmTotal : 0.0);
  S += "}\n";
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--shards N] "
                 "[--engine reference|vm|jit] [--prune] [--json [FILE]]\n",
                 Argv[0]);
    return 2;
  }
  FILE *Out = (C.Json && C.JsonPath.empty()) ? stderr : stdout;

  serve::ServerOptions SO;
  SO.CampaignThreads = C.Threads;
  SO.DefaultShards = C.Shards;

  std::fprintf(Out, "Cold vs warm certification-serving latency\n");
  std::fprintf(Out,
               "(in-process server on 127.0.0.1, a fresh one per round; "
               "%u shard%s per campaign;\n %s engine; warm = resubmission "
               "answered by the content-addressed memo store;\n each row "
               "is the median of %u cold/warm pairs by speedup)\n\n",
               C.Shards, C.Shards == 1 ? "" : "s", C.Engine.c_str(), Rounds);

  std::vector<KernelRow> Rows;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    KernelRow Row;
    Row.Name = K.Name;
    Row.Suite = K.Suite;
    Rows.push_back(std::move(Row));
  }
  bool Ok = true;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    serve::Server S(SO);
    std::string Err;
    if (!S.start(&Err)) {
      std::fprintf(stderr, "serve_latency: %s\n", Err.c_str());
      return 1;
    }
    size_t I = 0;
    for (const wile::Kernel &K : wile::benchmarkKernels()) {
      KernelRow &Row = Rows[I++];
      serve::SubmitSpec Spec;
      Spec.Name = K.Name;
      Spec.Lang = "wile";
      Spec.Source = K.Source;
      Spec.Engine = C.Engine;
      Spec.Prune = C.Prune;
      Spec.Shards = C.Shards;

      auto T0 = std::chrono::steady_clock::now();
      serve::SubmitOutcome Cold = serve::submitProgram("127.0.0.1", S.port(),
                                                       Spec);
      double ColdSeconds = secondsSince(T0);
      if (!Cold.Error.empty() || !Cold.GotResult) {
        std::fprintf(stderr, "%s: cold submit failed: %s\n", K.Name.c_str(),
                     Cold.Error.c_str());
        Ok = false;
        continue;
      }
      if (Cold.Cache != "miss") {
        std::fprintf(stderr, "%s: cold submission was not a miss (%s)\n",
                     K.Name.c_str(), Cold.Cache.c_str());
        Ok = false;
      }

      auto T1 = std::chrono::steady_clock::now();
      serve::SubmitOutcome Warm = serve::submitProgram("127.0.0.1", S.port(),
                                                       Spec);
      double WarmSeconds = secondsSince(T1);
      if (!Warm.Error.empty() || !Warm.GotResult) {
        std::fprintf(stderr, "%s: warm submit failed: %s\n", K.Name.c_str(),
                     Warm.Error.c_str());
        Ok = false;
        continue;
      }
      if (Warm.Cache != "hit") {
        std::fprintf(stderr, "%s: warm submission was not a cache hit (%s)\n",
                     K.Name.c_str(), Warm.Cache.c_str());
        Ok = false;
      }
      if (Warm.ShardEvents != 0) {
        std::fprintf(stderr, "%s: warm submission ran %u shard(s)\n",
                     K.Name.c_str(), Warm.ShardEvents);
        Ok = false;
      }
      // Every round serves the same tables: the first round's cold result
      // is the baseline for every later submit.
      if (Row.Pairs.empty())
        Row.Cold = Cold;
      bool Identical =
          campaignDiff(Cold.Campaign, Warm.Campaign, FieldClass::Outcome)
              .empty() &&
          campaignDiff(Row.Cold.Campaign, Cold.Campaign, FieldClass::Outcome)
              .empty();
      Row.Identical &= Identical;
      Ok &= Identical;
      Row.Warm = std::move(Warm);
      Row.Pairs.push_back({ColdSeconds, WarmSeconds});
    }
    S.stop();
  }

  std::fprintf(Out, "%-14s %11s %9s %9s %8s %7s %9s\n", "kernel",
               "injections", "cold(s)", "warm(s)", "speedup", "cache",
               "identical");
  std::fprintf(Out, "%.*s\n", 74,
               "----------------------------------------------------------"
               "----------------");
  std::vector<KernelRow> Served;
  for (KernelRow &Row : Rows) {
    if (Row.Pairs.size() != Rounds) {
      Ok = false;
      continue;
    }
    std::vector<std::pair<double, double>> ByRatio = Row.Pairs;
    auto Ratio = [](const std::pair<double, double> &P) {
      return P.second > 0 ? P.first / P.second : 0.0;
    };
    std::nth_element(ByRatio.begin(), ByRatio.begin() + Rounds / 2,
                     ByRatio.end(), [&](const auto &A, const auto &B) {
                       return Ratio(A) < Ratio(B);
                     });
    Row.ColdSeconds = ByRatio[Rounds / 2].first;
    Row.WarmSeconds = ByRatio[Rounds / 2].second;
    std::fprintf(Out, "%-14s %11llu %9.4f %9.4f %7.1fx %7s %9s\n",
                 Row.Name.c_str(),
                 (unsigned long long)Row.Cold.Campaign.Stats.Tasks,
                 Row.ColdSeconds, Row.WarmSeconds,
                 Row.WarmSeconds > 0 ? Row.ColdSeconds / Row.WarmSeconds : 0.0,
                 Row.Warm.Cache.c_str(), Row.Identical ? "yes" : "NO");
    Served.push_back(std::move(Row));
  }
  Rows = std::move(Served);

  if (C.Json) {
    std::string Doc = reportJson(C, Rows, Ok);
    if (C.JsonPath.empty()) {
      std::fputs(Doc.c_str(), stdout);
    } else if (!cli::writeFileAtomic(C.JsonPath, Doc)) {
      std::fprintf(stderr, "serve_latency: cannot write %s\n",
                   C.JsonPath.c_str());
      return 1;
    }
  }
  if (!Ok) {
    std::fprintf(stderr, "\nserve_latency: FAILURE: cache or identity "
                         "contract violated\n");
    return 1;
  }
  return 0;
}
