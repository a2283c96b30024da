//===- bench/lane_speedup.cpp - Batched SoA lane engine payoff ------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the batched structure-of-arrays lane engine
// (CampaignOptions::Lanes, vm/LaneEngine.h) buys on the Theorem 4 sweep:
// every Figure 10 kernel is swept twice on the raw-semantics campaign —
// once on the scalar classifier (--no-lanes) and once with injections
// batched into lockstep lane groups — and the harness compares
// wall-clock time and asserts the verdict tables and violation lists
// are bit-identical (batching is an optimization, never a semantic
// change). Same-snapshot injections share one fetch/decode/boundary
// pass per step and run the ALU families row-at-a-time, so the
// per-injection cost amortizes across the lane width. Both
// configurations keep the differential replay on, so the number
// reported here is the payoff of batching on top of the
// already-accelerated sweep. Lane groups serve interpreted engines only:
// under a native --engine jit both sides run scalar and the ratio is 1.
//
//   lane_speedup [--threads N] [--engine reference|vm|jit] [--no-prune]
//                [--lane-width N] [--json [FILE]]
//
//   --threads N     worker threads (default 1; 0 = hardware concurrency).
//   --engine E      engine for the scalar-path continuations (default vm).
//   --no-prune      keep statically-dead sites in the simulated sweep
//                   (the headline number is measured on the pruned sweep,
//                   matching the nightly workflow).
//   --lane-width N  lanes advanced in lockstep per group (default 16).
//   --json [FILE]   emit a machine-readable report (schema talft-bench-v1;
//                   the nightly workflow uploads it as BENCH_lanes.json)
//                   to FILE (written atomically) or stdout, with the
//                   human table on stderr.
//
// Exit status is nonzero if any kernel's batched verdict table,
// violation list or reference step count differs from its scalar
// baseline.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "fault/Campaign.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct Cli {
  unsigned Threads = 1;
  std::string Engine = "vm";
  bool Prune = true;
  unsigned LaneWidth = 16;
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
    } else if (std::strcmp(A, "--engine") == 0) {
      if (!cli::engineArg(Argc, Argv, I, C.Engine))
        return false;
    } else if (std::strcmp(A, "--no-prune") == 0) {
      C.Prune = false;
    } else if (std::strcmp(A, "--lane-width") == 0) {
      uint64_t N;
      if (!cli::numArg(Argc, Argv, I, N) || N == 0)
        return false;
      C.LaneWidth = (unsigned)N;
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

struct KernelRow {
  std::string Name;
  std::string Suite;
  uint64_t Stride = 1;
  CampaignResult Scalar;
  CampaignResult Lanes;
  bool Identical = false;
};

/// The whole-campaign cost: reference phase (access-log recording) plus
/// the injection phase.
double campaignSeconds(const CampaignResult &R) {
  return R.Stats.ReferenceSeconds + R.Stats.WallSeconds;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--engine reference|vm|jit] "
                 "[--no-prune] [--lane-width N] [--json [FILE]]\n",
                 Argv[0]);
    return 2;
  }
  FILE *Out = (C.Json && C.JsonPath.empty()) ? stderr : stdout;

  std::fprintf(Out, "Batched lane-engine speedup on the Figure 10 sweep\n");
  std::fprintf(Out,
               "(%s sites; %u thread%s; %s engine; width %u; identical = "
               "verdict table,\nviolations and reference steps match the "
               "scalar baseline bit-for-bit)\n\n",
               C.Prune ? "pruned" : "all", C.Threads,
               C.Threads == 1 ? "" : "s", C.Engine.c_str(), C.LaneWidth);
  std::fprintf(Out, "%-12s %10s %9s %9s %8s %7s %9s %8s %10s\n", "kernel",
               "injections", "scalar(s)", "lanes(s)", "speedup", "groups",
               "deviated", "steps", "identical");
  std::fprintf(Out, "%.*s\n", 90,
               "------------------------------------------------------------"
               "-----------------------------------");

  std::vector<KernelRow> Rows;
  bool AllIdentical = true;
  double ScalarTotal = 0, LanesTotal = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    if (!CP) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), CP.message().c_str());
      return 1;
    }
    std::unique_ptr<ExecEngine> Vm;
    const ExecEngine *E = &referenceEngine();
    if (C.Engine == "vm")
      Vm = vm::createEngine(CP->Prog.code());
    else if (C.Engine == "jit")
      Vm = vm::createJitEngine(CP->Prog.code());
    if (Vm)
      E = Vm.get();

    // Same adaptive stride rule as fault_coverage --fig10 (derived from
    // the engine-independent reference length).
    TheoremConfig Probe;
    Expected<MachineState> S0 = CP->Prog.initialState();
    if (Error Err = S0.takeError()) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), Err.message().c_str());
      return 1;
    }
    MachineState S = *S0;
    RunResult RR =
        E->run(S, CP->Prog.exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (RR.Status != RunStatus::Halted) {
      std::fprintf(stderr, "%s: reference run did not halt (%s)\n",
                   K.Name.c_str(), runStatusName(RR.Status));
      return 1;
    }
    uint64_t Stride = std::max<uint64_t>(1, RR.Steps / 12);

    TheoremConfig Config;
    Config.InjectionStride = Stride;
    CampaignOptions Opts;
    Opts.Threads = C.Threads;
    Opts.Engine = Vm.get();
    Opts.Prune = C.Prune;
    Opts.LaneWidth = C.LaneWidth;

    KernelRow Row;
    Row.Name = K.Name;
    Row.Suite = K.Suite;
    Row.Stride = Stride;
    Opts.Lanes = false;
    Row.Scalar = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Opts.Lanes = true;
    Row.Lanes = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Row.Identical = Row.Scalar.Table == Row.Lanes.Table &&
                    Row.Scalar.Violations == Row.Lanes.Violations &&
                    Row.Scalar.ReferenceSteps == Row.Lanes.ReferenceSteps &&
                    Row.Scalar.Ok == Row.Lanes.Ok;
    AllIdentical &= Row.Identical;

    double ScalarS = campaignSeconds(Row.Scalar);
    double LanesS = campaignSeconds(Row.Lanes);
    ScalarTotal += ScalarS;
    LanesTotal += LanesS;
    const CampaignStats &L = Row.Lanes.Stats;
    std::fprintf(Out,
                 "%-12s %10llu %9.4f %9.4f %7.2fx %7llu %9llu %8llu %10s\n",
                 Row.Name.c_str(),
                 (unsigned long long)Row.Scalar.Table.total(), ScalarS, LanesS,
                 LanesS > 0 ? ScalarS / LanesS : 0.0,
                 (unsigned long long)L.LaneGroups,
                 (unsigned long long)L.LaneDeviations,
                 (unsigned long long)L.LaneLockstepSteps,
                 Row.Identical ? "yes" : "NO");
    Rows.push_back(std::move(Row));
  }

  double Overall = LanesTotal > 0 ? ScalarTotal / LanesTotal : 0.0;
  std::fprintf(Out, "%.*s\n", 90,
               "------------------------------------------------------------"
               "-----------------------------------");
  std::fprintf(Out, "%-12s %10s %9.4f %9.4f %7.2fx\n", "total", "",
               ScalarTotal, LanesTotal, Overall);
  std::fprintf(Out, "\n%s\n",
               AllIdentical
                   ? "All batched verdict tables are bit-identical to the "
                     "scalar baselines."
                   : "MISMATCH: a batched table diverged from its scalar "
                     "baseline.");

  if (C.Json) {
    std::string S = "{\n";
    S += "  \"schema\": \"talft-bench-v1\",\n";
    S += "  \"benchmark\": \"lane_speedup\",\n";
    S += "  \"unit\": \"campaign_seconds\",\n";
    S += "  \"engine\": \"" + C.Engine + "\",\n";
    S += "  \"threads\": " + std::to_string(C.Threads) + ",\n";
    S += "  \"prune\": " + std::string(C.Prune ? "true" : "false") + ",\n";
    S += "  \"lane_width\": " + std::to_string(C.LaneWidth) + ",\n";
    S += "  \"tables_identical\": " +
         std::string(AllIdentical ? "true" : "false") + ",\n";
    S += "  \"kernels\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const KernelRow &R = Rows[I];
      const CampaignStats &L = R.Lanes.Stats;
      double ScalarS = campaignSeconds(R.Scalar);
      double LanesS = campaignSeconds(R.Lanes);
      char Buf[768];
      std::snprintf(
          Buf, sizeof(Buf),
          "    {\"name\": \"%s\", \"suite\": \"%s\", \"ref_steps\": %llu, "
          "\"stride\": %llu, \"injections\": %llu, "
          "\"scalar_seconds\": %.6f, \"lanes_seconds\": %.6f, "
          "\"speedup\": %.2f, \"steps_per_second\": %.0f, "
          "\"tables_identical\": %s, "
          "\"lanes\": {\"width\": %u, \"groups\": %llu, "
          "\"lane_tasks\": %llu, \"deviations\": %llu, "
          "\"lockstep_steps\": %llu}}%s\n",
          R.Name.c_str(), R.Suite.c_str(),
          (unsigned long long)R.Scalar.ReferenceSteps,
          (unsigned long long)R.Stride,
          (unsigned long long)R.Scalar.Table.total(), ScalarS, LanesS,
          LanesS > 0 ? ScalarS / LanesS : 0.0,
          LanesS > 0 ? (double)L.LaneLockstepSteps / LanesS : 0.0,
          R.Identical ? "true" : "false", L.LaneWidth,
          (unsigned long long)L.LaneGroups,
          (unsigned long long)L.LaneTasks,
          (unsigned long long)L.LaneDeviations,
          (unsigned long long)L.LaneLockstepSteps,
          I + 1 != Rows.size() ? "," : "");
      S += Buf;
    }
    S += "  ],\n";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"totals\": {\"scalar_seconds\": %.6f, "
                  "\"lanes_seconds\": %.6f, \"speedup\": %.2f}\n",
                  ScalarTotal, LanesTotal, Overall);
    S += Buf;
    S += "}\n";
    if (C.JsonPath.empty()) {
      std::fputs(S.c_str(), stdout);
    } else {
      if (!cli::writeFileAtomic(C.JsonPath, S)) {
        std::fprintf(stderr, "cannot write %s\n", C.JsonPath.c_str());
        return 2;
      }
      std::fprintf(Out, "JSON report written to %s\n", C.JsonPath.c_str());
    }
  }
  return AllIdentical ? 0 : 1;
}
