//===- bench/convergence_speedup.cpp - Convergence early-exit payoff ------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Measures what convergence acceleration (CampaignOptions::Converge, the
// sparse differential replay) buys on the Theorem 4 sweep: every
// Figure 10 kernel is swept twice on the raw-semantics campaign — once
// with the replay armed, once with full runs — and the harness compares
// wall-clock time and asserts the verdict tables and violation lists are
// bit-identical (the replay is an optimization, never a semantic change).
// Register faults whose taint drains, or is never read again, resolve
// without stepping the machine, so the accelerated classifier replaces
// O(remaining program) per such injection with O(events touching the
// taint).
//
//   convergence_speedup [--threads N] [--engine reference|vm|jit]
//                       [--no-prune] [--json [FILE]]
//
//   --threads N   worker threads (default 1; 0 = hardware concurrency).
//   --engine E    engine for the faulty continuations (default vm).
//   --no-prune    keep statically-dead sites in the simulated sweep
//                 (the headline number is measured on the pruned sweep,
//                 matching the nightly workflow).
//   --json [FILE] emit a machine-readable report (schema talft-bench-v1;
//                 the nightly workflow uploads it as
//                 BENCH_convergence.json) to FILE (written atomically)
//                 or stdout, with the human table on stderr.
//
// Exit status is nonzero if any kernel's accelerated verdict table,
// violation list or reference step count differs from its full-run
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
  CampaignResult Full;
  CampaignResult Accel;
  bool Identical = false;
};

/// The whole-campaign cost: reference phase (which pays the access-log
/// recording when convergence is on) plus the injection phase.
double campaignSeconds(const CampaignResult &R) {
  return R.Stats.ReferenceSeconds + R.Stats.WallSeconds;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--engine reference|vm|jit] "
                 "[--no-prune] [--json [FILE]]\n",
                 Argv[0]);
    return 2;
  }
  FILE *Out = (C.Json && C.JsonPath.empty()) ? stderr : stdout;

  std::fprintf(Out, "Convergence early-exit speedup on the Figure 10 sweep\n");
  std::fprintf(Out,
               "(%s sites; %u thread%s; %s engine; identical = verdict "
               "table, violations\nand reference steps match the full-run "
               "baseline bit-for-bit)\n\n",
               C.Prune ? "pruned" : "all", C.Threads,
               C.Threads == 1 ? "" : "s", C.Engine.c_str());
  std::fprintf(Out, "%-12s %10s %9s %9s %8s %9s %11s %8s %10s\n", "kernel",
               "injections", "full(s)", "accel(s)", "speedup", "exits",
               "mean win", "skips", "identical");
  std::fprintf(Out, "%.*s\n", 95,
               "------------------------------------------------------------"
               "-----------------------------------");

  std::vector<KernelRow> Rows;
  bool AllIdentical = true;
  double FullTotal = 0, AccelTotal = 0;
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

    KernelRow Row;
    Row.Name = K.Name;
    Row.Suite = K.Suite;
    Row.Stride = Stride;
    Opts.Converge = false;
    Row.Full = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Opts.Converge = true;
    Row.Accel = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Row.Identical = Row.Full.Table == Row.Accel.Table &&
                    Row.Full.Violations == Row.Accel.Violations &&
                    Row.Full.ReferenceSteps == Row.Accel.ReferenceSteps &&
                    Row.Full.Ok == Row.Accel.Ok;
    AllIdentical &= Row.Identical;

    double FullS = campaignSeconds(Row.Full);
    double AccelS = campaignSeconds(Row.Accel);
    FullTotal += FullS;
    AccelTotal += AccelS;
    const CampaignStats &A = Row.Accel.Stats;
    double MeanWin =
        A.EarlyExits ? (double)A.WindowSum / (double)A.EarlyExits : 0.0;
    std::fprintf(Out,
                 "%-12s %10llu %9.4f %9.4f %7.2fx %9llu %11.2f %8llu %10s\n",
                 Row.Name.c_str(),
                 (unsigned long long)Row.Full.Table.total(), FullS, AccelS,
                 AccelS > 0 ? FullS / AccelS : 0.0,
                 (unsigned long long)A.EarlyExits, MeanWin,
                 (unsigned long long)A.LockstepSkips,
                 Row.Identical ? "yes" : "NO");
    Rows.push_back(std::move(Row));
  }

  double Overall = AccelTotal > 0 ? FullTotal / AccelTotal : 0.0;
  std::fprintf(Out, "%.*s\n", 95,
               "------------------------------------------------------------"
               "-----------------------------------");
  std::fprintf(Out, "%-12s %10s %9.4f %9.4f %7.2fx\n", "total", "", FullTotal,
               AccelTotal, Overall);
  std::fprintf(Out, "\n%s\n",
               AllIdentical
                   ? "All accelerated verdict tables are bit-identical to "
                     "the full-run baselines."
                   : "MISMATCH: an accelerated table diverged from its "
                     "baseline.");

  if (C.Json) {
    std::string S = "{\n";
    S += "  \"schema\": \"talft-bench-v1\",\n";
    S += "  \"benchmark\": \"convergence_speedup\",\n";
    S += "  \"unit\": \"campaign_seconds\",\n";
    S += "  \"engine\": \"" + C.Engine + "\",\n";
    S += "  \"threads\": " + std::to_string(C.Threads) + ",\n";
    S += "  \"prune\": " + std::string(C.Prune ? "true" : "false") + ",\n";
    S += "  \"tables_identical\": " +
         std::string(AllIdentical ? "true" : "false") + ",\n";
    S += "  \"kernels\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const KernelRow &R = Rows[I];
      const CampaignStats &A = R.Accel.Stats;
      double FullS = campaignSeconds(R.Full);
      double AccelS = campaignSeconds(R.Accel);
      double MeanWin =
          A.EarlyExits ? (double)A.WindowSum / (double)A.EarlyExits : 0.0;
      char Buf[768];
      std::snprintf(
          Buf, sizeof(Buf),
          "    {\"name\": \"%s\", \"suite\": \"%s\", \"ref_steps\": %llu, "
          "\"stride\": %llu, \"injections\": %llu, "
          "\"full_seconds\": %.6f, \"accel_seconds\": %.6f, "
          "\"accel_reference_seconds\": %.6f, "
          "\"speedup\": %.2f, \"tables_identical\": %s, "
          "\"convergence\": {\"early_exits\": %llu, \"mean_window\": %.2f, "
          "\"max_window\": %llu, \"steps_saved\": %llu, "
          "\"lockstep_skips\": %llu, \"lockstep_steps\": %llu}}%s\n",
          R.Name.c_str(), R.Suite.c_str(),
          (unsigned long long)R.Full.ReferenceSteps,
          (unsigned long long)R.Stride,
          (unsigned long long)R.Full.Table.total(), FullS, AccelS,
          A.ReferenceSeconds, AccelS > 0 ? FullS / AccelS : 0.0,
          R.Identical ? "true" : "false", (unsigned long long)A.EarlyExits,
          MeanWin, (unsigned long long)A.MaxWindow,
          (unsigned long long)A.StepsSaved,
          (unsigned long long)A.LockstepSkips,
          (unsigned long long)A.LockstepSteps,
          I + 1 != Rows.size() ? "," : "");
      S += Buf;
    }
    S += "  ],\n";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"totals\": {\"full_seconds\": %.6f, "
                  "\"accel_seconds\": %.6f, \"speedup\": %.2f}\n",
                  FullTotal, AccelTotal, Overall);
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
