//===- bench/campaign_matrix.cpp - Accelerator matrix on the fig10 sweep --===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// An accelerator may make the paper's exhaustive single-fault sweep
// (Theorem 4) faster but must not change its result. This harness holds
// every accelerator (the differential replay, CampaignOptions::Converge;
// lane groups, CampaignOptions::Lanes; the native JIT tier,
// vm/JitEngine.h) to both halves of that on each Figure 10 kernel,
// compiled once at the stride fault_coverage --fig10 uses:
//
//   - six campaign cells, named after the fault_coverage flags that
//     select them: the vm engine with the replay on and off and lane
//     groups on and off, and the JIT engine with the replay on and off;
//   - fault-free reference runs timed on the reference, vm and JIT
//     engines (about TimedSteps steps per engine, a fresh state per run).
//
// The whole set runs Rounds times, its order rotated each round, and
// every time reported is the median over the rounds. Three ratios are
// gated against bench/baselines/BENCH_matrix.json (tools/bench_compare.py):
//
//   converge  vm campaign seconds, replay off / on (lane groups on)
//   lanes     vm campaign seconds, lane groups off / on (replay on)
//   jit       reference-run seconds, vm / jit (the step-rate ratio)
//
//   campaign_matrix [--threads N] [--no-prune] [--json FILE]
//
//   --threads N   campaign worker threads (default 1, the thread count
//                 of the committed baseline; 0 = hardware concurrency).
//   --no-prune    simulate the statically-dead sites too (by default the
//                 sweep is pruned, as in certbench's fig10-sweep).
//   --json FILE   write the report (schema talft-bench-v2: per kernel
//                 and in total, each cell's median reference-phase and
//                 injection seconds, its strategy counters and the three
//                 ratios) to FILE, atomically.
//
// Exit status is 1 unless every run of every cell equals the
// vm-no-converge-no-lanes cell on every outcome field of the campaign
// result (fault/CampaignFields.h); the replay cells' convergence counters
// agree on the vm and the JIT; every replay cell exits early; each vm
// lane-group cell classifies lane tasks; and every timed reference run
// halts after the probed step count. 2 on bad flags or an unwritable
// report.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "fault/CampaignFields.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "vm/LaneSimd.h"
#include "wile/Kernels.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace talft;

namespace {

/// Timing rounds; every reported time is the median over them.
constexpr unsigned Rounds = 5;

/// Each timed batch of fault-free reference runs covers about this many
/// steps (at least one run).
constexpr uint64_t TimedSteps = 1 << 21;

struct CellSpec {
  const char *Name;
  bool Jit;
  bool Converge;
  bool Lanes;
};

enum CellId { Vm, VmNoLanes, VmNoConverge, VmPlain, Jit, JitNoConverge };
constexpr CellSpec Cells[] = {
    {"vm", false, true, true},
    {"vm-no-lanes", false, true, false},
    {"vm-no-converge", false, false, true},
    {"vm-no-converge-no-lanes", false, false, false},
    {"jit", true, true, true},
    {"jit-no-converge", true, false, true},
};
constexpr unsigned NumCells = std::size(Cells);

/// The engines whose fault-free reference runs are timed.
enum RunEngine { OnReference, OnVm, OnJit };
constexpr const char *RunEngineNames[] = {"reference", "vm", "jit"};
constexpr unsigned NumRunEngines = std::size(RunEngineNames);

/// A gated ratio: NumKey's seconds over DenKey's (bench_compare prints
/// both sides under these names).
struct Family {
  const char *Name, *NumKey, *DenKey;
};
constexpr Family Families[] = {
    {"converge", "full", "accel"},
    {"lanes", "scalar", "lanes"},
    {"jit", "vm", "jit"},
};
constexpr unsigned NumFamilies = std::size(Families);

/// One kernel with its engines, every campaign run and every timed batch.
/// Built in place and never moved: the engines point into FK's code.
struct Subject {
  Subject(const wile::Kernel &K, std::unique_ptr<TypeContext> TC,
          cli::Fig10Kernel FK)
      : K(&K), TC(std::move(TC)), FK(std::move(FK)),
        Vm(std::make_unique<vm::Engine>(this->FK.CP.Prog.code())),
        Jit(std::make_unique<vm::JitEngine>(this->FK.CP.Prog.code())),
        Reps(std::max<uint64_t>(1, TimedSteps / this->FK.RefSteps)) {}
  Subject(const Subject &) = delete;
  Subject &operator=(const Subject &) = delete;

  const wile::Kernel *K;
  std::unique_ptr<TypeContext> TC;
  cli::Fig10Kernel FK;
  std::unique_ptr<vm::Engine> Vm;
  std::unique_ptr<vm::JitEngine> Jit;
  uint64_t Reps;
  std::vector<CampaignResult> Runs[NumCells];
  std::vector<double> RunSeconds[NumRunEngines];
  bool Ok = true;
};

using Clock = std::chrono::steady_clock;

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : V[V.size() / 2];
}

double medianOf(const std::vector<CampaignResult> &Runs,
                double CampaignStats::*Field) {
  std::vector<double> V;
  for (const CampaignResult &R : Runs)
    V.push_back(R.Stats.*Field);
  return median(std::move(V));
}

/// A cell's campaign seconds: median reference phase plus median
/// injection phase.
double cellSeconds(const Subject &S, CellId C) {
  return medianOf(S.Runs[C], &CampaignStats::ReferenceSeconds) +
         medianOf(S.Runs[C], &CampaignStats::WallSeconds);
}

/// Numerator and denominator seconds of Families[F] for one kernel.
std::pair<double, double> ratioSides(const Subject &S, unsigned F) {
  switch (F) {
  case 0:
    return {cellSeconds(S, VmNoConverge), cellSeconds(S, Vm)};
  case 1:
    return {cellSeconds(S, VmNoLanes), cellSeconds(S, Vm)};
  default:
    return {median(S.RunSeconds[OnVm]), median(S.RunSeconds[OnJit])};
  }
}

void runCell(Subject &S, CellId C, unsigned Threads, bool Prune) {
  TheoremConfig Config;
  Config.InjectionStride = S.FK.Stride;
  CampaignOptions Opts;
  Opts.Threads = Threads;
  Opts.Prune = Prune;
  Opts.Converge = Cells[C].Converge;
  Opts.Lanes = Cells[C].Lanes;
  Opts.Engine = Cells[C].Jit ? static_cast<const ExecEngine *>(S.Jit.get())
                             : S.Vm.get();
  S.Runs[C].push_back(runSingleFaultCampaign(S.FK.CP.Prog, Config, Opts));
}

/// Times S.Reps fault-free reference runs on engine \p E, each from a
/// fresh initial state (the shape every campaign task pays). A run that
/// does not halt after exactly the probed step count breaks the kernel.
void timeRuns(Subject &S, RunEngine E) {
  const ExecEngine *Engines[] = {&referenceEngine(), S.Vm.get(), S.Jit.get()};
  const ExecEngine &Eng = *Engines[E];
  const Program &P = S.FK.CP.Prog;
  MachineState S0 = *P.initialState();
  TheoremConfig Probe;
  Clock::time_point T0 = Clock::now();
  for (uint64_t I = 0; I != S.Reps; ++I) {
    MachineState M = S0;
    RunResult R = Eng.run(M, P.exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (R.Status != RunStatus::Halted || R.Steps != S.FK.RefSteps) {
      std::fprintf(stderr, "%s: %s reference run diverged (%s after %llu "
                           "steps)\n",
                   S.K->Name.c_str(), RunEngineNames[E],
                   runStatusName(R.Status), (unsigned long long)R.Steps);
      S.Ok = false;
    }
  }
  S.RunSeconds[E].push_back(
      std::chrono::duration<double>(Clock::now() - T0).count());
}

/// Every run of every cell against the vm-no-converge-no-lanes cell, and
/// the replay cells' counters against the vm cell's. Prints each failure.
void crossCheck(Subject &S) {
  const CampaignResult &Base = S.Runs[VmPlain].front();
  const CampaignResult &Replay = S.Runs[Vm].front();
  for (unsigned C = 0; C != NumCells; ++C) {
    unsigned Diverged = 0, Counters = 0, NoExits = 0;
    for (const CampaignResult &R : S.Runs[C]) {
      Diverged += !campaignDiff(R, Base, FieldClass::Outcome).empty();
      Counters +=
          Cells[C].Converge &&
          !campaignDiff(R, Replay, FieldClass::Strategy, "convergence").empty();
      NoExits += Cells[C].Converge && R.Stats.EarlyExits == 0;
    }
    auto Fail = [&](unsigned N, const char *What) {
      if (!N)
        return;
      std::fprintf(stderr, "%s: %s: %s in %u of %u runs\n",
                   S.K->Name.c_str(), Cells[C].Name, What, N, Rounds);
      S.Ok = false;
    };
    Fail(Diverged, "diverged from vm-no-converge-no-lanes");
    Fail(Counters, "convergence counters differ from the vm cell's");
    Fail(NoExits, "the replay settled nothing early");
  }
}

/// printf into a std::string.
__attribute__((format(printf, 1, 2))) std::string fmt(const char *Format,
                                                      ...) {
  va_list Args, Size;
  va_start(Args, Format);
  va_copy(Size, Args);
  std::string S(std::vsnprintf(nullptr, 0, Format, Size), '\0');
  va_end(Size);
  std::vsnprintf(S.data(), S.size() + 1, Format, Args);
  va_end(Args);
  return S;
}

std::string ratiosJson(const double (&Num)[NumFamilies],
                       const double (&Den)[NumFamilies]) {
  std::string S = "{";
  for (unsigned F = 0; F != NumFamilies; ++F)
    S += fmt("%s\"%s\": {\"%s_seconds\": %.6f, \"%s_seconds\": %.6f, "
             "\"speedup\": %.2f}",
             F ? ", " : "", Families[F].Name, Families[F].NumKey, Num[F],
             Families[F].DenKey, Den[F], Den[F] > 0 ? Num[F] / Den[F] : 0.0);
  return S + "}";
}

std::string cellJson(const Subject &S, unsigned C) {
  const CampaignStats &St = S.Runs[C].front().Stats;
  return fmt("\"%s\": {\"reference_seconds\": %.6f, \"injection_seconds\": "
             "%.6f, ",
             Cells[C].Name,
             medianOf(S.Runs[C], &CampaignStats::ReferenceSeconds),
             medianOf(S.Runs[C], &CampaignStats::WallSeconds)) +
         fmt("\"convergence\": {\"early_exits\": %llu, \"window_sum\": %llu, "
             "\"max_window\": %llu, \"steps_saved\": %llu, "
             "\"lockstep_skips\": %llu, \"lockstep_steps\": %llu}, ",
             (unsigned long long)St.EarlyExits,
             (unsigned long long)St.WindowSum,
             (unsigned long long)St.MaxWindow,
             (unsigned long long)St.StepsSaved,
             (unsigned long long)St.LockstepSkips,
             (unsigned long long)St.LockstepSteps) +
         fmt("\"lanes\": {\"enabled\": %s, \"groups\": %llu, \"lane_tasks\": "
             "%llu, \"deviations\": %llu, \"lockstep_steps\": %llu}, ",
             St.Lanes ? "true" : "false", (unsigned long long)St.LaneGroups,
             (unsigned long long)St.LaneTasks,
             (unsigned long long)St.LaneDeviations,
             (unsigned long long)St.LaneLockstepSteps) +
         fmt("\"jit\": {\"native\": %s, \"side_exits\": %llu}}",
             St.JitNative ? "true" : "false",
             (unsigned long long)St.JitSideExits);
}

struct Cli {
  unsigned Threads = 1;
  bool Prune = true;
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
    } else if (std::strcmp(A, "--no-prune") == 0) {
      C.Prune = false;
    } else if (std::strcmp(A, "--json") == 0) {
      if (I + 1 >= Argc)
        return false;
      C.JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", A);
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--no-prune] [--json FILE]\n",
                 Argv[0]);
    return 2;
  }

  std::deque<Subject> Subjects; // grows without moving its elements
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    auto TC = std::make_unique<TypeContext>();
    std::optional<cli::Fig10Kernel> FK = cli::loadFig10Kernel(*TC, K);
    if (!FK)
      return 1;
    Subjects.emplace_back(K, std::move(TC), std::move(*FK));
  }

  constexpr unsigned NumItems = NumCells + NumRunEngines;
  for (unsigned Round = 0; Round != Rounds; ++Round)
    for (Subject &S : Subjects)
      for (unsigned I = 0; I != NumItems; ++I) {
        unsigned Item = (I + Round) % NumItems;
        if (Item < NumCells)
          runCell(S, CellId(Item), C.Threads, C.Prune);
        else
          timeRuns(S, RunEngine(Item - NumCells));
      }

  std::printf("Accelerator matrix on the Figure 10 sweep (%s sites, %u "
              "thread%s, median of %u rounds)\n",
              C.Prune ? "pruned" : "all", C.Threads,
              C.Threads == 1 ? "" : "s", Rounds);
  std::printf("campaign ms per cell; speedups: converge = vm-no-converge / "
              "vm, lanes = vm-no-lanes / vm,\njit = vm / jit on fault-free "
              "reference runs\n\n");
  std::printf("%-11s %6s %7s %7s %7s %7s %7s %7s %8s %6s %6s\n", "kernel",
              "inj", "vm", "vm-nl", "vm-nc", "vm-ncnl", "jit", "jit-nc",
              "converge", "lanes", "jit");

  bool Ok = true, Native = true;
  uint64_t LaneTasks[NumCells] = {}, Blocks = 0, CodeBytes = 0;
  double NumTotal[NumFamilies] = {}, DenTotal[NumFamilies] = {};
  std::string Kernels;
  for (Subject &S : Subjects) {
    crossCheck(S);
    Ok &= S.Ok;
    Native &= S.Jit->native();
    Blocks += S.Jit->blocksCompiled();
    CodeBytes += S.Jit->codeBytes();
    for (unsigned Cell = 0; Cell != NumCells; ++Cell)
      LaneTasks[Cell] += S.Runs[Cell].front().Stats.LaneTasks;

    double Num[NumFamilies], Den[NumFamilies];
    for (unsigned F = 0; F != NumFamilies; ++F) {
      std::tie(Num[F], Den[F]) = ratioSides(S, F);
      NumTotal[F] += Num[F];
      DenTotal[F] += Den[F];
    }
    std::printf("%-11s %6llu", S.K->Name.c_str(),
                (unsigned long long)S.Runs[Vm].front().Table.total());
    for (unsigned Cell = 0; Cell != NumCells; ++Cell)
      std::printf(" %7.2f", 1e3 * cellSeconds(S, CellId(Cell)));
    std::printf(" %7.2fx %5.2fx %5.2fx%s\n", Num[0] / Den[0], Num[1] / Den[1],
                Num[2] / Den[2], S.Ok ? "" : "  MISMATCH");

    if (!Kernels.empty())
      Kernels += ",\n";
    Kernels += fmt("    {\"name\": \"%s\", \"suite\": \"%s\", \"ref_steps\": "
                   "%llu, \"stride\": %llu, \"injections\": %llu, "
                   "\"ok\": %s,\n     \"cells\": {",
                   S.K->Name.c_str(), S.K->Suite.c_str(),
                   (unsigned long long)S.FK.RefSteps,
                   (unsigned long long)S.FK.Stride,
                   (unsigned long long)S.Runs[Vm].front().Table.total(),
                   S.Ok ? "true" : "false");
    for (unsigned Cell = 0; Cell != NumCells; ++Cell)
      Kernels += std::string(Cell ? ",\n       " : "\n       ") +
                 cellJson(S, Cell);
    Kernels += fmt("},\n     \"reference_runs\": {\"reps\": %llu, "
                   "\"reference_seconds\": %.6f, \"vm_seconds\": %.6f, "
                   "\"jit_seconds\": %.6f},\n     \"ratios\": ",
                   (unsigned long long)S.Reps,
                   median(S.RunSeconds[OnReference]),
                   median(S.RunSeconds[OnVm]), median(S.RunSeconds[OnJit])) +
               ratiosJson(Num, Den) + "}";
  }
  std::printf("%-11s %6s %47s %7.2fx %5.2fx %5.2fx\n", "total", "", "",
              NumTotal[0] / DenTotal[0], NumTotal[1] / DenTotal[1],
              NumTotal[2] / DenTotal[2]);

  for (unsigned Cell : {Vm, VmNoConverge})
    if (LaneTasks[Cell] == 0) {
      std::fprintf(stderr, "%s: lane groups classified no task\n",
                   Cells[Cell].Name);
      Ok = false;
    }
  std::printf("\njit tier: native=%s, %llu blocks, %llu code bytes\n%s\n",
              Native ? "yes" : "no (vm fallback)",
              (unsigned long long)Blocks, (unsigned long long)CodeBytes,
              Ok ? "Every run of every cell matches vm-no-converge-no-lanes; "
                   "the replay and lane checks hold."
                 : "MATRIX CHECK FAILED (see stderr).");

  if (!C.JsonPath.empty()) {
    std::string S = "{\n";
    S += "  \"schema\": \"talft-bench-v2\",\n";
    S += "  \"benchmark\": \"campaign_matrix\",\n";
    S += "  \"unit\": \"seconds\",\n";
    S += fmt("  \"threads\": %u,\n  \"prune\": %s,\n  \"rounds\": %u,\n",
             C.Threads, C.Prune ? "true" : "false", Rounds);
    S += fmt("  \"lane_width\": %u,\n  \"simd_lane_width\": %u,\n",
             LaneGroupWidth, vm::simd::laneWidth());
    S += fmt("  \"jit\": {\"native\": %s, \"blocks_compiled\": %llu, "
             "\"code_bytes\": %llu},\n",
             Native ? "true" : "false", (unsigned long long)Blocks,
             (unsigned long long)CodeBytes);
    S += fmt("  \"ok\": %s,\n", Ok ? "true" : "false");
    S += "  \"kernels\": [\n" + Kernels + "\n  ],\n";
    S += "  \"totals\": {\"ratios\": " + ratiosJson(NumTotal, DenTotal) +
         "}\n}\n";
    if (!cli::writeFileAtomic(C.JsonPath, S)) {
      std::fprintf(stderr, "cannot write %s\n", C.JsonPath.c_str());
      return 2;
    }
    std::printf("JSON report written to %s\n", C.JsonPath.c_str());
  }
  return Ok ? 0 : 1;
}
