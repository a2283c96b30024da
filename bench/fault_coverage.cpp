//===- bench/fault_coverage.cpp - Theorem 4 exhaustive sweep table --------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The paper's reliability claim is the Fault Tolerance theorem: on a
// well-typed program, every single transient fault either leaves the
// observable output unchanged (masked) or is detected before corrupt data
// becomes observable, with the faulty output a prefix of the fault-free
// output. This harness performs the exhaustive quantifier sweep —
// every reference-execution step x every fault site x every
// representative corruption value — over the hand-written example
// programs and a compiled kernel, and tabulates the verdicts. A single
// "silent corruption" cell would falsify the theorem; the paper's
// contribution is that type checking makes testing like this redundant
// ("perfect fault coverage relative to the fault model").
//
// The sweep runs on the parallel campaign engine (fault/Campaign.h):
//
//   fault_coverage [--threads N] [--stride N] [--engine E] [--json [FILE]]
//                  [--recover] [--checkpoint-interval N] [--retry-budget N]
//                  [--fig10] [--prune]
//
//   --threads N   worker threads (default 1; 0 = hardware concurrency).
//                 Verdict tables are bit-identical for every N.
//   --stride N    inject at every Nth reference state (default 1 for the
//                 TAL programs, 7 for the compiled kernel; the --fig10
//                 kernels pick an adaptive per-kernel stride).
//   --engine E    execution engine for the faulty continuations:
//                 'vm' (default, the decoded fast path), 'jit' (the
//                 native x86-64 tier, vm/JitEngine.h; falls back to vm
//                 on hosts without executable mappings and reports the
//                 fallback in the campaign JSON) or 'reference' (the
//                 structural interpreter). Engines are bit-identical by
//                 construction, so the verdicts cannot depend on this.
//   --recover     run the faulty continuations under the
//                 checkpoint/rollback layer (recover/RecoveringEngine.h):
//                 detected faults roll back and replay instead of
//                 fail-stopping, and the benign verdicts become
//                 masked / recovered / recovery-escalated — every
//                 recovered run's output is bit-identical to the
//                 fault-free trace.
//   --checkpoint-interval N
//                 checkpoint every Nth verified commit point (default 1).
//   --retry-budget N
//                 rollbacks per checkpoint before escalating (default 2).
//   --fig10       also sweep all fifteen Figure 10 kernels on the
//                 raw-semantics campaign (runSingleFaultCampaign), which
//                 covers the kernels the type checker rejects too.
//   --prune       discharge provably-dead injection sites statically
//                 (analysis/ZapCoverage.h) instead of simulating them;
//                 dead general-register zaps are tallied as
//                 statically-masked and control-register (d/pc) zaps as
//                 statically-masked or statically-detected per the
//                 d-protocol, and the verdict table folds bit-identically
//                 onto the unpruned one (masked + statically-masked and
//                 detected + statically-detected are invariant). The
//                 nightly workflow asserts exactly that.
//   --cfi-check   validate every committed indirect control transfer
//                 against the statically resolved per-jump target sets
//                 (analysis/CFG.h FLTA→MLTA ladder) in every engine.
//                 Record-only: verdict tables are bit-identical either
//                 way. A nonzero violation count is a hard analysis bug —
//                 the static sets missed a target a real run took.
//   --no-converge skip the classifier's first stage, the sparse
//                 differential replay: every injection runs from its
//                 injection step. Verdict tables are bit-identical
//                 either way — bench/campaign_matrix asserts exactly
//                 that — so this is the reference configuration fold
//                 checks compare against.
//   --no-lanes    run every injection continuation by continuation on
//                 the engine instead of in lockstep groups of 16 on the
//                 batched structure-of-arrays lane engine
//                 (vm/LaneEngine.h). Verdict tables are bit-identical
//                 either way — bench/campaign_matrix asserts exactly
//                 that on every Figure 10 kernel — so this is the
//                 reference configuration fold checks compare against.
//   --shards N    deterministically partition every campaign's task list
//                 into N contiguous shards and run only one of them
//                 (fault/Campaign.h applyShardSlice semantics: shard I
//                 covers tasks [I*T/N, (I+1)*T/N); statically-pruned
//                 tallies land in shard 0). Folding the N shard tables
//                 with foldShardResult reproduces the unsharded table
//                 bit-identically — the serve tests assert exactly that.
//   --shard-index I
//                 which shard to run (default 0; must be < N).
//   --json [FILE] emit a machine-readable report (schema
//                 talft-fault-campaign-v8: v7 plus 'jit' in the engine
//                 enum and the per-campaign "jit" stats object
//                 (native, blocks_compiled, code_bytes, side_exits,
//                 simd_lane_width); v7 added the top-level
//                 "cfi_check" knob, the per-program "target_resolution"
//                 summary from the indirect-target ladder, the
//                 statically_detected verdict, the per-campaign "cfi"
//                 object and the "pruned_detected" stat; v6 added the
//                 top-level "shards"/"shard_index" knobs and, per
//                 campaign, the whole-program "program_hash", the "shard"
//                 provenance object and the lossless "window_sum"
//                 convergence counter; v5 added the top-level
//                 "lanes"/"lane_width" knobs and the per-campaign "lanes"
//                 stats object; v4 added the top-level "converge" knob
//                 and the per-campaign "convergence" stats object; v3
//                 added per-program "certification" from the analysis
//                 ladder and the statically_masked verdict / pruned
//                 stats) to FILE (written atomically), or stdout with the
//                 human table on stderr.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "CoveragePrograms.h"
#include "analysis/Certify.h"
#include "check/ProgramChecker.h"
#include "fault/Campaign.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct Cli {
  unsigned Threads = 1;
  uint64_t Stride = 0; // 0 = per-program default
  std::string Engine = "vm";
  bool Json = false;
  std::string JsonPath; // empty = stdout
  bool Recover = false;
  uint64_t CheckpointInterval = 1;
  uint64_t RetryBudget = 2;
  bool Fig10 = false;
  bool Prune = false;
  bool CfiCheck = false;
  bool Converge = true;
  bool Lanes = true;
  unsigned Shards = 1;
  unsigned ShardIndex = 0;
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--stride N] "
               "[--engine reference|vm|jit] [--json [FILE]] [--recover] "
               "[--checkpoint-interval N] [--retry-budget N] [--fig10] "
               "[--prune] [--cfi-check] [--no-converge] [--no-lanes] "
               "[--shards N] [--shard-index I]\n",
               Argv0);
}

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto NumArg = [&](uint64_t &Out) { return cli::numArg(Argc, Argv, I, Out); };
    if (std::strcmp(A, "--threads") == 0) {
      uint64_t N;
      if (!NumArg(N))
        return false;
      C.Threads = (unsigned)N;
    } else if (std::strcmp(A, "--stride") == 0) {
      if (!NumArg(C.Stride) || C.Stride == 0)
        return false;
    } else if (std::strcmp(A, "--recover") == 0) {
      C.Recover = true;
    } else if (std::strcmp(A, "--checkpoint-interval") == 0) {
      if (!NumArg(C.CheckpointInterval) || C.CheckpointInterval == 0)
        return false;
    } else if (std::strcmp(A, "--retry-budget") == 0) {
      if (!NumArg(C.RetryBudget))
        return false;
    } else if (std::strcmp(A, "--fig10") == 0) {
      C.Fig10 = true;
    } else if (std::strcmp(A, "--prune") == 0) {
      C.Prune = true;
    } else if (std::strcmp(A, "--cfi-check") == 0) {
      C.CfiCheck = true;
    } else if (std::strcmp(A, "--no-converge") == 0) {
      C.Converge = false;
    } else if (std::strcmp(A, "--no-lanes") == 0) {
      C.Lanes = false;
    } else if (std::strcmp(A, "--shards") == 0) {
      uint64_t N;
      if (!NumArg(N) || N == 0)
        return false;
      C.Shards = (unsigned)N;
    } else if (std::strcmp(A, "--shard-index") == 0) {
      uint64_t N;
      if (!NumArg(N))
        return false;
      C.ShardIndex = (unsigned)N;
    } else if (std::strcmp(A, "--engine") == 0) {
      if (!cli::engineArg(Argc, Argv, I, C.Engine))
        return false;
    } else if (std::strcmp(A, "--json") == 0) {
      C.Json = true;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        C.JsonPath = Argv[++I];
    } else if (std::strcmp(A, "--help") == 0) {
      usage(Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", A);
      return false;
    }
  }
  return true;
}

/// Where the human-readable table goes: stderr when JSON claims stdout.
FILE *tableStream(const Cli &C) {
  return (C.Json && C.JsonPath.empty()) ? stderr : stdout;
}

struct SweepRow {
  std::string Name;
  CampaignResult Result;
  uint64_t Stride = 1;
  /// Where the program landed on the certification ladder
  /// (analysis/Certify.h): typed, analysis-certified or inconsistent.
  analysis::CertificationStatus Certification =
      analysis::CertificationStatus::Typed;
  /// Per-jump indirect-target resolution tallies from the FLTA→MLTA
  /// ladder (analysis/CFG.h).
  analysis::CFG::ResolutionSummary Resolution;
};

void printRow(FILE *Out, const SweepRow &Row) {
  const CampaignResult &R = Row.Result;
  // The masked and detected columns fold in their statically-discharged
  // twins so the human table reads the same with and without --prune (the
  // JSON keeps them split).
  std::fprintf(Out,
               "%-18s %9llu %11llu %9llu %8llu %9llu %9llu %10s %8.2fs %11.0f\n",
               Row.Name.c_str(), (unsigned long long)R.ReferenceSteps,
               (unsigned long long)R.Table.total(),
               (unsigned long long)(R.Table[Verdict::Detected] +
                                    R.Table[Verdict::DetectedBadPrefix] +
                                    R.Table[Verdict::StaticallyDetected]),
               (unsigned long long)(R.Table[Verdict::Masked] +
                                    R.Table[Verdict::StaticallyMasked]),
               (unsigned long long)R.Table[Verdict::Recovered],
               (unsigned long long)R.Table[Verdict::RecoveryEscalated],
               R.Ok ? "0 (OK)" : "VIOLATED", R.Stats.WallSeconds,
               R.Stats.TriplesPerSecond);
  if (!R.Ok)
    for (const std::string &V : R.Violations)
      std::fprintf(stderr, "  %s\n", V.c_str());
}

/// The faulty-continuation engine for \p C: null means the structural
/// reference interpreter (CampaignOptions' default). Under '--engine jit'
/// on a host that cannot map code pages the JitEngine still constructs —
/// it runs on its embedded vm fallback and the campaign JSON reports
/// jit.native == false.
std::unique_ptr<ExecEngine> makeEngine(const Cli &C, const CodeMemory &Code) {
  if (C.Engine == "vm")
    return vm::createEngine(Code);
  if (C.Engine == "jit")
    return vm::createJitEngine(Code);
  return nullptr;
}

TheoremConfig sweepConfig(const Cli &C, uint64_t Stride) {
  TheoremConfig Config;
  Config.InjectionStride = Stride;
  Config.Recovery.Enabled = C.Recover;
  Config.Recovery.CheckpointInterval = C.CheckpointInterval;
  Config.Recovery.RetryBudget = C.RetryBudget;
  return Config;
}

bool runSweep(const Cli &C, const char *Name, uint64_t Stride, TypeContext &TC,
              const CheckedProgram &CP, std::vector<SweepRow> &Rows) {
  TheoremConfig Config = sweepConfig(C, Stride);
  CampaignOptions Opts;
  Opts.Threads = C.Threads;
  Opts.Prune = C.Prune;
  Opts.CfiCheck = C.CfiCheck;
  Opts.Converge = C.Converge;
  Opts.Lanes = C.Lanes;
  Opts.ShardCount = C.Shards;
  Opts.ShardIndex = C.ShardIndex;
  // Engines are bound to one CodeMemory, so they are built per program.
  std::unique_ptr<ExecEngine> Eng = makeEngine(C, CP.Prog->code());
  Opts.Engine = Eng.get();
  CampaignResult R = runFaultToleranceCampaign(TC, CP, Config, Opts);
  // The program type-checked to get here: top rung of the ladder. The
  // resolution summary still comes from the CFG — typed programs have
  // indirect jumps too.
  analysis::CFG::ResolutionSummary Res;
  if (Expected<analysis::CFG> G = analysis::CFG::build(*CP.Prog))
    Res = G->resolutionSummary();
  Rows.push_back({Name, std::move(R), Stride,
                  analysis::CertificationStatus::Typed, Res});
  printRow(tableStream(C), Rows.back());
  return Rows.back().Result.Ok;
}

bool sweepTal(const Cli &C, const char *Name, const char *Source,
              uint64_t Stride, std::vector<SweepRow> &Rows) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, Source, Diags);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Name, P.message().c_str());
    return false;
  }
  Expected<CheckedProgram> CP = checkProgram(TC, *P, Diags);
  if (!CP) {
    std::fprintf(stderr, "%s: ill-typed:\n%s", Name, Diags.str().c_str());
    return false;
  }
  return runSweep(C, Name, Stride, TC, *CP, Rows);
}

bool sweepKernel(const Cli &C, const char *Name, const char *Source,
                 uint64_t Stride, std::vector<SweepRow> &Rows) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<wile::CompiledProgram> CP =
      wile::compileWile(TC, Source, wile::CodegenMode::FaultTolerant, Diags);
  if (!CP) {
    std::fprintf(stderr, "%s: %s\n", Name, CP.message().c_str());
    return false;
  }
  Expected<CheckedProgram> Checked = checkProgram(TC, CP->Prog, Diags);
  if (!Checked) {
    std::fprintf(stderr, "%s: ill-typed:\n%s", Name, Diags.str().c_str());
    return false;
  }
  return runSweep(C, Name, Stride, TC, *Checked, Rows);
}

/// The Figure 10 kernels on the raw-semantics campaign: typability is not
/// required, so all fifteen sweep — including the dynamically-addressed
/// kernels the checker rejects. The injection stride adapts to each
/// kernel's reference length (cli::loadFig10Kernel) unless --stride
/// fixes it.
bool sweepFig10(const Cli &C, std::vector<SweepRow> &Rows) {
  bool Ok = true;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    std::optional<cli::Fig10Kernel> FK = cli::loadFig10Kernel(TC, K);
    if (!FK) {
      Ok = false;
      continue;
    }
    const Program &Prog = FK->CP.Prog;
    uint64_t Stride = C.Stride ? C.Stride : FK->Stride;
    std::unique_ptr<ExecEngine> Eng = makeEngine(C, Prog.code());

    TheoremConfig Config = sweepConfig(C, Stride);
    CampaignOptions Opts;
    Opts.Threads = C.Threads;
    Opts.Engine = Eng.get();
    Opts.Prune = C.Prune;
    Opts.CfiCheck = C.CfiCheck;
    Opts.Converge = C.Converge;
    Opts.Lanes = C.Lanes;
    Opts.ShardCount = C.Shards;
    Opts.ShardIndex = C.ShardIndex;
    CampaignResult R = runSingleFaultCampaign(Prog, Config, Opts);
    // Raw-semantics sweeps report the certification rung the analysis
    // ladder assigns (Typed / AnalysisCertified / Inconsistent) instead
    // of the old ad-hoc rejected/unsupported booleans.
    analysis::Certification Cert = analysis::certifyProgram(TC, Prog);
    Rows.push_back({K.Name, std::move(R), Stride, Cert.Status,
                    Cert.Resolution});
    printRow(tableStream(C), Rows.back());
    Ok &= Rows.back().Result.Ok;
  }
  return Ok;
}

std::string reportJson(const Cli &C, const std::vector<SweepRow> &Rows,
                       bool Ok) {
  std::string S = "{\n";
  S += "  \"schema\": \"talft-fault-campaign-v8\",\n";
  S += "  \"engine\": \"" + C.Engine + "\",\n";
  S += "  \"threads\": " + std::to_string(C.Threads) + ",\n";
  S += "  \"recover\": " + std::string(C.Recover ? "true" : "false") + ",\n";
  S += "  \"checkpoint_interval\": " + std::to_string(C.CheckpointInterval) +
       ",\n";
  S += "  \"retry_budget\": " + std::to_string(C.RetryBudget) + ",\n";
  S += "  \"prune\": " + std::string(C.Prune ? "true" : "false") + ",\n";
  S += "  \"cfi_check\": " + std::string(C.CfiCheck ? "true" : "false") + ",\n";
  S += "  \"converge\": " + std::string(C.Converge ? "true" : "false") + ",\n";
  S += "  \"lanes\": " + std::string(C.Lanes ? "true" : "false") + ",\n";
  S += "  \"lane_width\": " + std::to_string(LaneGroupWidth) + ",\n";
  S += "  \"shards\": " + std::to_string(C.Shards) + ",\n";
  S += "  \"shard_index\": " + std::to_string(C.ShardIndex) + ",\n";
  S += "  \"ok\": " + std::string(Ok ? "true" : "false") + ",\n";
  S += "  \"programs\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    S += "    {\n      \"name\": \"" + Rows[I].Name + "\",\n";
    S += "      \"stride\": " + std::to_string(Rows[I].Stride) + ",\n";
    S += "      \"certification\": \"" +
         std::string(analysis::certificationStatusJsonKey(
             Rows[I].Certification)) +
         "\",\n";
    const analysis::CFG::ResolutionSummary &Res = Rows[I].Resolution;
    S += "      \"target_resolution\": {\"commits\": " +
         std::to_string(Res.Commits) +
         ", \"exact\": " + std::to_string(Res.Exact) +
         ", \"type_narrowed\": " + std::to_string(Res.TypeNarrowed) +
         ", \"over_approximated\": " + std::to_string(Res.OverApproximated) +
         ", \"unresolved_targets\": " + std::to_string(Res.UnresolvedTargets) +
         "},\n";
    S += "      \"campaign\":\n";
    S += campaignToJson(Rows[I].Result, 6);
    S += "\n    }";
    S += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  S += "  ]\n}\n";
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    usage(Argv[0]);
    return 2;
  }

  FILE *Out = tableStream(C);
  std::fprintf(Out, "Theorem 4 exhaustive single-fault sweep%s\n",
               C.Recover ? " (checkpoint/rollback recovery enabled)" : "");
  std::fprintf(Out, "(every step x fault site x representative corruption; "
                    "'violations' must be 0; %u thread%s; %s engine%s)\n\n",
               C.Threads, C.Threads == 1 ? "" : "s", C.Engine.c_str(),
               C.Recover ? "; recovery on" : "");
  std::fprintf(Out, "%-18s %9s %11s %9s %8s %9s %9s %10s %9s %11s\n",
               "program", "ref steps", "injections", "detected", "masked",
               "recovered", "escalated", "violations", "wall", "triples/s");
  std::fprintf(Out, "%.*s\n", 112,
               "----------------------------------------------------------"
               "------------------------------------------------------");

  std::vector<SweepRow> Rows;
  bool Ok = true;
  for (const coverage::SweptProgram &P : coverage::Programs)
    Ok &= (P.Wile ? sweepKernel : sweepTal)(
        C, P.Name, P.Source, C.Stride ? C.Stride : P.Stride, Rows);

  if (C.Fig10)
    Ok &= sweepFig10(C, Rows);

  std::fprintf(Out, "\n%s\n",
               Ok ? (C.Recover
                         ? "All sweeps clean: every injected fault was "
                           "masked, recovered with a bit-identical trace, "
                           "or escalated with a verified prefix."
                         : "All sweeps clean: every injected fault was "
                           "masked or detected with a prefix trace.")
                  : "VIOLATIONS FOUND");

  if (C.Json) {
    std::string Json = reportJson(C, Rows, Ok);
    if (C.JsonPath.empty()) {
      std::fputs(Json.c_str(), stdout);
    } else {
      if (!cli::writeFileAtomic(C.JsonPath, Json)) {
        std::fprintf(stderr, "cannot write %s\n", C.JsonPath.c_str());
        return 2;
      }
      std::fprintf(Out, "JSON report written to %s\n", C.JsonPath.c_str());
    }
  }
  return Ok ? 0 : 1;
}
