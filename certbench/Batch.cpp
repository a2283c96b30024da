//===- certbench/Batch.cpp - The fig10-sweep and fig10-recover workloads --===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// A pass certifies all fifteen Figure 10 kernels from source to a checked
// verdict table: compileWile -> certifyProgram -> createJitEngine ->
// runSingleFaultCampaign (prune on, every other CampaignOptions knob at
// its default, one thread) -> campaignToJson -> oracle check. Passes
// repeat until the run's time is up; end-to-end figures are medians and
// percentiles over passes and kernels.
//
//===----------------------------------------------------------------------===//

#include "CertBench.h"

#include "analysis/Certify.h"
#include "support/StringUtils.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"

#include <algorithm>

using namespace talft;

namespace certbench {
namespace {

/// One kernel certification inside a pass.
struct KernelRun {
  double CompileMs = 0, CertifyMs = 0, EngineMs = 0, TotalMs = 0;
  CampaignStats Stats;
  RecoveryStats Recovery;
  /// Verdicts tallied (simulated plus statically discharged).
  uint64_t Judged = 0;
  uint64_t Insts = 0;
};

struct PassRun {
  double Ms = 0;
  bool Traced = false;
  /// The pass's root span when traced.
  int Root = -1;
  std::vector<KernelRun> K;
};

PassRun runPass(Mode M, const std::vector<KernelInput> &Kernels,
                const std::vector<CaseKey> &Keys, const Oracle &Orc,
                RunReport &R, Tracer *T, uint64_t PassId) {
  PassRun P;
  P.Traced = T != nullptr;
  Clock::time_point P0 = Clock::now();
  if (T)
    P.Root = T->add("bench.pass", P0, P0, -1, PassId);
  for (size_t I = 0; I != Kernels.size(); ++I) {
    const wile::Kernel &K = *Kernels[I].K;
    KernelRun KR;
    ++R.Attempted;
    Clock::time_point T0 = Clock::now();
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source, wile::CodegenMode::FaultTolerant, Diags);
    Clock::time_point T1 = Clock::now();
    if (!CP) {
      R.fail(K.Name + ": " + CP.message());
      P.K.push_back(KR); // keep P.K indexed like Kernels
      continue;
    }
    analysis::Certification Cert = analysis::certifyProgram(TC, CP->Prog);
    Clock::time_point T2 = Clock::now();
    std::unique_ptr<ExecEngine> Eng = vm::createJitEngine(CP->Prog.code());
    Clock::time_point T3 = Clock::now();
    TheoremConfig Config;
    Config.InjectionStride = Keys[I].Stride;
    Config.Recovery.Enabled = M == Mode::Recover;
    CampaignOptions Opts;
    Opts.Threads = 1;
    Opts.Engine = Eng.get();
    Opts.Prune = true;
    CampaignResult Res = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Clock::time_point T4 = Clock::now();
    std::string Json = campaignToJson(Res);
    Clock::time_point T5 = Clock::now();
    std::string Why = Orc.check(Keys[I], Res);
    if (Why.empty() && !Cert.certified())
      Why = K.Name + ": certification ladder found the program inconsistent";
    if (Why.empty() && Json.find("\"verdicts\"") == std::string::npos)
      Why = K.Name + ": campaign JSON has no verdict table";
    if (!Why.empty())
      R.fail(Why);
    Clock::time_point T6 = Clock::now();

    KR.CompileMs = msBetween(T0, T1);
    KR.CertifyMs = msBetween(T1, T2);
    KR.EngineMs = msBetween(T2, T3);
    KR.TotalMs = msBetween(T0, T6);
    KR.Stats = Res.Stats;
    KR.Recovery = Res.Recovery;
    KR.Judged = Res.Table.total();
    KR.Insts = CP->Prog.code().size();
    P.K.push_back(KR);

    if (T) {
      int KS = T->add("bench.kernel", T0, T6, P.Root, PassId);
      T->add("wile.compile", T0, T1, KS, PassId);
      T->add("analysis.certify", T1, T2, KS, PassId);
      T->add("vm.engine_build", T2, T3, KS, PassId);
      int CS = T->add("fault.campaign", T3, T4, KS, PassId);
      // The campaign's own phase timers, placed at the ends of the call
      // they were measured inside.
      auto Dur = [](double S) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(S));
      };
      T->add("fault.reference_phase", T3,
             std::min(T4, T3 + Dur(Res.Stats.ReferenceSeconds)), CS, PassId);
      T->add("fault.injection",
             std::max(T3 + Dur(Res.Stats.ReferenceSeconds),
                      T4 - Dur(Res.Stats.WallSeconds)),
             T4, CS, PassId);
      T->add("fault.json", T4, T5, KS, PassId);
    }
  }
  Clock::time_point P1 = Clock::now();
  P.Ms = msBetween(P0, P1);
  if (T)
    T->close(P.Root, P1);
  return P;
}

template <class F> double sumOver(const PassRun &P, F Field) {
  double S = 0;
  for (const KernelRun &K : P.K)
    S += (double)Field(K);
  return S;
}

} // namespace

bool runBatch(Mode M, const RunOptions &O, Oracle &Orc, RunReport &R,
              std::string &Err) {
  const std::string Workload =
      M == Mode::Plain ? "fig10-sweep" : "fig10-recover";
  std::vector<KernelInput> Kernels;
  std::vector<CaseKey> Keys;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    R.SetupHost.run();
    Clock::time_point T0 = Clock::now();
    if (!setupInputs(O, Workload, Kernels, Keys, Orc, Err))
      return false;
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.SetupHost.run();

  // Traced runs alternate untraced and traced passes (untraced first, so
  // the traced ones never pay the warm-up) and report the difference as
  // the tracing overhead. The host is calibrated around every pass.
  unsigned MinPasses = O.Trace ? std::max(2u, O.Z.MinPasses) : O.Z.MinPasses;
  std::vector<PassRun> Passes;
  Tracer &T = R.Trace;
  R.Host.run();
  Clock::time_point Start = Clock::now();
  while (Passes.size() < MinPasses ||
         msBetween(Start, Clock::now()) < O.Seconds * 1000.0) {
    bool Traced = O.Trace && Passes.size() % 2 == 1;
    Passes.push_back(runPass(M, Kernels, Keys, Orc, R, Traced ? &T : nullptr,
                             Passes.size()));
    R.Host.run();
  }

  R.JitNative = true;
  for (const PassRun &P : Passes)
    for (const KernelRun &K : P.K)
      R.JitNative = *R.JitNative && K.Stats.JitNative;
  if (!*R.JitNative)
    R.Invalid = "the jit engine ran on its vm fallback (jit.native false)";

  if (!O.Trace) {
    // Each pass is scaled by the host factor of the gaps around it.
    // Kernel latencies are percentiles over the 15 kernels of each
    // kernel's median over passes: a pass holds only a handful of large
    // kernels, so raw per-sample percentiles would rest on a few samples.
    struct Figures {
      std::vector<double> PassS, Cold, Warm;
      double BusyS = 0;
    } Scaled, Raw;
    for (Figures *F : {&Scaled, &Raw}) {
      auto Speed = [&](size_t P) {
        return F == &Scaled ? R.Host.factor(P) : 1.0;
      };
      for (size_t P = 0; P != Passes.size(); ++P) {
        F->PassS.push_back(Passes[P].Ms / 1000.0 / Speed(P));
        F->BusyS += F->PassS.back();
      }
      for (size_t I = 0; I != Kernels.size(); ++I) {
        std::vector<double> C, W;
        for (size_t P = 0; P != Passes.size(); ++P) {
          const KernelRun &K = Passes[P].K[I];
          C.push_back(K.TotalMs / Speed(P));
          W.push_back((K.CompileMs + K.CertifyMs + K.EngineMs) / Speed(P));
        }
        F->Cold.push_back(median(C));
        F->Warm.push_back(median(W));
      }
    }
    uint64_t Certified = Passes.size() * Kernels.size();
    R.e2e("pass_s.p50", median(Scaled.PassS), median(Raw.PassS), "s");
    R.e2e("cold_ms.p50", median(Scaled.Cold), median(Raw.Cold), "ms");
    R.e2e("cold_ms.p90", percentile(Scaled.Cold, 90), percentile(Raw.Cold, 90),
          "ms");
    R.e2e("warm_ms.p50", median(Scaled.Warm), median(Raw.Warm), "ms");
    R.e2e("warm_ms.p90", percentile(Scaled.Warm, 90), percentile(Raw.Warm, 90),
          "ms");
    R.e2e("submits_per_s", (double)Certified / Scaled.BusyS,
          (double)Certified / Raw.BusyS, "1/s");
    reportSetup(SetupS, R);
    R.e2e("peak_rss_mb", peakRssMb(), peakRssMb(), "MiB");
    R.Notes.push_back(formatv("%zu passes, %llu kernel certifications in "
                              "%.3f s",
                              Passes.size(), (unsigned long long)Certified,
                              Raw.BusyS));
    return true;
  }

  // Per-layer figures come from the traced pass of median length, so its
  // layer self times sum exactly to its pass time.
  std::vector<const PassRun *> Traced;
  std::vector<double> TracedMs, UntracedMs;
  for (const PassRun &P : Passes) {
    (P.Traced ? TracedMs : UntracedMs).push_back(P.Ms);
    if (P.Traced)
      Traced.push_back(&P);
  }
  std::sort(Traced.begin(), Traced.end(),
            [](const PassRun *A, const PassRun *B) { return A->Ms < B->Ms; });
  const PassRun &Mid = *Traced[Traced.size() / 2];
  std::map<std::string, double> Self = T.selfTimes(Mid.Root);
  double Other = Self["bench.pass"] + Self["bench.kernel"];

  R.layer("bench.pass_ms", Mid.Ms, "ms");
  R.layer("bench.other_ms", Other, "ms");
  R.layer("bench.trace_overhead_ms", median(TracedMs) - median(UntracedMs),
          "ms");
  R.layer("wile.compile_ms", Self["wile.compile"], "ms");
  R.layer("analysis.certify_ms", Self["analysis.certify"], "ms");
  R.layer("vm.engine_build_ms", Self["vm.engine_build"], "ms");
  R.layer("fault.campaign_s",
          (Self["fault.campaign"] + Self["fault.reference_phase"] +
           Self["fault.injection"]) / 1000.0,
          "s");
  R.layer("fault.reference_phase_s", Self["fault.reference_phase"] / 1000.0,
          "s");
  R.layer("fault.injection_s", Self["fault.injection"] / 1000.0, "s");
  R.layer("fault.json_ms", Self["fault.json"], "ms");

  const PassRun &P = Mid;
  double Tasks = sumOver(P, [](const KernelRun &K) { return K.Stats.Tasks; });
  double LaneTasks =
      sumOver(P, [](const KernelRun &K) { return K.Stats.LaneTasks; });
  R.count("wile.insts",
          (uint64_t)sumOver(P, [](const KernelRun &K) { return K.Insts; }));
  R.layer("analysis.pruned_frac",
          ratio(sumOver(P, [](const KernelRun &K) {
                  return K.Stats.PrunedTasks;
                }),
                sumOver(P, [](const KernelRun &K) { return K.Judged; })),
          "frac");
  R.count("vm.jit_code_bytes", (uint64_t)sumOver(P, [](const KernelRun &K) {
            return K.Stats.JitCodeBytes;
          }));
  R.layer("vm.jit_side_exits_per_task",
          ratio(sumOver(P, [](const KernelRun &K) {
                  return K.Stats.JitSideExits;
                }),
                Tasks),
          "1/task");
  R.layer("vm.lane_task_frac", ratio(LaneTasks, Tasks), "frac");
  R.layer("vm.lane_deviation_frac",
          ratio(sumOver(P, [](const KernelRun &K) {
                  return K.Stats.LaneDeviations;
                }),
                LaneTasks),
          "frac");
  R.count("fault.tasks", (uint64_t)Tasks);
  R.layer("fault.us_per_task",
          ratio(Self["fault.injection"] * 1000.0, Tasks), "us");
  R.layer("fault.early_exit_frac",
          ratio(sumOver(P, [](const KernelRun &K) {
                  return K.Stats.EarlyExits;
                }),
                Tasks),
          "frac");
  R.layer("fault.lockstep_skip_frac",
          ratio(sumOver(P, [](const KernelRun &K) {
                  return K.Stats.LockstepSkips;
                }),
                Tasks),
          "frac");
  // fig10-sweep is the batch workload BENCHMARK.json times, so its traced
  // run also certifies one recovery pass (fig10-recover's, for this seed)
  // to measure and check the recover layer.
  PassRun RecoverPass;
  if (M == Mode::Plain)
    RecoverPass = runPass(Mode::Recover, Kernels,
                          casesFor("fig10-recover", Kernels, O.Z, O.Seed), Orc,
                          R, nullptr, Passes.size());
  const PassRun &RP = M == Mode::Plain ? RecoverPass : Mid;
  double RecoverTasks =
      sumOver(RP, [](const KernelRun &K) { return K.Stats.Tasks; });
  R.layer("recover.checkpoints_per_task",
          ratio(sumOver(RP, [](const KernelRun &K) {
                  return K.Recovery.Checkpoints;
                }),
                RecoverTasks),
          "1/task");
  R.layer("recover.rollbacks_per_task",
          ratio(sumOver(RP, [](const KernelRun &K) {
                  return K.Recovery.Rollbacks;
                }),
                RecoverTasks),
          "1/task");

  // A batch campaign is one unsharded shard; serve.shard_ms is the same
  // per-shard injection time the serve-mix shard events report.
  std::vector<double> ShardMs, Front, CompileCertify;
  // Every kernel is named, so a run on fewer kernels reports 0 for the
  // ones it skipped.
  for (const wile::Kernel &WK : wile::benchmarkKernels()) {
    std::vector<double> Inj;
    for (size_t I = 0; I != Kernels.size(); ++I)
      if (Kernels[I].K->Name == WK.Name)
        for (const PassRun *TP : Traced)
          Inj.push_back(TP->K[I].Stats.WallSeconds);
    R.layer("fault.injection_s." + WK.Name, median(Inj), "s");
  }
  for (const PassRun *TP : Traced)
    for (const KernelRun &K : TP->K) {
      ShardMs.push_back(K.Stats.WallSeconds * 1000.0);
      Front.push_back(K.CompileMs + K.CertifyMs + K.EngineMs);
      CompileCertify.push_back(K.CompileMs + K.CertifyMs);
    }
  R.layer("serve.shard_ms", median(ShardMs), "ms");
  R.layer("serve.warm_residual_ms", median(Front) - median(CompileCertify),
          "ms");
  R.layer("serve.cache_hit_frac", 0, "frac");
  R.count("serve.pool_dispatched", 0);
  R.count("serve.pool_retries", 0);
  probeLayers(Kernels, R);
  return true;
}

} // namespace certbench
