//===- certbench/ServeMix.cpp - The serve-mix workload --------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// An in-process certification server (ServerOptions defaults except one
// campaign thread per shard: two handler threads, two forked pool
// workers, four shards per campaign) driven by two closed-loop clients.
// Every caller of the server waits for its result, so the loop is closed:
// a client sends its next submit only when the previous one completed.
//
// Each client works in rounds. A round submits every kernel once cold and
// once warm, in a seeded order, each warm repeat after its cold submit.
// A cold submit uses a (kernel, stride) key the client has not used for
// a full cycle of its eight strides per kernel; the 119 keys it inserted
// since have pushed it out of the server's 64-entry memo, so it is a miss.
// A warm repeat re-submits a key from the same round, still in the memo.
// The two clients start each round together, and the host is calibrated
// in the pause between rounds, while no submit is in flight.
//
//===----------------------------------------------------------------------===//

#include "CertBench.h"

#include "analysis/Certify.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/StringUtils.h"
#include "vm/Engine.h"
#include "wile/Codegen.h"

#include <algorithm>
#include <barrier>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>

using namespace talft;

namespace certbench {
namespace {

struct SubmitRun {
  bool Cold = false;
  size_t Kernel = 0;
  unsigned Round = 0;
  double Ms = 0;
  bool Traced = false;
  /// Bench-side calls on the same spec in traced rounds: what the server's
  /// front end does before its memo probe, and the result rendering.
  double CompileMs = 0, CertifyMs = 0, EngineMs = 0, JsonMs = 0;
  uint64_t Insts = 0;
  /// Folded over the submit's shards (cold submits).
  CampaignStats Stats;
  std::vector<double> ShardMs;
  /// Wall time the shards cover as laid out in the trace (traced rounds).
  double ShardSpanMs = 0;
  bool Ok = false;
};

/// What the pause between rounds decided; written by the barrier's
/// completion step, read by the clients after it.
struct Lockstep {
  unsigned Round = 0;
  bool Stop = false;
};

/// A barrier's completion step must not throw.
struct RoundGap {
  std::function<void()> F;
  void operator()() noexcept { F(); }
};
using RoundBarrier = std::barrier<RoundGap>;

struct RoundRun {
  double Ms = 0;
  bool Traced = false;
  unsigned Round = 0;
};

struct ClientLog {
  RunReport R;
  std::vector<SubmitRun> Submits;
  std::vector<RoundRun> Rounds;
};

void probeFrontEnd(const serve::SubmitSpec &Spec, SubmitRun &S, Tracer &T,
                   int Parent, uint64_t Op, unsigned Tid) {
  Clock::time_point T0 = Clock::now();
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<wile::CompiledProgram> CP = wile::compileWile(
      TC, Spec.Source, wile::CodegenMode::FaultTolerant, Diags);
  Clock::time_point T1 = Clock::now();
  if (!CP)
    return;
  analysis::certifyProgram(TC, CP->Prog);
  Clock::time_point T2 = Clock::now();
  std::unique_ptr<ExecEngine> Eng = vm::createEngine(CP->Prog.code());
  Clock::time_point T3 = Clock::now();
  S.CompileMs = msBetween(T0, T1);
  S.CertifyMs = msBetween(T1, T2);
  S.EngineMs = msBetween(T2, T3);
  S.Insts = CP->Prog.code().size();
  T.add("wile.compile", T0, T1, Parent, Op, Tid);
  T.add("analysis.certify", T1, T2, Parent, Op, Tid);
  T.add("vm.engine_build", T2, T3, Parent, Op, Tid);
}

void checkOutcome(const serve::SubmitOutcome &Out, const SubmitRun &S,
                  const CaseKey &Key, const Oracle &Orc, RunReport &R) {
  std::string What = Key.Kernel + (S.Cold ? " cold" : " warm") +
                     " submit (stride " + std::to_string(Key.Stride) + ")";
  if (!Out.Completed || !Out.Error.empty() || !Out.GotResult) {
    R.fail(What + ": " + (Out.ErrorCode.empty() ? "" : Out.ErrorCode + ": ") +
           (Out.Error.empty() ? "no result" : Out.Error));
    return;
  }
  if (S.Cold && Out.Cache != "miss")
    return R.fail(What + ": answered from the memo (" + Out.Cache + ")");
  if (!S.Cold && (Out.Cache != "hit" || Out.ShardEvents != 0))
    return R.fail(What + ": cache " + Out.Cache + " with " +
                  std::to_string(Out.ShardEvents) + " shard events");
  std::string Why = Orc.check(Key, Out.Campaign);
  if (!Why.empty())
    R.fail(Why);
}

/// Lays the shards of a traced submit out on the pool workers, one trace
/// row each, ending when the result arrived (their exact placement is not
/// observable): each shard, last first, goes to the least busy worker.
/// Returns the wall milliseconds they cover.
double layOutShards(const SubmitRun &S, Clock::time_point T0,
                    Clock::time_point T1, unsigned Workers, Tracer &T,
                    int Parent, uint64_t Op, unsigned Tid) {
  std::vector<Clock::time_point> Free(std::max(1u, Workers), T1);
  for (auto It = S.ShardMs.rbegin(); It != S.ShardMs.rend(); ++It) {
    auto Track = std::max_element(Free.begin(), Free.end());
    Clock::time_point Begin =
        std::max(T0, *Track - std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      *It)));
    T.add("serve.shard", Begin, *Track, Parent, Op,
          Tid * 10 + 1 + (unsigned)(Track - Free.begin()));
    *Track = Begin;
  }
  return msBetween(*std::min_element(Free.begin(), Free.end()), T1);
}

void runClient(unsigned C, const RunOptions &O, unsigned Port,
               unsigned Workers, const std::vector<KernelInput> &Kernels,
               const Oracle &Orc, RoundBarrier &Sync, const Lockstep &Step,
               ClientLog &L) {
  Rng Rg(O.Seed * 0x100000001b3ull + C + 1);
  const Band &B = O.Z.Serve;
  // This client's strides: the band's offsets of its own parity, in a
  // seeded order per kernel; round r uses entry r mod 8.
  std::vector<std::vector<uint64_t>> Offsets(Kernels.size());
  for (std::vector<uint64_t> &Off : Offsets) {
    for (uint64_t J = C % 2; J < B.Width; J += 2)
      Off.push_back(J);
    Rg.shuffle(Off);
  }
  const unsigned Tid = C + 1;
  uint64_t OpCounter = 0;
  for (;;) {
    Sync.arrive_and_wait();
    if (Step.Stop)
      break;
    unsigned Round = Step.Round;
    bool Traced = O.Trace && Round % 2 == 1;

    std::vector<size_t> Order(Kernels.size());
    std::iota(Order.begin(), Order.end(), 0);
    Rg.shuffle(Order);
    std::vector<std::pair<bool, size_t>> Seq;
    std::vector<size_t> Pending;
    for (size_t Next = 0; Next != Order.size() || !Pending.empty();) {
      if (!Pending.empty() && (Next == Order.size() || Rg.below(2))) {
        size_t P = Rg.below(Pending.size());
        Seq.push_back({false, Pending[P]});
        Pending.erase(Pending.begin() + (ptrdiff_t)P);
      } else {
        Seq.push_back({true, Order[Next]});
        Pending.push_back(Order[Next++]);
      }
    }

    Clock::time_point R0 = Clock::now();
    uint64_t RoundOp = ((uint64_t)Tid << 32) | OpCounter++;
    int Root = Traced ? L.R.Trace.add("bench.round", R0, R0, -1, RoundOp, Tid)
                      : -1;
    for (auto [Cold, K] : Seq) {
      const KernelInput &KI = Kernels[K];
      CaseKey Key{Mode::Plain, KI.K->Name,
                  B.stride(KI.Steps, Offsets[K][Round % Offsets[K].size()])};
      serve::SubmitSpec Spec;
      Spec.Name = KI.K->Name;
      Spec.Source = KI.K->Source;
      Spec.Stride = Key.Stride;

      SubmitRun S;
      S.Cold = Cold;
      S.Kernel = K;
      S.Round = Round;
      S.Traced = Traced;
      uint64_t Op = ((uint64_t)Tid << 32) | OpCounter++;
      if (Traced)
        probeFrontEnd(Spec, S, L.R.Trace, Root, Op, Tid);

      ++L.R.Attempted;
      Clock::time_point T0 = Clock::now();
      serve::SubmitOutcome Out = serve::submitProgram("127.0.0.1", Port, Spec);
      Clock::time_point T1 = Clock::now();
      S.Ms = msBetween(T0, T1);
      size_t FailedBefore = L.R.Failed;
      checkOutcome(Out, S, Key, Orc, L.R);
      S.Ok = L.R.Failed == FailedBefore;
      S.Stats = Out.Campaign.Stats;
      for (const std::string &Line : Out.Events) {
        std::optional<serve::JsonValue> V = serve::JsonValue::parse(Line);
        if (V && V->stringAt("event") == "shard")
          S.ShardMs.push_back(V->doubleAt("wall_seconds", 0) * 1000.0);
      }
      if (Traced) {
        int Sub = L.R.Trace.add(Cold ? "serve.submit_cold" : "serve.submit_warm",
                                T0, T1, Root, Op, Tid);
        S.ShardSpanMs =
            layOutShards(S, T0, T1, Workers, L.R.Trace, Sub, Op, Tid);
        if (Cold && Out.GotResult) {
          Clock::time_point J0 = Clock::now();
          std::string Json = campaignToJson(Out.Campaign);
          Clock::time_point J1 = Clock::now();
          S.JsonMs = msBetween(J0, J1);
          L.R.Trace.add("fault.json", J0, J1, Root, Op, Tid);
        }
      }
      L.Submits.push_back(std::move(S));
    }
    Clock::time_point R1 = Clock::now();
    if (Traced)
      L.R.Trace.close(Root, R1);
    L.Rounds.push_back({msBetween(R0, R1), Traced, Round});
  }
}

/// Stops and destroys \p S. Server::requestDrain sets the drain flag
/// without holding the queue lock, so a handler thread that is just
/// returning to its wait can miss the wake-up, and stop() then never
/// returns. Every connection has completed when this is called; the pause
/// lets the handlers park before the drain is signalled, and run.py kills
/// a run that hangs anyway.
void stopServer(std::unique_ptr<serve::Server> &S) {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  S->stop();
  S.reset();
}

/// Pool worker pids from the server's stats document.
std::vector<int> poolPids(const serve::Server &S) {
  std::vector<int> Pids;
  std::optional<serve::JsonValue> V = serve::JsonValue::parse(S.statsJson());
  if (!V)
    return Pids;
  if (const serve::JsonValue *Pool = V->get("pool"))
    if (const serve::JsonValue *List = Pool->get("pids"))
      for (const serve::JsonValue &P : List->items())
        Pids.push_back((int)P.asU64());
  return Pids;
}

} // namespace

bool runServeMix(const RunOptions &O, Oracle &Orc, RunReport &R,
                 std::string &Err) {
  std::vector<KernelInput> Kernels;
  std::vector<CaseKey> Keys;
  std::vector<double> SetupS;
  std::unique_ptr<serve::Server> Srv;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    if (Srv)
      stopServer(Srv);
    R.SetupHost.run();
    Clock::time_point T0 = Clock::now();
    if (!setupInputs(O, "serve-mix", Kernels, Keys, Orc, Err))
      return false;
    serve::ServerOptions SO;
    SO.CampaignThreads = 1;
    Srv = std::make_unique<serve::Server>(SO);
    if (!Srv->start(&Err))
      return false;
    std::string Pong;
    if (!serve::requestPing("127.0.0.1", Srv->port(), Pong, Err))
      return false;
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.SetupHost.run();

  std::vector<ClientLog> Logs(2);
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  // The pause before each round and after the last: calibrate the host,
  // then decide whether a round starts. Traced runs alternate untraced and
  // traced rounds, so they need two.
  const unsigned MinRounds = O.Trace ? 2 : 1;
  Lockstep Step;
  unsigned Started = 0;
  std::vector<Clock::time_point> GapBegin, GapEnd;
  RoundBarrier Sync((ptrdiff_t)Logs.size(), RoundGap{[&] {
    GapBegin.push_back(Clock::now());
    R.Host.run();
    GapEnd.push_back(Clock::now());
    Step.Stop = (O.Z.MaxRounds && Started >= O.Z.MaxRounds) ||
                (Started >= MinRounds && Clock::now() >= Deadline);
    Step.Round = Started++;
  }});
  {
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C != Logs.size(); ++C)
      Clients.emplace_back(runClient, C, std::cref(O), Srv->port(),
                           serve::ServerOptions().PoolWorkers,
                           std::cref(Kernels), std::cref(Orc), std::ref(Sync),
                           std::cref(Step), std::ref(Logs[C]));
    for (std::thread &Th : Clients)
      Th.join();
  }

  double Rss = peakRssMb();
  for (int Pid : poolPids(*Srv))
    Rss += peakRssMb(Pid);
  serve::MemoStats Memo = Srv->memoStats();
  serve::WorkerPoolStats Pool = Srv->poolStats();
  stopServer(Srv);

  std::vector<SubmitRun> Subs;
  std::vector<RoundRun> Rounds;
  for (ClientLog &L : Logs) {
    R.Attempted += L.R.Attempted;
    R.Failed += L.R.Failed;
    for (std::string &F : L.R.Failures)
      if (R.Failures.size() < 16)
        R.Failures.push_back(std::move(F));
    R.Trace.append(L.R.Trace);
    Subs.insert(Subs.end(), L.Submits.begin(), L.Submits.end());
    Rounds.insert(Rounds.end(), L.Rounds.begin(), L.Rounds.end());
  }

  if (!O.Trace) {
    // Each round, and every submit in it, is scaled by the host factor of
    // the gaps around it; the busy time is the rounds' wall time, from the
    // end of one gap to the start of the next.
    struct Figures {
      std::vector<double> Cold, Warm, RoundS;
      double BusyS = 0;
    } Scaled, Raw;
    for (Figures *F : {&Scaled, &Raw}) {
      auto Speed = [&](size_t Round) {
        return F == &Scaled ? R.Host.factor(Round) : 1.0;
      };
      for (const SubmitRun &S : Subs)
        (S.Cold ? F->Cold : F->Warm).push_back(S.Ms / Speed(S.Round));
      for (const RoundRun &Rd : Rounds)
        F->RoundS.push_back(Rd.Ms / 1000.0 / Speed(Rd.Round));
      for (size_t I = 0; I + 1 < GapBegin.size(); ++I)
        F->BusyS += msBetween(GapEnd[I], GapBegin[I + 1]) / 1000.0 / Speed(I);
    }
    R.e2e("pass_s.p50", median(Scaled.RoundS), median(Raw.RoundS), "s");
    R.e2e("cold_ms.p50", median(Scaled.Cold), median(Raw.Cold), "ms");
    R.e2e("cold_ms.p90", percentile(Scaled.Cold, 90), percentile(Raw.Cold, 90),
          "ms");
    R.e2e("warm_ms.p50", median(Scaled.Warm), median(Raw.Warm), "ms");
    R.e2e("warm_ms.p90", percentile(Scaled.Warm, 90), percentile(Raw.Warm, 90),
          "ms");
    R.e2e("submits_per_s", (double)Subs.size() / Scaled.BusyS,
          (double)Subs.size() / Raw.BusyS, "1/s");
    reportSetup(SetupS, R);
    R.e2e("peak_rss_mb", Rss, Rss, "MiB");
    R.Notes.push_back(formatv("%zu rounds, %zu cold and %zu warm submits in "
                              "%.3f s",
                              Rounds.size(), Raw.Cold.size(),
                              Raw.Warm.size(), Raw.BusyS));
    return true;
  }

  std::vector<double> Warm;
  for (const SubmitRun &S : Subs)
    if (!S.Cold)
      Warm.push_back(S.Ms);

  std::vector<double> TracedRound, UntracedRound, Other, Compile, Certify,
      Engine, Json, CompileCertifyWarm, ShardMs, CampaignS, RefS, InjS;
  double Tasks = 0, InjSum = 0, LaneTasks = 0, LaneDev = 0, SideExits = 0,
         Early = 0, Skips = 0, Pruned = 0, Judged = 0;
  std::map<size_t, uint64_t> Insts;
  std::map<size_t, uint64_t> CodeBytes;
  std::map<size_t, std::vector<double>> InjByKernel;
  for (const RoundRun &Rd : Rounds)
    (Rd.Traced ? TracedRound : UntracedRound).push_back(Rd.Ms);
  for (const SubmitRun &S : Subs) {
    ShardMs.insert(ShardMs.end(), S.ShardMs.begin(), S.ShardMs.end());
    if (S.Traced) {
      // Warm submits run no shards and take about a millisecond, cold ones
      // tens, so the remainder is taken over cold submits only.
      if (S.Cold)
        Other.push_back(S.Ms - S.ShardSpanMs);
      Compile.push_back(S.CompileMs);
      Certify.push_back(S.CertifyMs);
      Engine.push_back(S.EngineMs);
      Insts[S.Kernel] = S.Insts;
      if (S.Cold)
        Json.push_back(S.JsonMs);
      else
        CompileCertifyWarm.push_back(S.CompileMs + S.CertifyMs);
    }
    if (!S.Cold || !S.Ok)
      continue;
    const CampaignStats &St = S.Stats;
    CampaignS.push_back(St.WallSeconds + St.ReferenceSeconds);
    RefS.push_back(St.ReferenceSeconds);
    InjS.push_back(St.WallSeconds);
    InjByKernel[S.Kernel].push_back(St.WallSeconds);
    CodeBytes[S.Kernel] = St.JitCodeBytes;
    Tasks += (double)St.Tasks;
    InjSum += St.WallSeconds;
    LaneTasks += (double)St.LaneTasks;
    LaneDev += (double)St.LaneDeviations;
    SideExits += (double)St.JitSideExits;
    Early += (double)St.EarlyExits;
    Skips += (double)St.LockstepSkips;
    Pruned += (double)St.PrunedTasks;
    Judged += (double)(St.Tasks + St.PrunedTasks);
  }
  // Tasks of client 0's first round: a count that repeats for a seed.
  uint64_t FirstRoundTasks = 0;
  for (const SubmitRun &S : Logs[0].Submits) {
    if (&S - Logs[0].Submits.data() >= (ptrdiff_t)(2 * Kernels.size()))
      break;
    if (S.Cold)
      FirstRoundTasks += S.Stats.Tasks;
  }

  R.layer("bench.pass_ms", median(TracedRound), "ms");
  R.layer("bench.other_ms", median(Other), "ms");
  R.layer("bench.trace_overhead_ms",
          median(TracedRound) - median(UntracedRound), "ms");
  R.layer("wile.compile_ms", median(Compile), "ms");
  uint64_t InstSum = 0;
  for (auto &[K, N] : Insts)
    InstSum += N;
  R.count("wile.insts", InstSum);
  R.layer("analysis.certify_ms", median(Certify), "ms");
  R.layer("analysis.pruned_frac", ratio(Pruned, Judged), "frac");
  R.layer("vm.engine_build_ms", median(Engine), "ms");
  uint64_t Bytes = 0;
  for (auto &[K, N] : CodeBytes)
    Bytes += N;
  R.count("vm.jit_code_bytes", Bytes);
  R.layer("vm.jit_side_exits_per_task", ratio(SideExits, Tasks), "1/task");
  R.layer("vm.lane_task_frac", ratio(LaneTasks, Tasks), "frac");
  R.layer("vm.lane_deviation_frac", ratio(LaneDev, LaneTasks), "frac");
  R.layer("fault.campaign_s", median(CampaignS), "s");
  R.layer("fault.reference_phase_s", median(RefS), "s");
  R.layer("fault.injection_s", median(InjS), "s");
  R.count("fault.tasks", FirstRoundTasks);
  R.layer("fault.us_per_task", ratio(InjSum * 1e6, Tasks), "us");
  R.layer("fault.early_exit_frac", ratio(Early, Tasks), "frac");
  R.layer("fault.lockstep_skip_frac", ratio(Skips, Tasks), "frac");
  R.layer("fault.json_ms", median(Json), "ms");
  R.layer("recover.checkpoints_per_task", 0, "1/task");
  R.layer("recover.rollbacks_per_task", 0, "1/task");
  for (const wile::Kernel &WK : wile::benchmarkKernels()) {
    std::vector<double> Inj;
    for (size_t I = 0; I != Kernels.size(); ++I)
      if (Kernels[I].K->Name == WK.Name)
        Inj = InjByKernel[I];
    R.layer("fault.injection_s." + WK.Name, median(Inj), "s");
  }
  uint64_t Lookups = Memo.Hits + Memo.PartialHits + Memo.Misses;
  R.layer("serve.cache_hit_frac", ratio((double)Memo.Hits, (double)Lookups),
          "frac");
  R.layer("serve.shard_ms", median(ShardMs), "ms");
  R.count("serve.pool_dispatched", Pool.Dispatched);
  R.count("serve.pool_retries", Pool.Retries);
  R.layer("serve.warm_residual_ms", median(Warm) - median(CompileCertifyWarm),
          "ms");
  probeLayers(Kernels, R);
  return true;
}

} // namespace certbench
