//===- tools/talft_serve.cpp - Certification server CLI -------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The talft certification service (src/serve/) as a command-line tool,
// with both sides of the wire in one binary:
//
// Server mode (default):
//
//   talft-serve [--host H] [--port N] [--workers N] [--threads N]
//               [--shards N] [--queue-cap N] [--cache-entries N]
//               [--cache-dir DIR] [--drain-after-shards N]
//               [--port-file FILE] [--build-id S]
//               [--pool N] [--shard-timeout-ms N] [--max-shard-attempts N]
//               [--wal FILE] [--default-deadline-ms N]
//               [--idle-timeout-ms N] [--max-line-bytes N]
//               [--chaos-crash-every N] [--chaos-signal N]
//
// --pool N forks N crash-isolated shard worker processes (0 runs shards
// in-process); each submission streams its shards through one of them,
// so with --workers above --pool later submissions wait for a worker.
// --wal FILE makes every accepted submission durable in a write-ahead
// log that a restarted server replays. --chaos-crash-every is for the
// chaos harness only: every Nth shard attempt crashes its worker at the
// shard boundary.
//
// binds 127.0.0.1 (ephemeral port by default; --port-file publishes the
// bound port atomically for scripts), serves the line protocol documented
// in serve/Protocol.h, and drains gracefully on SIGTERM/SIGINT: stop
// accepting, cut in-flight campaigns at the next shard boundary, persist
// the folded prefix through the memo store, exit 0. With --cache-dir the
// memo survives restarts, so a drained campaign resumes where it stopped.
//
// Client mode (--client):
//
//   talft-serve --client --port N [--host H]
//       (--submit-kernel NAME | --submit-file FILE [--lang wile|tal]
//        | --stats | --ping)
//       [--engine vm|reference|jit] [--stride N] [--shards N] [--prune]
//       [--no-converge] [--no-lanes] [--recover]
//       [--checkpoint-interval N] [--retry-budget N] [--deadline-ms N]
//       [--json FILE]
//
// submits a Figure 10 kernel by name (wile/Kernels.h) or a source file,
// prints the streamed events' summary, and with --json writes the served
// campaign as a talft-fault-campaign-v8 document — the same renderer the
// batch CLI uses, so the two are diffable field by field.
//
// Exit status: 0 success (campaign ok, or stats/ping answered); 1 when
// the served campaign found violations or the server reported an error;
// 2 on usage errors; 75 (EX_TEMPFAIL) when the server drained mid-run —
// resubmit to resume.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "support/AtomicFile.h"
#include "support/StringUtils.h"
#include "wile/Kernels.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

using namespace talft;

namespace {

constexpr int ExitDrained = 75; // EX_TEMPFAIL: resubmit to resume

int usage() {
  std::fprintf(
      stderr,
      "usage: talft-serve [server options]\n"
      "       talft-serve --client --port N (--submit-kernel NAME |\n"
      "                   --submit-file FILE | --stats | --ping) [options]\n"
      "see the header comment of tools/talft_serve.cpp for the full list\n");
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End)
    return false;
  Out = V;
  return true;
}

uint64_t numArg(int Argc, char **Argv, int &I) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s needs a value\n", Argv[I]);
    std::exit(2);
  }
  uint64_t V = 0;
  if (!parseU64(Argv[++I], V)) {
    std::fprintf(stderr, "bad value for %s: %s\n", Argv[I - 1], Argv[I]);
    std::exit(2);
  }
  return V;
}

const char *strArg(int Argc, char **Argv, int &I) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s needs a value\n", Argv[I]);
    std::exit(2);
  }
  return Argv[++I];
}

// SIGTERM/SIGINT → one byte down a self-pipe; a watcher thread turns it
// into requestDrain() (which takes locks, so it must not run in the
// handler itself).
int DrainPipe[2] = {-1, -1};

void onSignal(int) {
  char B = 1;
  (void)!::write(DrainPipe[1], &B, 1);
}

int runServer(const serve::ServerOptions &Opts, const std::string &PortFile) {
  serve::Server S(Opts);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "talft-serve: %s\n", Err.c_str());
    return 1;
  }

  if (::pipe(DrainPipe) != 0) {
    std::fprintf(stderr, "talft-serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::thread Watcher([&S] {
    char B;
    while (::read(DrainPipe[0], &B, 1) < 0 && errno == EINTR)
      ;
    std::fprintf(stderr, "talft-serve: drain requested, finishing in-flight "
                         "shards\n");
    S.requestDrain();
  });

  std::fprintf(stderr, "talft-serve: listening on %s:%u (%u worker%s)\n",
               Opts.Host.c_str(), S.port(), Opts.Workers,
               Opts.Workers == 1 ? "" : "s");
  if (!PortFile.empty() &&
      !support::writeFileAtomic(PortFile,
                                formatv("%u\n", S.port()))) {
    std::fprintf(stderr, "talft-serve: cannot write %s\n", PortFile.c_str());
    S.stop();
    return 1;
  }

  S.wait();
  // Unblock the watcher if the drain came from --drain-after-shards
  // rather than a signal.
  char B = 1;
  (void)!::write(DrainPipe[1], &B, 1);
  Watcher.join();
  ::close(DrainPipe[0]);
  ::close(DrainPipe[1]);

  std::fprintf(stderr, "talft-serve: drained; final stats:\n%s\n",
               S.statsJson().c_str());
  return 0;
}

int runClient(const std::string &Host, unsigned Port, bool Stats, bool Ping,
              const serve::SubmitSpec &Spec, bool HaveSubmission,
              const std::string &JsonPath) {
  if (Stats || Ping) {
    std::string Out, Err;
    bool Got = Stats ? serve::requestStats(Host, Port, Out, Err)
                     : serve::requestPing(Host, Port, Out, Err);
    if (!Got) {
      std::fprintf(stderr, "talft-serve: %s\n", Err.c_str());
      return 1;
    }
    std::printf("%s\n", Out.c_str());
    return 0;
  }
  if (!HaveSubmission)
    return usage();

  serve::SubmitOutcome O = serve::submitProgram(Host, Port, Spec);
  if (!O.Error.empty()) {
    // Lead with the machine-readable code (when the server sent one) so
    // scripts can classify failures without parsing prose.
    if (!O.ErrorCode.empty())
      std::fprintf(stderr, "talft-serve: %s: [%s] %s\n", Spec.Name.c_str(),
                   O.ErrorCode.c_str(), O.Error.c_str());
    else
      std::fprintf(stderr, "talft-serve: %s: %s\n", Spec.Name.c_str(),
                   O.Error.c_str());
    if (O.RetryAfterMs)
      std::fprintf(stderr, "talft-serve: %s: retry after %llu ms\n",
                   Spec.Name.c_str(), (unsigned long long)O.RetryAfterMs);
    return 1;
  }
  if (O.Drained) {
    std::fprintf(stderr,
                 "talft-serve: %s: server drained after %u/%u shard(s); "
                 "resubmit to resume\n",
                 Spec.Name.c_str(), O.ShardsDone, O.ShardsTotal);
    return ExitDrained;
  }
  if (!O.GotResult) {
    std::fprintf(stderr, "talft-serve: %s: no result event\n",
                 Spec.Name.c_str());
    return 1;
  }

  const CampaignResult &R = O.Campaign;
  std::printf("%-14s %-8s cache=%-7s shards=%u/%u streamed=%u "
              "tasks=%llu ok=%s\n",
              Spec.Name.c_str(), O.Certification.c_str(), O.Cache.c_str(),
              O.ShardsDone, O.ShardsTotal, O.ShardEvents,
              (unsigned long long)R.Stats.Tasks, R.Ok ? "yes" : "NO");
  for (size_t I = 0; I != NumVerdicts; ++I)
    if (R.Table.Counts[I])
      std::printf("  %-18s %llu\n", verdictJsonKey((Verdict)I),
                  (unsigned long long)R.Table.Counts[I]);

  if (!JsonPath.empty()) {
    std::string Doc = campaignToJson(R, 0);
    Doc += "\n";
    if (!support::writeFileAtomic(JsonPath, Doc)) {
      std::fprintf(stderr, "talft-serve: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
  }
  return R.Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Client = false;
  bool Stats = false, Ping = false, HaveSubmission = false;
  std::string PortFile, JsonPath, SubmitFile, KernelName;
  serve::ServerOptions SOpts;
  serve::SubmitSpec Spec;
  std::string Host = "127.0.0.1";
  unsigned Port = 0;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (!std::strcmp(A, "--client"))
      Client = true;
    else if (!std::strcmp(A, "--host"))
      Host = SOpts.Host = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--port"))
      Port = SOpts.Port = (unsigned)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--workers"))
      SOpts.Workers = (unsigned)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--threads"))
      SOpts.CampaignThreads = (unsigned)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--shards")) {
      uint64_t N = numArg(Argc, Argv, I);
      SOpts.DefaultShards = (unsigned)N;
      Spec.Shards = (unsigned)N;
    } else if (!std::strcmp(A, "--queue-cap"))
      SOpts.QueueCap = (size_t)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--cache-entries"))
      SOpts.CacheEntries = (size_t)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--cache-dir"))
      SOpts.CacheDir = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--drain-after-shards"))
      SOpts.DrainAfterShards = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--pool"))
      SOpts.PoolWorkers = (unsigned)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--shard-timeout-ms"))
      SOpts.ShardTimeoutMs = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--max-shard-attempts"))
      SOpts.MaxShardAttempts = (unsigned)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--wal"))
      SOpts.WalPath = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--default-deadline-ms"))
      SOpts.DefaultDeadlineMs = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--idle-timeout-ms"))
      SOpts.IdleTimeoutMs = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--max-line-bytes"))
      SOpts.MaxLineBytes = (size_t)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--chaos-crash-every"))
      SOpts.ChaosCrashEveryN = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--chaos-signal"))
      SOpts.ChaosSignal = (int)numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--port-file"))
      PortFile = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--build-id"))
      SOpts.BuildId = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--stats"))
      Stats = true;
    else if (!std::strcmp(A, "--ping"))
      Ping = true;
    else if (!std::strcmp(A, "--submit-kernel"))
      KernelName = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--submit-file"))
      SubmitFile = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--lang"))
      Spec.Lang = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--engine"))
      Spec.Engine = strArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--stride"))
      Spec.Stride = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--max-steps"))
      Spec.MaxSteps = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--prune"))
      Spec.Prune = true;
    else if (!std::strcmp(A, "--no-converge"))
      Spec.Converge = false;
    else if (!std::strcmp(A, "--no-lanes"))
      Spec.Lanes = false;
    else if (!std::strcmp(A, "--recover"))
      Spec.Recover = true;
    else if (!std::strcmp(A, "--checkpoint-interval"))
      Spec.CheckpointInterval = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--retry-budget"))
      Spec.RetryBudget = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--deadline-ms"))
      Spec.DeadlineMs = numArg(Argc, Argv, I);
    else if (!std::strcmp(A, "--json"))
      JsonPath = strArg(Argc, Argv, I);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", A);
      return usage();
    }
  }

  if (!Client)
    return runServer(SOpts, PortFile);

  if (Port == 0) {
    std::fprintf(stderr, "talft-serve: --client needs --port\n");
    return 2;
  }
  if (!KernelName.empty()) {
    for (const wile::Kernel &K : wile::benchmarkKernels())
      if (K.Name == KernelName) {
        Spec.Name = K.Name;
        Spec.Lang = "wile";
        Spec.Source = K.Source;
        HaveSubmission = true;
        break;
      }
    if (!HaveSubmission) {
      std::fprintf(stderr, "talft-serve: unknown kernel \"%s\"; known:\n",
                   KernelName.c_str());
      for (const wile::Kernel &K : wile::benchmarkKernels())
        std::fprintf(stderr, "  %s\n", K.Name.c_str());
      return 2;
    }
  } else if (!SubmitFile.empty()) {
    std::ifstream In(SubmitFile);
    if (!In) {
      std::fprintf(stderr, "talft-serve: cannot read %s\n",
                   SubmitFile.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Spec.Source = Buf.str();
    Spec.Name = SubmitFile;
    HaveSubmission = true;
  }

  return runClient(Host, Port, Stats, Ping, Spec, HaveSubmission, JsonPath);
}
