//===- serve/WorkerPool.cpp - Crash-isolated shard worker pool ------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/WorkerPool.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace talft;
using namespace talft::serve;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t msSince(Clock::time_point T0) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - T0)
      .count();
}

} // namespace

WorkerPool::WorkerPool(WorkerPoolOptions O) : Opts(O) {
  if (Opts.MaxAttempts == 0)
    Opts.MaxAttempts = 1;
}

WorkerPool::~WorkerPool() { stop(); }

bool WorkerPool::start(std::string *Err) {
  if (!enabled())
    return true;
  std::lock_guard<std::mutex> Lock(Mu);
  for (unsigned I = 0; I != Opts.Workers; ++I) {
    WorkerProc W;
    if (!spawnWorker(W, Err)) {
      for (WorkerProc &P : Free)
        destroyWorker(P);
      Free.clear();
      Alive = 0;
      return false;
    }
    ++Counters.Spawned;
    ++Alive;
    Free.push_back(W);
  }
  return true;
}

void WorkerPool::stop() {
  std::vector<WorkerProc> ToKill;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping && Free.empty())
      return;
    Stopping = true;
    ToKill.swap(Free);
  }
  FreeCv.notify_all();
  for (WorkerProc &W : ToKill)
    destroyWorker(W);
  std::lock_guard<std::mutex> Lock(Mu);
  Alive -= std::min<unsigned>(Alive, (unsigned)ToKill.size());
  // Busy workers are destroyed by their checked-out callers when they
  // observe Stopping; nothing to do for them here.
}

bool WorkerPool::checkout(WorkerProc &W, uint64_t DeadlineMs,
                          unsigned Shards, unsigned &ChaosAt) {
  std::unique_lock<std::mutex> Lock(Mu);
  Clock::time_point T0 = Clock::now();
  while (true) {
    if (Stopping)
      return false;
    if (!Free.empty()) {
      W = Free.back();
      Free.pop_back();
      ++BusyCount;
      BusyPids.push_back(W.Pid);
      // The stream's shards take the next attempt numbers in order; the
      // first multiple of ChaosCrashEveryN among them is the chaos shard.
      ChaosAt = Shards;
      if (uint64_t N = Opts.ChaosCrashEveryN) {
        uint64_t Offset = (N - (Counters.Dispatched + 1) % N) % N;
        if (Offset < Shards) {
          ChaosAt = (unsigned)Offset;
          ++Counters.ChaosInjected;
        }
      }
      return true;
    }
    if (DeadlineMs) {
      uint64_t Spent = msSince(T0);
      if (Spent >= DeadlineMs)
        return false;
      FreeCv.wait_for(Lock, std::chrono::milliseconds(DeadlineMs - Spent));
    } else {
      FreeCv.wait(Lock);
    }
  }
}

void WorkerPool::checkin(WorkerProc W) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    BusyPids.erase(std::remove(BusyPids.begin(), BusyPids.end(), W.Pid),
                   BusyPids.end());
    --BusyCount;
    if (!Stopping) {
      Free.push_back(W);
      FreeCv.notify_one();
      return;
    }
  }
  destroyWorker(W);
}

void WorkerPool::retire(WorkerProc W, Loss Why) {
  pid_t Pid = W.Pid;
  destroyWorker(W); // SIGKILL + waitpid: confirm the death we detected
  bool WantRespawn;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    WantRespawn = !Stopping;
  }
  WorkerProc Fresh;
  std::string Err;
  bool Respawned = WantRespawn && spawnWorker(Fresh, &Err);
  std::lock_guard<std::mutex> Lock(Mu);
  BusyPids.erase(std::remove(BusyPids.begin(), BusyPids.end(), Pid),
                 BusyPids.end());
  --BusyCount;
  --Alive;
  if (Why == Loss::Timeout)
    ++Counters.Timeouts;
  else if (Why == Loss::Crash)
    ++Counters.Crashes;
  if (Respawned) {
    ++Counters.Spawned;
    ++Alive;
    Free.push_back(Fresh);
    FreeCv.notify_one();
  }
}

WorkerPool::StreamOutcome WorkerPool::runStream(const std::string &RequestJson,
                                                unsigned First, unsigned Count,
                                                uint64_t DeadlineMs,
                                                const ShardSink &Sink) {
  StreamOutcome Out;
  Out.Next = First;
  Clock::time_point T0 = Clock::now();
  uint64_t Backoff = std::max<uint64_t>(1, Opts.BackoffMs);
  // Consecutive failed attempts of shard Out.Next.
  unsigned Failures = 0;
  auto Fail = [&](const char *Code, std::string Msg) {
    Out.Code = Code;
    Out.Error = std::move(Msg);
    return Out;
  };

  while (Out.Next < Count) {
    if (Failures == Opts.MaxAttempts) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counters.Poisoned;
      return Fail("shard_poisoned",
                  formatv("shard failed %u consecutive attempts on fresh "
                          "workers; refusing to retry further",
                          Opts.MaxAttempts));
    }
    if (Failures) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counters.Retries;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(Backoff));
      Backoff = std::min(Backoff * 2, std::max(Opts.BackoffCapMs, Backoff));
    }
    uint64_t Left = 0;
    if (DeadlineMs) {
      uint64_t Spent = msSince(T0);
      if (Spent >= DeadlineMs)
        return Fail("deadline_exceeded",
                    "submission deadline expired while retrying the shard");
      Left = DeadlineMs - Spent;
    }
    Out.Attempts = Failures + 1;

    WorkerProc W;
    unsigned ChaosAt = 0;
    if (!checkout(W, Left, Count - Out.Next, ChaosAt)) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Stopping)
        return Fail("draining", "worker pool is shutting down");
      return Fail("deadline_exceeded",
                  "submission deadline expired waiting for a free worker");
    }

    // The undelivered suffix: the caller's request plus its shard range.
    std::string Request = RequestJson;
    std::string Range = formatv(", \"first_shard\": %u, \"shard_count\": %u",
                                Out.Next, Count);
    if (Out.Next + ChaosAt < Count)
      Range += formatv(", \"chaos_shard\": %u, \"chaos_signal\": %d",
                       Out.Next + ChaosAt, Opts.ChaosSignal);
    Request.insert(Request.rfind('}'), Range);
    if (!writeFrame(W.RequestFd, Request)) {
      retire(std::move(W), Loss::Crash);
      ++Failures;
      continue; // the worker died between streams; retry costs nothing
    }

    // Consume the stream, one frame per shard in index order.
    while (true) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counters.Dispatched;
      }
      Out.Attempts = Failures + 1;
      // Frame deadline: the tighter of the per-shard timeout and what is
      // left of the submission deadline.
      uint64_t Wait = Opts.ShardTimeoutMs;
      if (DeadlineMs) {
        uint64_t Spent = msSince(T0);
        uint64_t Remain = Spent >= DeadlineMs ? 1 : DeadlineMs - Spent;
        Wait = Wait ? std::min(Wait, Remain) : Remain;
      }
      StreamFrame F = readStreamFrame(W.ResponseFd, Wait, Out.Next, Count);
      if (F.K == StreamFrame::Kind::Timeout) {
        retire(std::move(W), Loss::Timeout);
        ++Failures;
        if (DeadlineMs && msSince(T0) >= DeadlineMs)
          return Fail("deadline_exceeded",
                      "shard exceeded the submission deadline");
        break;
      }
      if (F.K == StreamFrame::Kind::Dead) {
        // EOF, torn frame, CRC mismatch or an unexpected shard: the
        // worker is dead or lying.
        retire(std::move(W), Loss::Crash);
        ++Failures;
        break;
      }
      if (F.K == StreamFrame::Kind::Error) {
        // A structured worker-side failure (compile error, bad request)
        // is deterministic — retrying cannot help, and the worker is
        // healthy: the error frame ended its stream.
        checkin(std::move(W));
        return Fail(F.Code.c_str(), std::move(F.Error));
      }
      ++W.ShardsServed;
      unsigned Attempts = Failures + 1;
      Failures = 0;
      Backoff = std::max<uint64_t>(1, Opts.BackoffMs);
      // After the last frame the worker is idle: free it before the sink
      // folds, so a waiting handler can start its own stream.
      if (Out.Next + 1 == Count)
        checkin(std::move(W));
      bool More = Sink(F.Result, Attempts);
      if (++Out.Next == Count) {
        Out.Ok = true;
        return Out;
      }
      if (!More) {
        // The worker is mid-shard, and its later frames must never reach
        // another stream: replace it rather than drain its pipe. The
        // discarded shard was dispatched all the same.
        {
          std::lock_guard<std::mutex> Lock(Mu);
          ++Counters.Dispatched;
        }
        retire(std::move(W), Loss::Cancel);
        Out.Stopped = true;
        return Out;
      }
    }
  }
  Out.Ok = true;
  return Out;
}

WorkerPoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  WorkerPoolStats S = Counters;
  S.Alive = Alive;
  S.Busy = BusyCount;
  return S;
}

std::vector<pid_t> WorkerPool::workerPids() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<pid_t> Pids = BusyPids;
  for (const WorkerProc &W : Free)
    Pids.push_back(W.Pid);
  return Pids;
}
