//===- serve/WorkerPool.h - Crash-isolated shard worker pool --------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certification server's detect→contain→recover discipline applied
/// to the server itself: shards are farmed over a pool of forked worker
/// processes (serve/WorkerProc.h), so a fault that would have killed the
/// whole service — a segfault in the campaign engine, an OOM kill, a
/// wedged shard — takes down one worker process instead.
///
/// A submission's shards travel as one stream: a single request names
/// the shard range, the worker records the sweep reference once and
/// writes one frame per shard as each finishes, and the caller's sink
/// folds each frame while the worker runs the next shard. The caller
/// holds one worker for the whole stream.
///
///   - detect: a worker that dies (pipe EOF / torn frame, confirmed by
///     waitpid), sends a frame for any shard but the next one, or
///     exceeds the per-shard deadline between two frames (poll timeout,
///     then SIGKILL) is a detected fault;
///   - contain: the shard's partial work dies with the process — no
///     result bytes escape a crashing worker, so nothing corrupt can
///     fold into a table;
///   - recover: the undelivered suffix of the range is re-dispatched to a
///     fresh worker with capped exponential backoff. Shards are
///     deterministic index ranges of the campaign's task enumeration, so
///     the retried shards are bit-identical to what the dead worker would
///     have produced.
///
/// After MaxAttempts consecutive failures of the *same* shard the pool
/// reports it poisoned (a deterministic crasher would otherwise eat
/// workers forever); the server fails that one submission with a
/// structured "shard_poisoned" error while every other submission keeps
/// flowing.
///
/// runStream is thread-safe and blocking: connection handlers check
/// workers out of a free list for a whole stream and wait when all are
/// busy, which is also the pool's natural backpressure. With more
/// handlers than workers, a submission waits for a worker instead of
/// interleaving with another shard by shard.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_WORKERPOOL_H
#define TALFT_SERVE_WORKERPOOL_H

#include "fault/Campaign.h"
#include "serve/WorkerProc.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace talft::serve {

struct WorkerPoolOptions {
  /// Worker processes; 0 disables the pool (the server then runs shards
  /// in-process, the pre-pool behavior).
  unsigned Workers = 2;
  /// Campaign threads inside each worker (0 = hardware concurrency).
  unsigned CampaignThreads = 0;
  /// Per-shard wall-clock deadline, the longest wait for a stream's next
  /// frame; a worker that exceeds it is SIGKILLed and the undelivered
  /// shards retried. 0 = no deadline.
  uint64_t ShardTimeoutMs = 0;
  /// Attempts per shard before declaring it poisoned (>= 1).
  unsigned MaxAttempts = 3;
  /// First retry backoff; doubles per failure, capped at BackoffCapMs.
  uint64_t BackoffMs = 10;
  uint64_t BackoffCapMs = 500;
  /// Chaos hook: every Nth dispatched shard attempt raises ChaosSignal in
  /// its worker at the shard boundary (0 = off). A stream request names
  /// the first such shard of its range. 1 makes every attempt crash,
  /// which is how the poisoning path is tested.
  uint64_t ChaosCrashEveryN = 0;
  int ChaosSignal = 11; // SIGSEGV
};

/// Monotonic pool counters (stats document, CI assertions).
struct WorkerPoolStats {
  uint64_t Spawned = 0;       ///< fork()s that succeeded (incl. respawns)
  uint64_t Dispatched = 0;    ///< shard attempts handed to a worker
  uint64_t Crashes = 0;       ///< workers lost to death mid-stream
  uint64_t Timeouts = 0;      ///< workers SIGKILLed for blowing a deadline
  uint64_t Retries = 0;       ///< stream re-dispatches after a failure
  uint64_t Poisoned = 0;      ///< shards failed after MaxAttempts
  uint64_t ChaosInjected = 0; ///< requests sent with a chaos signal
  unsigned Alive = 0;         ///< workers currently forked
  unsigned Busy = 0;          ///< workers currently running a stream
};

class WorkerPool {
public:
  /// How a stream ended.
  struct StreamOutcome {
    /// Every shard of the range reached the sink.
    bool Ok = false;
    /// The sink stopped the stream with shards still undelivered; the
    /// shard in flight was discarded and its worker replaced.
    bool Stopped = false;
    /// Machine-readable failure ("shard_poisoned", "deadline_exceeded",
    /// "draining", or the worker's structured error code).
    std::string Code;
    std::string Error;
    /// The first shard that did not reach the sink (the range's end when
    /// Ok), and the attempts it took when it failed.
    unsigned Next = 0;
    unsigned Attempts = 0;
  };

  /// Receives each shard as its frame arrives, in index order, with the
  /// attempts it took; returns false to stop consuming the stream.
  using ShardSink =
      std::function<bool(CampaignResult &Shard, unsigned Attempts)>;

  explicit WorkerPool(WorkerPoolOptions Opts);
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  bool enabled() const { return Opts.Workers > 0; }

  /// Forks the initial workers. Call before the server spawns its
  /// threads, so the first generation is forked from a single-threaded
  /// process. Returns false with \p Err on fork/pipe failure.
  bool start(std::string *Err);

  /// Streams shards [\p First, \p Count) through one worker into \p Sink,
  /// re-dispatching the undelivered suffix to a fresh worker after a
  /// crash or timeout. \p RequestJson is the worker request minus the
  /// shard range and the chaos fields (serve/WorkerProc.h). \p DeadlineMs
  /// additionally bounds the total wall-clock spent here (0 = only the
  /// per-shard timeout applies) — the submission-level deadline, checked
  /// between attempts and folded into each wait for a frame.
  StreamOutcome runStream(const std::string &RequestJson, unsigned First,
                          unsigned Count, uint64_t DeadlineMs,
                          const ShardSink &Sink);

  /// Stops accepting dispatches, wakes blocked callers with a "draining"
  /// outcome, and tears down every worker.
  void stop();

  WorkerPoolStats stats() const;
  /// Pids of the live workers — the chaos harness's kill list.
  std::vector<pid_t> workerPids() const;

private:
  /// Why a checked-out worker is retired.
  enum class Loss { Crash, Timeout, Cancel };

  /// Checks a worker out for a stream of \p Shards shards and returns in
  /// \p ChaosAt the offset of the stream's first chaos shard (\p Shards
  /// when none).
  bool checkout(WorkerProc &W, uint64_t DeadlineMs, unsigned Shards,
                unsigned &ChaosAt);
  void checkin(WorkerProc W);
  /// Kills a checked-out worker (SIGKILL + waitpid), counts a crash or
  /// timeout (a cancelled stream counts neither), and forks a
  /// replacement into the free list when possible.
  void retire(WorkerProc W, Loss Why);

  WorkerPoolOptions Opts;
  mutable std::mutex Mu;
  std::condition_variable FreeCv;
  std::vector<WorkerProc> Free;
  bool Stopping = false;
  unsigned Alive = 0;
  unsigned BusyCount = 0;
  WorkerPoolStats Counters;
  std::vector<pid_t> BusyPids;
};

} // namespace talft::serve

#endif // TALFT_SERVE_WORKERPOOL_H
