//===- serve/Server.h - The long-running certification server -------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running certification service over a local TCP socket: clients
/// submit Wile/TAL programs (serve/Protocol.h, one JSON document per
/// line), the server validates and certifies them through the analysis
/// ladder (analysis/Certify.h), runs the Theorem 4 fault campaign shard
/// by shard on the campaign engine's deterministic task partition
/// (fault/Campaign.h), streams per-shard verdict-table deltas as they
/// retire, and memoizes folded results content-addressed by
/// (program hash × options digest) in a MemoStore — a resubmission is a
/// cache hit that re-runs nothing.
///
/// With the worker pool, a submission's shards are one stream: the
/// handler sends a single request for the undelivered shard range to one
/// worker, which records the sweep reference once and answers one frame
/// per shard, and the handler folds each frame, streams its "shard" event
/// and persists the fold while the worker runs the next shard. A handler
/// holds one worker for its whole submission, so with more handlers
/// (Workers, --workers) than pool workers (PoolWorkers, --pool), later
/// submissions wait for a worker instead of interleaving with the running
/// ones shard by shard.
///
/// Two memos answer a submission, one per half of its key. The front-end
/// memo (serve/FrontEnd.h) maps the exact (lang, source) bytes to the
/// compile error, or to the program hash and certification, so a known
/// source is neither compiled nor certified again, whatever its campaign
/// options; the MemoStore then maps (program hash × options digest) to
/// the folded campaign. A warm resubmission therefore runs no compiler,
/// no certifier and no shard. The server compiles a program only on a
/// front-end miss, for the adaptive-stride probe (stride 0) and for
/// in-process shards (PoolWorkers = 0); pool workers compile their own.
/// Both memos hold CacheEntries entries.
///
/// Operational guarantees:
///   - every served verdict table folds bit-identically onto the batch
///     CLI's for the same program and options (same enumeration, same
///     shard fold the tests assert) — including when shards execute on
///     crash-isolated worker processes and some of them are retried;
///   - crash isolation: with PoolWorkers > 0 every shard runs in a
///     forked worker (serve/WorkerPool.h); a segfault, OOM kill or wedged
///     shard costs one worker process, the undelivered shards are retried
///     on a fresh one, and after MaxShardAttempts failures of one shard
///     the submission gets a structured "shard_poisoned" error while
///     other submissions keep flowing;
///   - durability: with a WalPath every accepted submission is fsync'd
///     into a write-ahead log (serve/SubmitLog.h) before work starts and
///     retired after the terminal event; a SIGKILLed server replays the
///     unretired entries through the memo store on restart, so accepted
///     work is never silently lost;
///   - deadlines and backpressure: submissions carry wall-clock deadlines
///     ("deadline_ms", or DefaultDeadlineMs) enforced across shard
///     dispatch and retries; connections beyond the queue cap are shed
///     with a structured "overloaded" error carrying a retry_after_ms
///     hint instead of queueing unboundedly;
///   - graceful drain: requestDrain (wired to SIGTERM by the tool) stops
///     accepting, cuts in-flight campaigns at the next shard boundary
///     (a stream's shard in flight is discarded and its worker replaced,
///     which counts no crash), persists the folded prefix through the
///     memo store, and answers the client with a "drained" event; a
///     resubmission — to this process or a restarted one sharing the
///     cache directory — resumes from the first unclassified shard;
///   - introspection: a "stats" request (or HTTP "GET /stats") reports
///     queue depth, front-end and cache hit rates, shard throughput, pool
///     health (including live worker pids, which the chaos harness uses
///     as its kill list), WAL counters and the summed convergence/lane
///     counters of every served campaign.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_SERVER_H
#define TALFT_SERVE_SERVER_H

#include "serve/FrontEnd.h"
#include "serve/MemoStore.h"
#include "serve/Protocol.h"
#include "serve/SubmitLog.h"
#include "serve/WorkerPool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace talft::serve {

struct ServerOptions {
  std::string Host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  unsigned Port = 0;
  /// Connection-handler threads (each serves one campaign at a time, and
  /// holds one pool worker while it streams that campaign's shards).
  unsigned Workers = 2;
  /// Worker threads per campaign shard (0 = hardware concurrency).
  unsigned CampaignThreads = 0;
  /// Shard count when a submission does not request one.
  unsigned DefaultShards = 4;
  /// Backpressure: pending connections beyond this are shed with an
  /// "overloaded" error carrying a retry_after_ms hint.
  size_t QueueCap = 16;
  /// In-memory memo entries retained (LRU), in the MemoStore and in the
  /// front-end memo each.
  size_t CacheEntries = 64;
  /// Optional persistent cache directory (must exist); empty = memory only.
  std::string CacheDir;
  /// Testing hook: request a drain after this many shards have retired
  /// server-wide (0 = never). CI uses it to exercise the drain/resume
  /// path deterministically; production drains via SIGTERM.
  uint64_t DrainAfterShards = 0;
  /// Free-form build identifier echoed in every "accepted" event and in
  /// the stats document.
  std::string BuildId = "dev";

  /// Forked shard-worker processes (crash isolation). 0 disables the
  /// pool and runs shards in-process — the pre-pool behavior, kept for
  /// environments where fork is unwelcome.
  unsigned PoolWorkers = 2;
  /// Per-shard wall-clock deadline in the pool, the longest wait for a
  /// stream's next shard; a worker exceeding it is SIGKILLed and the
  /// undelivered shards retried. 0 = none.
  uint64_t ShardTimeoutMs = 0;
  /// Attempts per shard before it is declared poisoned.
  unsigned MaxShardAttempts = 3;
  /// Default per-submission deadline when the request carries no
  /// "deadline_ms"; 0 = unbounded.
  uint64_t DefaultDeadlineMs = 0;
  /// Connections idle (no bytes, no in-flight request) longer than this
  /// are closed; 0 = never.
  uint64_t IdleTimeoutMs = 30000;
  /// A connection accumulating this many bytes without a complete line
  /// is answered with a structured "bad_request" and closed.
  size_t MaxLineBytes = 32u << 20;
  /// Write-ahead submission log path; empty disables durability.
  std::string WalPath;
  /// Chaos hooks (tests/CI only): every Nth shard attempt in the pool
  /// raises ChaosSignal in its worker at the shard boundary.
  uint64_t ChaosCrashEveryN = 0;
  int ChaosSignal = 11; // SIGSEGV
};

/// Aggregated service counters (all monotonically increasing).
struct ServeCounters {
  uint64_t Connections = 0;
  uint64_t Rejected = 0; ///< overloaded + draining refusals
  uint64_t Overloaded = 0; ///< connections shed with retry_after_ms
  uint64_t Submits = 0;
  uint64_t CacheHits = 0;
  uint64_t Resumed = 0;
  uint64_t Completed = 0;
  uint64_t Drained = 0;
  uint64_t Replayed = 0; ///< WAL entries replayed to completion
  uint64_t Errors = 0;
  uint64_t DeadlineExceeded = 0; ///< submissions failed on deadline
  uint64_t PoisonedSubmits = 0;  ///< submissions failed shard_poisoned
  uint64_t SendFailures = 0;     ///< EPIPE/short writes to clients
  uint64_t OversizedLines = 0;   ///< lines rejected for exceeding the cap
  uint64_t IdleClosed = 0;       ///< connections closed by the idle timer
  uint64_t ShardsRetired = 0;
  uint64_t TasksClassified = 0;
  double ShardSeconds = 0;
  uint64_t EarlyExits = 0;
  uint64_t StepsSaved = 0;
  uint64_t LockstepSkips = 0;
  uint64_t LaneGroups = 0;
  uint64_t LaneTasks = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens the WAL, forks the worker pool (before any thread exists, so
  /// the first generation forks from a single-threaded process), binds,
  /// listens, spawns the accept loop, workers and the WAL replayer.
  /// Returns false with \p Err set on any failure.
  bool start(std::string *Err = nullptr);

  /// The bound port (meaningful after start; resolves Port 0).
  unsigned port() const { return BoundPort; }

  /// Initiates a graceful drain: stop accepting, finish in-flight work at
  /// the next shard boundary, persist partial folds. Idempotent;
  /// async-signal-unsafe (call from a thread, not a signal handler).
  void requestDrain();

  bool draining() const { return Draining.load(); }

  /// Blocks until the accept loop and every worker have exited (i.e.
  /// until someone calls requestDrain and in-flight work finishes).
  void wait();

  /// requestDrain + wait.
  void stop();

  /// The stats document served to "stats" requests (single line).
  std::string statsJson() const;

  const ServerOptions &options() const { return Opts; }
  MemoStats memoStats() const { return Memo.stats(); }
  WorkerPoolStats poolStats() const { return Pool.stats(); }
  SubmitLogStats walStats() const { return Wal.stats(); }

private:
  void acceptLoop();
  void workerLoop();
  void replayLoop();
  void handleConnection(int Fd);
  bool handleRequest(int Fd, const std::string &Line);
  void handleSubmit(int Fd, const JsonValue &Request);
  /// The whole submission pipeline — front end (compile and certify, or
  /// the front-end memo), memo probe, WAL accept, shards (one pool stream
  /// or an in-process loop), fold, terminal event —
  /// shared by connection handlers (Fd >= 0) and the WAL replayer
  /// (Fd < 0, ReplayId = the pending record being replayed).
  void runSubmission(int Fd, const SubmitSpec &Spec, uint64_t ReplayId);
  /// sendLine that counts failures (EPIPE, resets) instead of raising
  /// SIGPIPE or silently dropping them. Fd < 0 (replay) always succeeds.
  bool emitLine(int Fd, const std::string &S);
  void noteShardRetired(const CampaignResult &Shard);
  uint64_t retryAfterMsEstimate() const;

  ServerOptions Opts;
  FrontEndMemo Front;
  MemoStore Memo;
  WorkerPool Pool;
  SubmitLog Wal;
  unsigned BoundPort = 0;
  int ListenFd = -1;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Started{false};
  std::atomic<uint64_t> ShardsRetiredTotal{0};
  std::atomic<unsigned> Active{0};

  std::thread Acceptor;
  std::vector<std::thread> Workers;
  std::thread Replayer;

  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<int> Queue;

  mutable std::mutex CountersMu;
  ServeCounters Counters;
};

} // namespace talft::serve

#endif // TALFT_SERVE_SERVER_H
