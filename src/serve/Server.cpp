//===- serve/Server.cpp - The long-running certification server -----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "fault/CampaignFields.h"
#include "isa/ProgramHash.h"
#include "serve/Json.h"
#include "support/AtomicFile.h"
#include "support/StringUtils.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace talft;
using namespace talft::serve;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t msSince(Clock::time_point T0) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - T0)
      .count();
}

bool sendAll(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= (size_t)N;
  }
  return true;
}

bool sendLine(int Fd, const std::string &S) {
  std::string Out = S;
  Out.push_back('\n');
  return sendAll(Fd, Out.data(), Out.size());
}

WorkerPoolOptions poolOptions(const ServerOptions &O) {
  WorkerPoolOptions P;
  P.Workers = O.PoolWorkers;
  P.CampaignThreads = O.CampaignThreads;
  P.ShardTimeoutMs = O.ShardTimeoutMs;
  P.MaxAttempts = O.MaxShardAttempts;
  P.ChaosCrashEveryN = O.ChaosCrashEveryN;
  P.ChaosSignal = O.ChaosSignal;
  return P;
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Front(Opts.CacheEntries),
      Memo(Opts.CacheEntries, Opts.CacheDir), Pool(poolOptions(Opts)) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.DefaultShards == 0)
    Opts.DefaultShards = 1;
  if (Opts.MaxLineBytes == 0)
    Opts.MaxLineBytes = 32u << 20;
}

Server::~Server() {
  if (Started.load())
    stop();
}

bool Server::start(std::string *Err) {
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = formatv("%s: %s", What, std::strerror(errno));
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    Pool.stop();
    return false;
  };

  // A client (or a dead worker's pipe) closing mid-write must be an
  // error return, never a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);

  if (!Opts.CacheDir.empty() &&
      !support::createDirectories(Opts.CacheDir)) {
    if (Err)
      *Err = "cannot create cache directory \"" + Opts.CacheDir + "\"";
    return false;
  }

  if (!Opts.WalPath.empty() && !Wal.open(Opts.WalPath, Err))
    return false;

  // Fork the worker pool before any thread exists: the children inherit
  // a single-threaded image, so nothing can be forked mid-malloc.
  if (!Pool.start(Err))
    return false;

  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons((uint16_t)Opts.Port);
  if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1) {
    if (Err)
      *Err = "invalid host address \"" + Opts.Host + "\"";
    ::close(ListenFd);
    ListenFd = -1;
    Pool.stop();
    return false;
  }
  if (::bind(ListenFd, (sockaddr *)&Addr, sizeof(Addr)) < 0)
    return Fail("bind");
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen");

  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(ListenFd, (sockaddr *)&Bound, &BoundLen) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Bound.sin_port);

  Started.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  if (!Wal.pending().empty())
    Replayer = std::thread([this] { replayLoop(); });
  return true;
}

void Server::requestDrain() {
  {
    // The flag flips under QueueMu: a handler holds the mutex from
    // evaluating its wait predicate until it blocks, so it either sees
    // Draining or is already waiting when the notify below fires. A flag
    // set outside the mutex could land in between and the wake-up would
    // be lost, leaving stop() joining a handler that never returns.
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Draining.exchange(true))
      return;
  }
  // A draining server starts no more work, so its pool stops now: a stream
  // the drain cancels retires its worker without forking a replacement.
  Pool.stop();
  // Wake the accept loop; pending connections are refused by the workers.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  QueueCv.notify_all();
}

void Server::wait() {
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
  if (Replayer.joinable())
    Replayer.join();
  Pool.stop();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  Started.store(false);
}

void Server::stop() {
  requestDrain();
  wait();
}

uint64_t Server::retryAfterMsEstimate() const {
  // How long until a queue slot frees up: the average shard time scaled
  // by the backlog, floored so clients never busy-spin against a server
  // that has not yet served a shard.
  double AvgShardMs;
  size_t Depth;
  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    AvgShardMs = Counters.ShardsRetired
                     ? Counters.ShardSeconds * 1000.0 /
                           (double)Counters.ShardsRetired
                     : 0.0;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Depth = Queue.size();
  }
  uint64_t Estimate = (uint64_t)(AvgShardMs * (double)(Depth + 1));
  return std::min<uint64_t>(std::max<uint64_t>(Estimate, 200), 60000);
}

void Server::acceptLoop() {
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR && !Draining.load())
        continue;
      break; // drained or listener gone
    }
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Connections;
    }

    std::unique_lock<std::mutex> Lock(QueueMu);
    if (Draining.load() || Queue.size() >= Opts.QueueCap) {
      bool IsDraining = Draining.load();
      Lock.unlock();
      {
        std::lock_guard<std::mutex> CLock(CountersMu);
        ++Counters.Rejected;
        if (!IsDraining)
          ++Counters.Overloaded;
      }
      if (IsDraining) {
        emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                             "\"code\": \"draining\", \"error\": "
                             "\"server is draining, try again later\"}",
                             ProtocolSchema));
      } else {
        // Shed load ahead of the kernel accept backlog: the client gets
        // a machine-readable hint for when a slot should be free.
        emitLine(Fd,
                 formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                         "\"code\": \"overloaded\", \"retry_after_ms\": "
                         "%llu, \"error\": \"server is at capacity, retry "
                         "later\"}",
                         ProtocolSchema,
                         (unsigned long long)retryAfterMsEstimate()));
      }
      ::close(Fd);
      continue;
    }
    Queue.push_back(Fd);
    Lock.unlock();
    QueueCv.notify_one();
  }
}

void Server::workerLoop() {
  while (true) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock,
                   [this] { return !Queue.empty() || Draining.load(); });
      if (Queue.empty())
        return; // draining and nothing queued
      Fd = Queue.front();
      Queue.pop_front();
    }
    if (Draining.load()) {
      // Accepted before the drain, never served: refuse rather than start
      // work the drain would immediately cut short.
      {
        std::lock_guard<std::mutex> Lock(CountersMu);
        ++Counters.Rejected;
      }
      emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                           "\"code\": \"draining\", \"error\": "
                           "\"server is draining\"}",
                           ProtocolSchema));
      ::close(Fd);
      continue;
    }
    ++Active;
    handleConnection(Fd);
    --Active;
  }
}

void Server::replayLoop() {
  // Recovered accepts, oldest first. Each replays through the same
  // pipeline as a live submission (memo probe first, so shards already
  // folded before the crash are not rerun); the terminal event retires
  // the WAL record. A drain mid-replay leaves the rest pending for the
  // next restart.
  for (const PendingSubmission &S : Wal.pending()) {
    if (Draining.load())
      return;
    runSubmission(/*Fd=*/-1, S.Spec, /*ReplayId=*/S.Id);
  }
}

bool Server::emitLine(int Fd, const std::string &S) {
  if (Fd < 0)
    return true; // replay: there is no client
  if (sendLine(Fd, S))
    return true;
  std::lock_guard<std::mutex> Lock(CountersMu);
  ++Counters.SendFailures;
  return false;
}

void Server::handleConnection(int Fd) {
  std::string Buf;
  char Chunk[4096];
  bool Keep = true;
  Clock::time_point LastActivity = Clock::now();
  while (Keep) {
    size_t NL;
    while (Keep && (NL = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      Keep = handleRequest(Fd, Line);
      LastActivity = Clock::now();
    }
    if (!Keep)
      break;
    if (Buf.size() > Opts.MaxLineBytes) {
      // A structured refusal, not a silent close: the client learns the
      // cap instead of diagnosing a reset.
      {
        std::lock_guard<std::mutex> Lock(CountersMu);
        ++Counters.OversizedLines;
        ++Counters.Errors;
      }
      emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                           "\"code\": \"bad_request\", \"error\": "
                           "\"request line exceeds %llu bytes\"}",
                           ProtocolSchema,
                           (unsigned long long)Opts.MaxLineBytes));
      break;
    }
    // Block in poll, not in a recv/EAGAIN spin: wake every 500ms to
    // honor a drain and the idle timer without burning a core.
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 500);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0) {
      if (Draining.load())
        break;
      if (Opts.IdleTimeoutMs && msSince(LastActivity) >= Opts.IdleTimeoutMs) {
        std::lock_guard<std::mutex> Lock(CountersMu);
        ++Counters.IdleClosed;
        break;
      }
      continue;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N > 0) {
      Buf.append(Chunk, (size_t)N);
      LastActivity = Clock::now();
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break; // client closed or connection error
  }
  ::close(Fd);
}

bool Server::handleRequest(int Fd, const std::string &Line) {
  // Minimal HTTP escape hatch so `curl http://host:port/stats` works.
  if (Line.rfind("GET ", 0) == 0) {
    bool IsStats = Line.rfind("GET /stats", 0) == 0;
    std::string Body = IsStats ? statsJson() + "\n"
                               : std::string("{\"error\": \"not found\"}\n");
    std::string Resp = formatv("HTTP/1.0 %s\r\n"
                               "Content-Type: application/json\r\n"
                               "Content-Length: %llu\r\n"
                               "Connection: close\r\n\r\n",
                               IsStats ? "200 OK" : "404 Not Found",
                               (unsigned long long)Body.size());
    Resp += Body;
    if (!sendAll(Fd, Resp.data(), Resp.size())) {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.SendFailures;
    }
    return false;
  }

  std::string ParseErr;
  std::optional<JsonValue> Doc = JsonValue::parse(Line, &ParseErr);
  if (!Doc || !Doc->isObject()) {
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Errors;
    }
    emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                         "\"code\": \"bad_request\", \"error\": %s}",
                         ProtocolSchema,
                         jsonQuote(Doc ? "request is not a JSON object"
                                       : "parse error: " + ParseErr)
                             .c_str()));
    return true;
  }

  std::string Cmd = Doc->stringAt("cmd", "");
  if (Cmd == "ping") {
    return emitLine(Fd, formatv("{\"event\": \"pong\", \"schema\": \"%s\", "
                                "\"build\": %s}",
                                ProtocolSchema,
                                jsonQuote(Opts.BuildId).c_str()));
  }
  if (Cmd == "stats")
    return emitLine(Fd, statsJson());
  if (Cmd == "submit") {
    handleSubmit(Fd, *Doc);
    return true;
  }
  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    ++Counters.Errors;
  }
  emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                       "\"code\": \"bad_request\", \"error\": %s}",
                       ProtocolSchema,
                       jsonQuote("unknown cmd \"" + Cmd + "\"").c_str()));
  return true;
}

void Server::noteShardRetired(const CampaignResult &R) {
  std::lock_guard<std::mutex> Lock(CountersMu);
  ++Counters.ShardsRetired;
  Counters.TasksClassified += R.Stats.Tasks + R.Stats.PrunedTasks;
  Counters.ShardSeconds += R.Stats.WallSeconds;
  Counters.EarlyExits += R.Stats.EarlyExits;
  Counters.StepsSaved += R.Stats.StepsSaved;
  Counters.LockstepSkips += R.Stats.LockstepSkips;
  Counters.LaneGroups += R.Stats.LaneGroups;
  Counters.LaneTasks += R.Stats.LaneTasks;
}

void Server::handleSubmit(int Fd, const JsonValue &Request) {
  SubmitSpec Spec;
  std::string SpecErr;
  if (!specFromJson(Request, Spec, SpecErr)) {
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Errors;
    }
    emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                         "\"code\": \"bad_request\", \"error\": %s}",
                         ProtocolSchema, jsonQuote(SpecErr).c_str()));
    return;
  }
  runSubmission(Fd, Spec, /*ReplayId=*/0);
}

void Server::runSubmission(int Fd, const SubmitSpec &Spec,
                           uint64_t ReplayId) {
  // The WAL record this submission retires on its terminal event. Live
  // submissions append one below; replays retire the recovered record.
  uint64_t WalId = ReplayId;
  auto Retire = [&](const std::string &Outcome) {
    Wal.appendRetire(WalId, Outcome);
    WalId = 0;
  };
  auto Fail = [&](const std::string &Code, const std::string &Msg) {
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Errors;
    }
    emitLine(Fd, formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                         "\"code\": \"%s\", \"error\": %s}",
                         ProtocolSchema, Code.c_str(),
                         jsonQuote(Msg).c_str()));
    Retire("failed:" + Code);
  };

  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    ++Counters.Submits;
  }

  // Front end: the compile error, or the program hash and certification,
  // of these exact source bytes — remembered, or compiled and certified
  // here. The program compiled on a miss stays for the work below that
  // needs one.
  std::unique_ptr<CompiledSource> Src;
  std::optional<FrontEnd> FE = Front.lookup(Spec.Lang, Spec.Source);
  if (!FE) {
    Src = std::make_unique<CompiledSource>(Spec.Lang, Spec.Source);
    FE = runFrontEnd(*Src);
    Front.store(Spec.Lang, Spec.Source, *FE);
  }
  if (!FE->CompileError.empty())
    return Fail("compile_error", FE->CompileError);

  // Identity: the memo key. The campaign recomputes the same program hash
  // internally; the tests assert they agree.
  uint64_t PH = FE->ProgramHash;
  uint64_t OD = optionsDigest(Spec);
  MemoKey Key{PH, OD};
  const std::string &CertKey = FE->Certification;

  // Cache probe: a complete entry answers outright; a partial entry (a
  // drained campaign's folded prefix) resumes with its own shard
  // partition; a miss starts from shard 0.
  MemoEntry Entry;
  unsigned StartShard = 0;
  const char *Cache = "miss";
  if (std::optional<MemoEntry> Hit = Memo.lookup(Key)) {
    if (Hit->complete()) {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.CacheHits;
    } else {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Resumed;
    }
    Entry = std::move(*Hit);
    StartShard = Entry.ShardsDone;
    Cache = Entry.complete() ? "hit" : "partial";
  } else {
    Entry.Key = Key;
    Entry.Name = Spec.Name;
    Entry.ShardsTotal = Spec.Shards ? Spec.Shards : Opts.DefaultShards;
  }
  Entry.Certification = CertKey;

  // Durability point: once the accept record is fsync'd, a crashed
  // server replays this submission on restart. Replays already hold a
  // record; cache-complete hits run no shards but are logged anyway so
  // the retire outcome documents them.
  if (!WalId)
    WalId = Wal.appendAccept(Spec.Name, PH, OD, Entry.ShardsTotal,
                             submitRequestJson(Spec));
  const char *ServedOutcome = ReplayId ? "replayed" : "served";

  emitLine(Fd,
           formatv("{\"event\": \"accepted\", \"schema\": \"%s\", "
                   "\"name\": %s, \"program_hash\": \"%s\", "
                   "\"options_digest\": \"%s\", \"certification\": \"%s\", "
                   "\"cache\": \"%s\", \"shards_total\": %u, "
                   "\"shards_done\": %u, \"wal_id\": %llu, \"build\": %s}",
                   ProtocolSchema, jsonQuote(Spec.Name).c_str(),
                   programHashString(PH).c_str(),
                   programHashString(OD).c_str(), CertKey.c_str(), Cache,
                   Entry.ShardsTotal, StartShard, (unsigned long long)WalId,
                   jsonQuote(Opts.BuildId).c_str()));

  auto SendResult = [&](const MemoEntry &E, const char *How) {
    std::string Out =
        formatv("{\"event\": \"result\", \"schema\": \"%s\", "
                "\"name\": %s, \"certification\": \"%s\", "
                "\"cache\": \"%s\", \"shards_total\": %u, "
                "\"shards_done\": %u, \"campaign\": ",
                ProtocolSchema, jsonQuote(Spec.Name).c_str(),
                E.Certification.c_str(), How, E.ShardsTotal, E.ShardsDone);
    Out += campaignJsonLine(E.Folded);
    Out += "}";
    emitLine(Fd, Out);
  };

  if (Entry.complete()) {
    // Resubmission of certified content: zero shards run.
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Completed;
      if (ReplayId)
        ++Counters.Replayed;
    }
    SendResult(Entry, "hit");
    Retire(ServedOutcome);
    return;
  }

  // Pool workers compile and decode their own program, so this process
  // needs one only for the stride probe and in-process shards. Engine
  // choice is provenance, not policy: tables are engine-invariant by the
  // engine contract, and the options digest keeps entries from answering
  // across engines.
  const Program *Prog = nullptr;
  std::unique_ptr<ExecEngine> Vm;
  const ExecEngine *E = &referenceEngine();
  if (Spec.Stride == 0 || !Pool.enabled()) {
    if (!Src)
      Src = std::make_unique<CompiledSource>(Spec.Lang, Spec.Source);
    Prog = Src->Prog;
    if (Spec.Engine == "vm")
      Vm = vm::createEngine(Prog->code());
    else if (Spec.Engine == "jit")
      Vm = vm::createJitEngine(Prog->code());
    if (Vm)
      E = Vm.get();
  }

  // Stride: explicit, or adapted from the reference length exactly as the
  // batch CLI's fig10 sweep does (max(1, steps/12)). Step counts are
  // engine-independent, so a resumed campaign re-derives the same stride.
  uint64_t Stride = Spec.Stride;
  if (Stride == 0) {
    TheoremConfig Probe;
    Probe.MaxSteps = Spec.MaxSteps;
    MachineState S = *Prog->initialState();
    RunResult RR = E->run(S, Prog->exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (RR.Status != RunStatus::Halted)
      return Fail("campaign_error",
                  formatv("reference run did not halt (%s)",
                          runStatusName(RR.Status)));
    Stride = std::max<uint64_t>(1, RR.Steps / 12);
  }

  // Deadline: request-level, falling back to the server default. It
  // bounds shard dispatch and retries; it is not part of the memo key.
  uint64_t DeadlineMs =
      Spec.DeadlineMs ? Spec.DeadlineMs : Opts.DefaultDeadlineMs;
  Clock::time_point T0 = Clock::now();

  unsigned Shards = Entry.ShardsTotal;
  bool Drained = false, Expired = false;
  // A drain or an expired deadline ends the submission between shards.
  auto Stop = [&] {
    Drained = Draining.load();
    Expired = !Drained && DeadlineMs && msSince(T0) >= DeadlineMs;
    return Drained || Expired;
  };
  // Retires the next shard: counts it, streams its event, folds it and
  // persists the fold, so a drain (or a crash) loses at most the shard in
  // flight and the resume path needs no extra bookkeeping. Returns false
  // when the submission stops here with shards left.
  auto Deliver = [&](CampaignResult &R, unsigned Attempts) {
    unsigned I = Entry.ShardsDone;
    noteShardRetired(R);
    std::string Event = formatv(
        "{\"event\": \"shard\", \"schema\": \"%s\", \"index\": %u, "
        "\"count\": %u, \"first_task\": %llu, \"tasks\": %llu, "
        "\"ok\": %s, \"attempts\": %u, \"wall_seconds\": %.6f, "
        "\"verdicts\": ",
        ProtocolSchema, I, Shards, (unsigned long long)R.Stats.ShardFirstTask,
        (unsigned long long)R.Stats.Tasks, R.Ok ? "true" : "false", Attempts,
        R.Stats.WallSeconds);
    appendFieldJson(Event, campaignField("verdicts"), R);
    emitLine(Fd, Event + "}");
    if (I == 0)
      Entry.Folded = std::move(R);
    else
      foldShardResult(Entry.Folded, R);
    Entry.ShardsDone = I + 1;
    Memo.store(Entry);
    uint64_t Retired = ++ShardsRetiredTotal;
    if (Opts.DrainAfterShards && Retired >= Opts.DrainAfterShards)
      requestDrain();
    return Entry.ShardsDone == Shards || !Stop();
  };

  if (!Pool.enabled()) {
    // In-process shards share one sweep reference, recorded by the first
    // shard this submission runs.
    std::optional<SweepReference> Ref;
    CampaignOptions CO;
    CO.Threads = Opts.CampaignThreads;
    CO.Engine = Vm.get(); // null for the reference interpreter
    applySpecOptions(Spec, CO);
    CO.ShardCount = Shards;
    for (bool More = !Stop(); More && Entry.ShardsDone != Shards;) {
      CO.ShardIndex = Entry.ShardsDone;
      if (!Ref)
        Ref.emplace(*Prog, theoremConfig(Spec, Stride), CO);
      CampaignResult R = Ref->runShard(CO);
      More = Deliver(R, 1);
    }
  } else if (!Stop()) {
    // One stream for the undelivered shards: a single worker request
    // carrying the submission, the resolved stride and the thread budget
    // (the pool adds the shard range), answered one frame per shard, each
    // folded here while the worker runs the next.
    std::string Request = submitRequestJson(Spec);
    Request.insert(Request.rfind('}'),
                   formatv(", \"resolved_stride\": %llu, "
                           "\"campaign_threads\": %u",
                           (unsigned long long)Stride, Opts.CampaignThreads));
    // The pool's deadline clock starts now, with T0's.
    WorkerPool::StreamOutcome O = Pool.runStream(
        Request, Entry.ShardsDone, Shards, DeadlineMs, Deliver);
    if (O.Code == "draining") {
      Drained = true;
    } else if (!O.Ok && !O.Stopped) {
      {
        std::lock_guard<std::mutex> Lock(CountersMu);
        if (O.Code == "deadline_exceeded")
          ++Counters.DeadlineExceeded;
        else if (O.Code == "shard_poisoned")
          ++Counters.PoisonedSubmits;
        // The submission fails contained: the pool already replaced the
        // dead workers and every other submission keeps flowing.
        ++Counters.Errors;
      }
      emitLine(Fd,
               formatv("{\"event\": \"error\", \"schema\": \"%s\", "
                       "\"code\": \"%s\", \"shard\": %u, "
                       "\"attempts\": %u, \"error\": %s}",
                       ProtocolSchema, O.Code.c_str(), O.Next, O.Attempts,
                       jsonQuote(O.Error).c_str()));
      Retire("failed:" + O.Code);
      return;
    }
  }

  if (Expired) {
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.DeadlineExceeded;
    }
    return Fail("deadline_exceeded",
                formatv("submission deadline of %llu ms expired after "
                        "%u of %u shards",
                        (unsigned long long)DeadlineMs, Entry.ShardsDone,
                        Shards));
  }
  if (Drained) {
    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      ++Counters.Drained;
    }
    emitLine(Fd, formatv("{\"event\": \"drained\", \"schema\": \"%s\", "
                         "\"name\": %s, \"program_hash\": \"%s\", "
                         "\"shards_done\": %u, \"shards_total\": %u, "
                         "\"resumable\": true}",
                         ProtocolSchema, jsonQuote(Spec.Name).c_str(),
                         programHashString(PH).c_str(), Entry.ShardsDone,
                         Entry.ShardsTotal));
    // A drained *replay* stays pending: nobody has seen its result, so
    // the next restart must pick it up again (the folded prefix is in
    // the memo store, so it resumes, not reruns). A drained client
    // submission retires — the client got a terminal event and the
    // partial fold persists for its resubmission.
    if (!ReplayId)
      Retire("drained");
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    ++Counters.Completed;
    if (ReplayId)
      ++Counters.Replayed;
  }
  SendResult(Entry, Cache);
  Retire(ServedOutcome);
}

std::string Server::statsJson() const {
  ServeCounters C;
  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    C = Counters;
  }
  size_t Depth;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Depth = Queue.size();
  }
  MemoStats M = Memo.stats();
  uint64_t Lookups = M.Hits + M.PartialHits + M.Misses;
  double HitRate = Lookups ? (double)M.Hits / (double)Lookups : 0.0;
  double Throughput =
      C.ShardSeconds > 0 ? (double)C.TasksClassified / C.ShardSeconds : 0.0;

  std::string S = formatv(
      "{\"schema\": \"%s\", \"build\": %s, \"port\": %u, "
      "\"draining\": %s, \"queue_depth\": %llu, \"queue_cap\": %llu, "
      "\"workers\": %u, \"active\": %u",
      StatsSchema, jsonQuote(Opts.BuildId).c_str(), BoundPort,
      Draining.load() ? "true" : "false", (unsigned long long)Depth,
      (unsigned long long)Opts.QueueCap, Opts.Workers, Active.load());
  S += formatv(", \"connections\": %llu, \"rejected\": %llu, "
               "\"overloaded\": %llu, \"submits\": %llu, "
               "\"completed\": %llu, \"drained\": %llu, "
               "\"replayed\": %llu, \"errors\": %llu, \"resumed\": %llu",
               (unsigned long long)C.Connections,
               (unsigned long long)C.Rejected,
               (unsigned long long)C.Overloaded,
               (unsigned long long)C.Submits,
               (unsigned long long)C.Completed, (unsigned long long)C.Drained,
               (unsigned long long)C.Replayed, (unsigned long long)C.Errors,
               (unsigned long long)C.Resumed);
  S += formatv(", \"deadline_exceeded\": %llu, \"poisoned\": %llu, "
               "\"send_failures\": %llu, \"oversized_lines\": %llu, "
               "\"idle_closed\": %llu",
               (unsigned long long)C.DeadlineExceeded,
               (unsigned long long)C.PoisonedSubmits,
               (unsigned long long)C.SendFailures,
               (unsigned long long)C.OversizedLines,
               (unsigned long long)C.IdleClosed);
  FrontEndStats F = Front.stats();
  S += formatv(", \"front_end\": {\"hits\": %llu, \"misses\": %llu, "
               "\"entries\": %llu, \"capacity\": %llu}",
               (unsigned long long)F.Hits, (unsigned long long)F.Misses,
               (unsigned long long)F.Entries, (unsigned long long)F.Capacity);
  S += formatv(", \"cache\": {\"hits\": %llu, \"partial_hits\": %llu, "
               "\"misses\": %llu, \"hit_rate\": %.4f, \"evictions\": %llu, "
               "\"disk_loads\": %llu, \"disk_stores\": %llu, "
               "\"entries\": %llu, \"capacity\": %llu}",
               (unsigned long long)M.Hits, (unsigned long long)M.PartialHits,
               (unsigned long long)M.Misses, HitRate,
               (unsigned long long)M.Evictions,
               (unsigned long long)M.DiskLoads,
               (unsigned long long)M.DiskStores,
               (unsigned long long)M.Entries,
               (unsigned long long)M.Capacity);

  // Pool health; the pids are the chaos harness's kill list.
  WorkerPoolStats P = Pool.stats();
  S += formatv(", \"pool\": {\"workers\": %u, \"alive\": %u, \"busy\": %u, "
               "\"spawned\": %llu, \"dispatched\": %llu, "
               "\"crashes\": %llu, \"timeouts\": %llu, \"retries\": %llu, "
               "\"poisoned\": %llu, \"chaos_injected\": %llu, \"pids\": [",
               Opts.PoolWorkers, P.Alive, P.Busy,
               (unsigned long long)P.Spawned,
               (unsigned long long)P.Dispatched,
               (unsigned long long)P.Crashes, (unsigned long long)P.Timeouts,
               (unsigned long long)P.Retries, (unsigned long long)P.Poisoned,
               (unsigned long long)P.ChaosInjected);
  std::vector<pid_t> Pids = Pool.workerPids();
  for (size_t I = 0; I != Pids.size(); ++I)
    S += formatv(I ? ", %d" : "%d", (int)Pids[I]);
  S += "]}";

  SubmitLogStats W = Wal.stats();
  S += formatv(", \"wal\": {\"enabled\": %s, \"path\": %s, "
               "\"appends\": %llu, \"retires\": %llu, \"recovered\": %llu, "
               "\"torn_bytes\": %llu, \"corrupt_frames\": %llu, "
               "\"fsyncs\": %llu}",
               Wal.enabled() ? "true" : "false",
               jsonQuote(Wal.path()).c_str(), (unsigned long long)W.Appends,
               (unsigned long long)W.Retires,
               (unsigned long long)W.Recovered,
               (unsigned long long)W.TornBytes,
               (unsigned long long)W.CorruptFrames,
               (unsigned long long)W.Fsyncs);

  S += formatv(", \"shards\": {\"retired\": %llu, "
               "\"tasks_classified\": %llu, \"seconds\": %.6f, "
               "\"tasks_per_second\": %.1f}",
               (unsigned long long)C.ShardsRetired,
               (unsigned long long)C.TasksClassified, C.ShardSeconds,
               Throughput);
  S += formatv(", \"convergence\": {\"early_exits\": %llu, "
               "\"steps_saved\": %llu, \"lockstep_skips\": %llu}",
               (unsigned long long)C.EarlyExits,
               (unsigned long long)C.StepsSaved,
               (unsigned long long)C.LockstepSkips);
  S += formatv(", \"lanes\": {\"groups\": %llu, \"lane_tasks\": %llu}}",
               (unsigned long long)C.LaneGroups,
               (unsigned long long)C.LaneTasks);
  return S;
}
