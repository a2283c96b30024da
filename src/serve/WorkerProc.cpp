//===- serve/WorkerProc.cpp - One crash-isolated shard worker process -----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/WorkerProc.h"

#include "serve/FrontEnd.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "support/Crc32.h"
#include "support/StringUtils.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <poll.h>
#include <unordered_map>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace talft;
using namespace talft::serve;

namespace {

using Clock = std::chrono::steady_clock;

enum class ReadStatus { Done, Timeout, Dead };

/// Reads exactly \p Len bytes from \p Fd before \p Deadline (null =
/// unbounded): a peer that stops writing mid-frame times the read out
/// instead of wedging the parent.
ReadStatus readAll(int Fd, void *Data, size_t Len,
                   const Clock::time_point *Deadline = nullptr) {
  char *P = static_cast<char *>(Data);
  while (Len) {
    if (Deadline) {
      int64_t LeftMs = std::chrono::ceil<std::chrono::milliseconds>(
                           *Deadline - Clock::now())
                           .count();
      pollfd Pfd{Fd, POLLIN, 0};
      int R = ::poll(&Pfd, 1, (int)std::clamp<int64_t>(LeftMs, 0, 60000));
      if (R < 0 && errno != EINTR)
        return ReadStatus::Dead;
      if (R <= 0) {
        if (Clock::now() >= *Deadline)
          return ReadStatus::Timeout;
        continue;
      }
    }
    ssize_t N = ::read(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ReadStatus::Dead;
    }
    if (N == 0)
      return ReadStatus::Dead; // EOF: the peer died
    P += N;
    Len -= (size_t)N;
  }
  return ReadStatus::Done;
}

/// One compiled program, kept alive across requests. The entry owns the
/// compiled source, a failed compile included (a source that failed once
/// fails fast), and builds each engine at most once — engines are
/// immutable after construction, so reuse across requests is safe by the
/// same argument as reuse across campaign threads. A later request for
/// the same program (another stride or option set, or the rest of a
/// drained submission) skips the compile, the decode and, under the jit
/// engine, native code emission.
struct CompiledEntry {
  CompiledSource Src;
  std::unique_ptr<ExecEngine> Vm;
  std::unique_ptr<ExecEngine> Jit;

  CompiledEntry(const std::string &Lang, const std::string &Source)
      : Src(Lang, Source) {}

  const ExecEngine *engineFor(const std::string &Name) {
    if (Name == "vm") {
      if (!Vm)
        Vm = vm::createEngine(Src.Prog->code());
      return Vm.get();
    }
    if (Name == "jit") {
      if (!Jit)
        Jit = vm::createJitEngine(Src.Prog->code());
      return Jit.get();
    }
    return nullptr; // reference interpreter: CampaignOptions' default
  }
};

/// Decode-once cache, keyed by the exact (lang, source) pair (sourceKey),
/// the identity the server's front-end memo uses too, which names a
/// failed compile as well as a program. The worker loop is
/// single-threaded, so no locking; FIFO eviction keeps a
/// crashed-and-respawned worker's memory bounded when a server mixes many
/// programs onto one worker.
struct CompileCache {
  static constexpr size_t Capacity = 8;
  std::unordered_map<std::string, std::unique_ptr<CompiledEntry>> Entries;
  std::deque<std::string> Order;

  /// The entry for (Lang, Source), compiled on a miss.
  CompiledEntry &get(const std::string &Lang, const std::string &Source) {
    std::string Key = sourceKey(Lang, Source);
    auto It = Entries.find(Key);
    if (It != Entries.end())
      return *It->second;
    while (Entries.size() >= Capacity) {
      Entries.erase(Order.front());
      Order.pop_front();
    }
    auto Entry = std::make_unique<CompiledEntry>(Lang, Source);
    CompiledEntry &E = *Entry;
    Entries.emplace(Key, std::move(Entry));
    Order.push_back(std::move(Key));
    return E;
  }
};

/// The child's whole job for one request frame: one frame per shard of
/// the requested range, in index order, or one structured error frame.
/// Returns false when the parent is gone.
bool serveStream(const std::string &Request, int ResponseFd) {
  auto Fail = [ResponseFd](const char *Code, const std::string &Msg) {
    return writeFrame(ResponseFd,
                      formatv("{\"ok\": false, \"code\": \"%s\", "
                              "\"error\": %s}",
                              Code, jsonQuote(Msg).c_str()));
  };

  std::string ParseErr;
  std::optional<JsonValue> Doc = JsonValue::parse(Request, &ParseErr);
  if (!Doc || !Doc->isObject())
    return Fail("bad_request", "worker request is not JSON: " + ParseErr);

  SubmitSpec Spec;
  std::string SpecErr;
  if (!specFromJson(*Doc, Spec, SpecErr))
    return Fail("bad_request", SpecErr);
  uint64_t Stride = Doc->u64At("resolved_stride", 1);
  unsigned Threads = (unsigned)Doc->u64At("campaign_threads", 1);
  uint64_t First = Doc->u64At("first_shard", 0);
  uint64_t Count = Doc->u64At("shard_count", 0);
  if (First >= Count || Count > UINT32_MAX)
    return Fail("bad_request",
                formatv("shard range [%llu, %llu) is empty or too large",
                        (unsigned long long)First, (unsigned long long)Count));
  int ChaosSignal = (int)Doc->u64At("chaos_signal", 0);
  uint64_t ChaosShard = Doc->u64At("chaos_shard", 0);

  // Compile from source in this process: workers share nothing with the
  // server, so a parser or codegen crash is contained too.
  static CompileCache Cache;
  CompiledEntry &Entry = Cache.get(Spec.Lang, Spec.Source);
  if (!Entry.Src.Prog)
    return Fail("compile_error", Entry.Src.CompileError);

  CampaignOptions CO;
  CO.Threads = Threads;
  CO.Engine = Entry.engineFor(Spec.Engine);
  applySpecOptions(Spec, CO);
  CO.ShardCount = (unsigned)Count;
  // One reference for the whole range: the range's shards share it.
  SweepReference Ref(*Entry.Src.Prog, theoremConfig(Spec, Stride), CO);
  for (uint64_t I = First; I != Count; ++I) {
    CO.ShardIndex = (unsigned)I;
    CO.ShardRetiredHook = nullptr;
    if (ChaosSignal > 0 && I == ChaosShard)
      CO.ShardRetiredHook = [ChaosSignal](unsigned, unsigned) {
        // Chaos: die at the shard boundary — the work is complete but no
        // byte of its frame has left the process. SIGSEGV goes through
        // the default handler (the signal must look like a real crash).
        ::signal(ChaosSignal, SIG_DFL);
        ::raise(ChaosSignal);
      };
    CampaignResult R = Ref.runShard(CO);
    if (!writeFrame(ResponseFd,
                    "{\"ok\": true, \"campaign\": " + campaignJsonLine(R) +
                        "}"))
      return false;
  }
  return true;
}

} // namespace

bool talft::serve::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Header[2] = {(uint32_t)Payload.size(),
                        support::crc32(Payload)};
  // One writev, so a reader woken by the header finds the payload behind
  // it rather than blocking again.
  iovec Iov[2] = {{Header, sizeof(Header)},
                  {const_cast<char *>(Payload.data()), Payload.size()}};
  iovec *Next = Iov;
  int Left = 2;
  while (Left) {
    ssize_t N = ::writev(Fd, Next, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    for (; Left && (size_t)N >= Next->iov_len; ++Next, --Left)
      N -= (ssize_t)Next->iov_len;
    if (Left) {
      Next->iov_base = static_cast<char *>(Next->iov_base) + N;
      Next->iov_len -= (size_t)N;
    }
  }
  return true;
}

bool talft::serve::readFrame(int Fd, std::string &Payload) {
  uint32_t Header[2];
  if (readAll(Fd, Header, sizeof(Header)) != ReadStatus::Done)
    return false;
  if (Header[0] > MaxFrameBytes)
    return false;
  Payload.resize(Header[0]);
  if (readAll(Fd, Payload.data(), Payload.size()) != ReadStatus::Done)
    return false;
  return support::crc32(Payload) == Header[1];
}

StreamFrame talft::serve::readStreamFrame(int Fd, uint64_t TimeoutMs,
                                          unsigned Index, unsigned Count) {
  StreamFrame F;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  const Clock::time_point *Bound = TimeoutMs ? &Deadline : nullptr;
  uint32_t Header[2];
  std::string Payload;
  ReadStatus S = readAll(Fd, Header, sizeof(Header), Bound);
  if (S == ReadStatus::Done && Header[0] > MaxFrameBytes)
    return F;
  if (S == ReadStatus::Done) {
    Payload.resize(Header[0]);
    S = readAll(Fd, Payload.data(), Payload.size(), Bound);
  }
  if (S == ReadStatus::Timeout)
    F.K = StreamFrame::Kind::Timeout;
  if (S != ReadStatus::Done || support::crc32(Payload) != Header[1])
    return F;

  std::optional<JsonValue> Doc = JsonValue::parse(Payload);
  if (!Doc || !Doc->isObject() || !Doc->get("ok"))
    return F;
  if (!Doc->boolAt("ok", false)) {
    // A structured worker-side failure (compile error, bad request).
    F.K = StreamFrame::Kind::Error;
    F.Code = Doc->stringAt("code", "worker_error");
    F.Error = Doc->stringAt("error", "worker reported an error");
    return F;
  }
  const JsonValue *Campaign = Doc->get("campaign");
  std::string Err;
  if (!Campaign || !campaignFromJson(*Campaign, F.Result, Err) ||
      F.Result.Stats.ShardIndex != Index ||
      F.Result.Stats.ShardCount != Count)
    return F;
  F.K = StreamFrame::Kind::Shard;
  return F;
}

void talft::serve::runWorkerLoop(int RequestFd, int ResponseFd) {
  std::string Request;
  while (readFrame(RequestFd, Request))
    if (!serveStream(Request, ResponseFd))
      break; // parent gone
  // EOF (or a torn frame): the parent shut the pool down or died. _exit,
  // not exit — the child must never run the parent's atexit handlers or
  // flush its inherited stdio buffers.
  ::_exit(0);
}

bool talft::serve::spawnWorker(WorkerProc &Out, std::string *Err) {
  int Req[2] = {-1, -1}, Resp[2] = {-1, -1};
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = formatv("%s: %s", What, std::strerror(errno));
    for (int Fd : {Req[0], Req[1], Resp[0], Resp[1]})
      if (Fd >= 0)
        ::close(Fd);
    return false;
  };
  if (::pipe(Req) != 0)
    return Fail("pipe");
  if (::pipe(Resp) != 0)
    return Fail("pipe");

  pid_t Pid = ::fork();
  if (Pid < 0)
    return Fail("fork");
  if (Pid == 0) {
    // Child. Drop every inherited descriptor except this worker's two
    // pipe ends and stderr: the listen socket, client connections, the
    // WAL fd and sibling workers' pipes must not be kept alive (or
    // corrupted) by a crashing shard worker.
    int Keep0 = Req[0], Keep1 = Resp[1];
    long MaxFd = ::sysconf(_SC_OPEN_MAX);
    if (MaxFd < 0 || MaxFd > 4096)
      MaxFd = 4096;
    for (int Fd = 3; Fd < (int)MaxFd; ++Fd)
      if (Fd != Keep0 && Fd != Keep1)
        ::close(Fd);
    ::signal(SIGPIPE, SIG_IGN);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_IGN); // ^C on the foreground group drains the
                               // server; workers exit via pipe EOF
    runWorkerLoop(Keep0, Keep1);
  }

  // Parent.
  ::close(Req[0]);
  ::close(Resp[1]);
  Out.Pid = Pid;
  Out.RequestFd = Req[1];
  Out.ResponseFd = Resp[0];
  Out.ShardsServed = 0;
  return true;
}

void talft::serve::destroyWorker(WorkerProc &W) {
  if (W.RequestFd >= 0) {
    ::close(W.RequestFd);
    W.RequestFd = -1;
  }
  if (W.ResponseFd >= 0) {
    ::close(W.ResponseFd);
    W.ResponseFd = -1;
  }
  if (W.Pid > 0) {
    // The pipe close is the graceful path; the kill covers a worker stuck
    // mid-shard. Reap so no zombie outlives the pool.
    ::kill(W.Pid, SIGKILL);
    int Status = 0;
    while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    W.Pid = -1;
  }
}
