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

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <sys/wait.h>
#include <unistd.h>

using namespace talft;
using namespace talft::serve;

namespace {

bool writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len) {
    ssize_t N = ::write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= (size_t)N;
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t Len) {
  char *P = static_cast<char *>(Data);
  while (Len) {
    ssize_t N = ::read(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF mid-frame: the peer died
    P += N;
    Len -= (size_t)N;
  }
  return true;
}

/// One compiled program, kept alive across request frames. A worker
/// serves many shards of the same submission back to back; recompiling
/// (and, under the jit engine, re-emitting native code) per frame threw
/// that work away N-shards times per submission. The entry owns the
/// compiled source, a failed compile included (a source that failed once
/// fails fast), and builds each engine at most once — engines are
/// immutable after construction, so reuse across frames is safe by the
/// same argument as reuse across campaign threads.
///
/// The entry also keeps the sweep reference (fault/Campaign.h) its last
/// shard ran on, so the next shard of the same submission skips the
/// reference phase: the fault-free run, the replay recording and links,
/// and the task counts. The recorded states point into this entry's
/// program, so the reference lives and dies with the entry. It is keyed
/// by the resolved stride and the options digest, which covers the engine
/// and every other knob the reference depends on; a worker holds one
/// reference at a time (CompileCache::dropReferences).
struct CompiledEntry {
  CompiledSource Src;
  std::unique_ptr<ExecEngine> Vm;
  std::unique_ptr<ExecEngine> Jit;
  std::unique_ptr<SweepReference> Ref;
  uint64_t RefStride = 0;
  uint64_t RefDigest = 0;

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

  CompiledEntry *find(const std::string &Key) {
    auto It = Entries.find(Key);
    return It == Entries.end() ? nullptr : It->second.get();
  }

  /// Compiles (Lang, Source) into a new entry under \p Key.
  CompiledEntry *insert(std::string Key, const std::string &Lang,
                        const std::string &Source) {
    while (Entries.size() >= Capacity) {
      Entries.erase(Order.front());
      Order.pop_front();
    }
    auto Entry = std::make_unique<CompiledEntry>(Lang, Source);
    CompiledEntry *E = Entry.get();
    Entries.emplace(Key, std::move(Entry));
    Order.push_back(std::move(Key));
    return E;
  }

  /// Frees the sweep reference, whichever entry holds it. Called before
  /// recording another, so a worker's peak memory holds one reference.
  void dropReferences() {
    for (auto &[Key, E] : Entries)
      E->Ref.reset();
  }
};

/// The child's whole job for one request frame. Returns the response
/// payload (ok+campaign or a structured error object).
std::string serveShardRequest(const std::string &Request) {
  auto Fail = [](const char *Code, const std::string &Msg) {
    return formatv("{\"ok\": false, \"code\": \"%s\", \"error\": %s}", Code,
                   jsonQuote(Msg).c_str());
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
  unsigned ShardIndex = (unsigned)Doc->u64At("shard_index", 0);
  unsigned ShardCount = (unsigned)Doc->u64At("shard_count", 1);
  int ChaosSignal = (int)Doc->u64At("chaos_signal", 0);

  // Compile from source in this process: workers share nothing with the
  // server, so a parser or codegen crash is contained too. The compile —
  // and, for the vm/jit engines, the decode (and native code emission) —
  // happens once per program per worker; every later shard of the same
  // submission reuses the cached entry.
  static CompileCache Cache;
  std::string Key = sourceKey(Spec.Lang, Spec.Source);
  CompiledEntry *Entry = Cache.find(Key);
  // The shards of one submission reach this worker back to back (the
  // pool hands a handler its own worker again), so they share one sweep
  // reference: the first records it, the rest reuse it. Any other request
  // frees the held reference first, before it compiles or records.
  uint64_t Digest = optionsDigest(Spec);
  bool Record = !Entry || !Entry->Ref || Entry->RefStride != Stride ||
                Entry->RefDigest != Digest;
  if (Record)
    Cache.dropReferences();
  if (!Entry)
    Entry = Cache.insert(std::move(Key), Spec.Lang, Spec.Source);
  if (!Entry->Src.Prog)
    return Fail("compile_error", Entry->Src.CompileError);
  const Program *Prog = Entry->Src.Prog;

  CampaignOptions CO;
  CO.Threads = Threads;
  CO.Engine = Entry->engineFor(Spec.Engine);
  applySpecOptions(Spec, CO);
  CO.ShardCount = ShardCount;
  CO.ShardIndex = ShardIndex;
  if (ChaosSignal > 0)
    CO.ShardRetiredHook = [ChaosSignal](unsigned, unsigned) {
      // Chaos: die at the shard boundary — the work is complete but no
      // byte of the result has left the process. SIGSEGV goes through
      // the default handler (the signal must look like a real crash).
      ::signal(ChaosSignal, SIG_DFL);
      ::raise(ChaosSignal);
    };

  if (Record) {
    Entry->Ref = std::make_unique<SweepReference>(
        *Prog, theoremConfig(Spec, Stride), CO);
    Entry->RefStride = Stride;
    Entry->RefDigest = Digest;
  }
  CampaignResult R = Entry->Ref->runShard(CO);
  return "{\"ok\": true, \"campaign\": " + campaignJsonLine(R) + "}";
}

} // namespace

bool talft::serve::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Header[2] = {(uint32_t)Payload.size(),
                        support::crc32(Payload)};
  return writeAll(Fd, Header, sizeof(Header)) &&
         writeAll(Fd, Payload.data(), Payload.size());
}

bool talft::serve::readFrame(int Fd, std::string &Payload) {
  uint32_t Header[2];
  if (!readAll(Fd, Header, sizeof(Header)))
    return false;
  if (Header[0] > MaxFrameBytes)
    return false;
  Payload.resize(Header[0]);
  if (!readAll(Fd, Payload.data(), Payload.size()))
    return false;
  return support::crc32(Payload) == Header[1];
}

void talft::serve::runWorkerLoop(int RequestFd, int ResponseFd) {
  std::string Request;
  while (readFrame(RequestFd, Request)) {
    std::string Response = serveShardRequest(Request);
    if (!writeFrame(ResponseFd, Response))
      break; // parent gone
  }
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
