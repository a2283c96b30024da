//===- serve/WorkerProc.h - One crash-isolated shard worker process -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One forked worker process of the certification server's shard pool
/// (serve/WorkerPool.h), plus the length-prefixed, CRC-framed pipe
/// protocol both sides speak. The parent writes one request frame per
/// stream: the submission spec (serve/Protocol.h submit form) extended
/// with the resolved stride, the campaign thread count and the shard
/// range [first_shard, shard_count). The worker answers with one frame
/// per shard of the range, in index order, each written as soon as its
/// shard finishes and carrying that shard's campaign JSON; or with a
/// single frame carrying a structured error, which ends the stream.
///
/// The child is a loop: read a request frame; compile the program from
/// source as the server's front end does (serve/FrontEnd.h), or reuse the
/// compile of an earlier request; record the sweep reference
/// (fault/Campaign.h) once; run the range's shards of the deterministic
/// task partition from it, writing each shard's frame as it retires;
/// repeat. The reference lives for exactly one request. EOF on the
/// request pipe is the shutdown signal.
///
/// Crash isolation is the point: the worker shares no mutable state with
/// the server — a segfault, an OOM kill or a runaway shard takes down
/// only this process, and because shards are deterministic index ranges
/// the parent can re-run the undelivered shards on a fresh worker and
/// fold a bit-identical table. Every frame carries a CRC-32 so a worker
/// dying mid-write surfaces as a framing error, never as a half-parsed
/// result, and every shard frame names its shard, so a frame the parent
/// does not expect next is a lying worker, never a folded shard.
///
/// Chaos hook: a request may name a shard of its range and a signal the
/// worker raises at that shard's boundary (after classification
/// completes, before the shard's frame) — the worst-case crash the retry
/// path must mask. The hook rides CampaignOptions::ShardRetiredHook so
/// the crash lands exactly where a real mid-service fault would.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_WORKERPROC_H
#define TALFT_SERVE_WORKERPROC_H

#include "fault/Campaign.h"

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace talft::serve {

/// Writes one frame ([u32 length][u32 crc32][payload]) to \p Fd, header
/// and payload in one writev. Returns false on any write failure (EPIPE
/// included).
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one frame from \p Fd into \p Payload. Returns false on EOF,
/// read error, an oversized length prefix or a CRC mismatch. Blocks; the
/// parent reads through readStreamFrame, which bounds the wait.
bool readFrame(int Fd, std::string &Payload);

/// Hard cap on a single frame (requests carry program sources, responses
/// carry campaign JSON; both are far below this).
inline constexpr uint32_t MaxFrameBytes = 64u << 20;

/// One frame of a shard stream, as the parent decodes it.
struct StreamFrame {
  enum class Kind {
    Shard,   ///< the expected shard's result, in Result
    Error,   ///< a structured worker error (Code, Error); the stream ends
    Dead,    ///< EOF, a torn, oversized or CRC-failing frame, or a
             ///< payload that is not the expected shard: the worker is
             ///< dead or lying
    Timeout, ///< the frame did not arrive in full within the wait
  };
  Kind K = Kind::Dead;
  CampaignResult Result;
  std::string Code, Error;
};

/// Waits at most \p TimeoutMs (0 = forever) for the next frame of a
/// stream on \p Fd and decodes it, expecting shard \p Index of \p Count.
StreamFrame readStreamFrame(int Fd, uint64_t TimeoutMs, unsigned Index,
                            unsigned Count);

/// The child side: serve stream requests from \p RequestFd, answering on
/// \p ResponseFd, until EOF. Never returns control to the caller's
/// runtime — exits the process via _exit (no atexit handlers, no gtest
/// teardown, no flushing of inherited stdio buffers).
[[noreturn]] void runWorkerLoop(int RequestFd, int ResponseFd);

/// Parent-side handle for one forked worker.
struct WorkerProc {
  pid_t Pid = -1;
  int RequestFd = -1;  ///< Parent writes stream requests here.
  int ResponseFd = -1; ///< Parent reads shard frames here.
  uint64_t ShardsServed = 0;

  bool alive() const { return Pid > 0; }
};

/// Forks a worker (closing every inherited descriptor in the child except
/// its two pipe ends and stderr) and fills \p Out. Returns false with
/// \p Err set on pipe/fork failure.
bool spawnWorker(WorkerProc &Out, std::string *Err);

/// Kills \p W with SIGKILL if still running, reaps the zombie, and closes
/// the parent's pipe ends. Safe to call on an already-dead handle.
void destroyWorker(WorkerProc &W);

} // namespace talft::serve

#endif // TALFT_SERVE_WORKERPROC_H
