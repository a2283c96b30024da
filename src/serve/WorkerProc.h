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
/// shard — the submission spec (serve/Protocol.h submit form) extended
/// with the resolved stride, the shard coordinates and the campaign
/// thread count — and reads back one response frame carrying either the
/// shard's campaign JSON or a structured error. The child is a loop:
/// read frame, compile the program from source as the server's front end
/// does (serve/FrontEnd.h), or reuse the compile of an earlier frame, run
/// exactly that shard of the deterministic task partition
/// (fault/Campaign.h) from the sweep reference the previous shard of the
/// same submission recorded, or from a new one, reply, repeat; EOF on the
/// request pipe is the shutdown signal.
///
/// Crash isolation is the point: the worker shares no mutable state with
/// the server — a segfault, an OOM kill or a runaway shard takes down
/// only this process, and because shards are deterministic index ranges
/// the parent can re-run the same shard on a fresh worker and fold a
/// bit-identical table. Every frame carries a CRC-32 so a worker dying
/// mid-write surfaces as a framing error, never as a half-parsed result.
///
/// Chaos hook: a request may name a signal the worker raises at the
/// shard boundary (after classification completes, before the response
/// frame) — the worst-case crash the retry path must mask. The hook
/// rides CampaignOptions::ShardRetiredHook so the crash lands exactly
/// where a real mid-service fault would.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_WORKERPROC_H
#define TALFT_SERVE_WORKERPROC_H

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace talft::serve {

/// Writes one frame ([u32 length][u32 crc32][payload]) to \p Fd.
/// Returns false on any write failure (EPIPE included).
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one frame from \p Fd into \p Payload. Returns false on EOF,
/// read error, an oversized length prefix or a CRC mismatch — all of
/// which the pool treats as a dead worker. Blocks; the pool bounds the
/// wait by polling \p Fd before calling this.
bool readFrame(int Fd, std::string &Payload);

/// Hard cap on a single frame (requests carry program sources, responses
/// carry campaign JSON; both are far below this).
inline constexpr uint32_t MaxFrameBytes = 64u << 20;

/// The child side: serve shard requests from \p RequestFd, answering on
/// \p ResponseFd, until EOF. Never returns control to the caller's
/// runtime — exits the process via _exit (no atexit handlers, no gtest
/// teardown, no flushing of inherited stdio buffers).
[[noreturn]] void runWorkerLoop(int RequestFd, int ResponseFd);

/// Parent-side handle for one forked worker.
struct WorkerProc {
  pid_t Pid = -1;
  int RequestFd = -1;  ///< Parent writes shard requests here.
  int ResponseFd = -1; ///< Parent reads shard responses here.
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
