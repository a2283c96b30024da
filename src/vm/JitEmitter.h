//===- vm/JitEmitter.h - Lowering micro-ops to x86-64 ---------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a DecodedProgram to straight-line x86-64 templates, one per
/// micro-op, specialized by opcode x color x immediate form exactly like
/// Decode.cpp's lowering. The emitted code executes whole instruction runs
/// between *fetch boundaries* without leaving native code:
///
///   - the register bank stays spilled in the MachineState's dense cell
///     array (rbx points at cell 0; cell i's color byte is at i*16 and its
///     payload at i*16+8), so states remain bit-compatible with every
///     other engine and a side-exit needs no register reconstruction;
///   - every boundary re-checks, in order, the exit address and the 2-step
///     budget, side-exiting to the C++ driver whenever either needs
///     attention (the driver re-evaluates the full per-mode boundary
///     contract, so run / replaySteps / runContinuation ordering semantics
///     live in exactly one place);
///   - jmpB / taken bzB commits chain directly to the target's boundary
///     code through an entry table (rbp), keeping loops native;
///   - loads and stores call out to C++ helpers that reuse the store
///     queue and memory abstractions.
///
/// Faults side-exit with a distinct reason; the driver then installs the
/// canonical fault state, so no template ever needs to build one.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_JITEMITTER_H
#define TALFT_VM_JITEMITTER_H

#include "support/ExecMem.h"
#include "vm/Decode.h"

#include <memory>
#include <vector>

namespace talft {
struct MachineState;
struct StepPolicy;
} // namespace talft

namespace talft::vm {

/// The spilled execution context shared between the driver and emitted
/// code. Field offsets are part of the emitter ABI (asserted in the
/// implementation); the emitted prologue pins Cells in rbx, this frame in
/// r12, Remaining in r13 and Entries in rbp.
struct JitFrame {
  /// The state's dense register cells (RegisterFile::rawCells()).
  Value *Cells = nullptr;
  /// Remaining step budget, *after* the driver pre-claims the entry
  /// instruction's two transitions. Written back on exit.
  uint64_t Remaining = 0;
  /// Exit block address (0 = none; code addresses are never 0).
  int64_t ExitAddr = 0;
  /// Boundary-entry table indexed by dense slot; null = no native code.
  const uint8_t *const *Entries = nullptr;
  /// The state being executed (helpers reach its queue and memory).
  MachineState *S = nullptr;
  const StepPolicy *Policy = nullptr;
  /// Output sink for committed stores (stB); may be null.
  void (*Out)(JitFrame *F, int64_t Address, int64_t Val) = nullptr;
  void *OutCtx = nullptr;
};

/// Why emitted code returned to the driver.
enum : uint64_t {
  JitExitBoundary = 0, ///< at a clean fetch boundary (exit/budget/chain miss)
  JitExitFault = 1,    ///< an execution rule faulted; driver installs faultState
};

/// The native image of one DecodedProgram: W^X code plus the per-slot
/// entry tables. Immutable after emission and shared read-only across
/// campaign workers (all mutable execution state lives in the JitFrame).
class JitProgram {
public:
  using EnterFn = uint64_t (*)(JitFrame *, const void *Target);

  /// Runs native code starting at \p Body until a side-exit; returns a
  /// JitExit* reason. The caller owns boundary checks and the 2-step
  /// pre-claim for the entry instruction.
  uint64_t enter(JitFrame *F, const uint8_t *Body) const {
    return Enter(F, Body);
  }

  /// Body entry for dense slot \p I (boundary checks skipped); null when
  /// the slot has no native code.
  const uint8_t *body(size_t Slot) const { return Body[Slot]; }

  /// The boundary-entry table for JitFrame::Entries.
  const uint8_t *const *entryTable() const { return Boundary.data(); }

  Addr base() const { return ProgBase; }
  size_t span() const { return Boundary.size(); }

  /// Number of micro-ops lowered to native templates.
  uint64_t blocksCompiled() const { return Blocks; }
  /// Bytes of emitted machine code (before page rounding).
  uint64_t codeBytes() const { return Bytes; }

private:
  friend std::unique_ptr<JitProgram> emitJitProgram(const DecodedProgram &P);

  ExecMem Mem;
  EnterFn Enter = nullptr;
  std::vector<const uint8_t *> Boundary;
  std::vector<const uint8_t *> Body;
  Addr ProgBase = 0;
  uint64_t Blocks = 0;
  uint64_t Bytes = 0;
};

/// Emits native code for \p P. Returns null when the host cannot execute
/// JIT code (non-x86-64, W^X mapping refused) or the program's address
/// range does not fit the emitter's immediates; callers then stay on the
/// interpreter tier.
std::unique_ptr<JitProgram> emitJitProgram(const DecodedProgram &P);

} // namespace talft::vm

#endif // TALFT_VM_JITEMITTER_H
