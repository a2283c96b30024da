//===- vm/JitEngine.h - The native x86-64 execution tier ------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT engine: lowers the decoded micro-op array to native x86-64 at
/// construction (JitEmitter.h) and drives it behind the unchanged
/// ExecEngine contract. The C++ driver, the engine's one run loop
/// (runContinuation), owns every boundary decision — exit, budget, pc
/// agreement, fetch misses — in the exact order of the vm engine's loop;
/// native code only executes whole instruction runs between boundaries,
/// side-exiting whenever a boundary condition needs attention. That split
/// keeps the engine observationally bit-identical to vm/reference on every
/// state the fault model produces, while loops chain natively at an order
/// of magnitude less dispatch cost.
///
/// On hosts where code pages cannot be mapped (non-x86-64, hardened W^X
/// refusing PROT_EXEC) the engine still answers to name() == "jit" but
/// delegates every call to its embedded vm engine; native() reports the
/// capability so campaign JSON can surface the fallback.
///
/// CFI-checked runs (StepPolicy::Cfi) delegate to the vm engine as well:
/// commit recording is a cross-check path, not a hot path.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_JITENGINE_H
#define TALFT_VM_JITENGINE_H

#include "vm/Engine.h"
#include "vm/JitEmitter.h"

#include <atomic>

namespace talft::vm {

/// The native execution tier. Immutable after construction and safe to
/// share across campaign workers (side-exit counting is relaxed-atomic).
class JitEngine final : public ExecEngine {
public:
  explicit JitEngine(const CodeMemory &Code)
      : Fallback(Code), Jit(emitJitProgram(Fallback.program())) {}

  const char *name() const override { return "jit"; }

  /// True when native code was actually emitted (x86-64 with a usable
  /// W^X mapping); false means every call delegates to the vm engine.
  bool native() const { return Jit != nullptr; }

  /// Micro-ops lowered to native templates (0 under the fallback).
  uint64_t blocksCompiled() const { return Jit ? Jit->blocksCompiled() : 0; }
  /// Emitted code size in bytes (0 under the fallback).
  uint64_t codeBytes() const { return Jit ? Jit->codeBytes() : 0; }
  /// Native-to-driver side-exits taken so far, across all threads.
  uint64_t sideExits() const {
    return SideExits.load(std::memory_order_relaxed);
  }

  const DecodedProgram &program() const { return Fallback.program(); }

  StepResult step(MachineState &S, const StepPolicy &Policy) const override;
  ContinuationResult runContinuation(MachineState &S, Addr ExitAddr,
                                     uint64_t Budget, const StepPolicy &Policy,
                                     const OutputSink &OnOutput) const override;

private:
  struct NativeExit {
    uint64_t Taken = 0;
    bool Fault = false;
  };
  NativeExit enterNative(MachineState &S, const StepPolicy &Policy,
                         Addr ExitAddr, uint64_t Avail,
                         const OutputSink &OnOutput,
                         const uint8_t *Body) const;
  const uint8_t *bodyFor(Addr A) const {
    return Jit->body((size_t)(A - Jit->base()));
  }

  Engine Fallback;
  std::unique_ptr<JitProgram> Jit;
  mutable std::atomic<uint64_t> SideExits{0};
};

/// Factory mirroring vm::createEngine.
std::unique_ptr<ExecEngine> createJitEngine(const CodeMemory &Code);

} // namespace talft::vm

#endif // TALFT_VM_JITENGINE_H
