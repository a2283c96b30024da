//===- isa/MachineState.h - Abstract machine states S (Figure 1) ----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An abstract machine state S is either the distinguished `fault` state —
/// the hardware has *detected* a transient fault — or an ordinary state
/// (R, C, M, Q, ir) where ir is the instruction register: either a fetched
/// instruction awaiting execution, or empty (the paper's ·), meaning the
/// next step is a fetch.
///
/// Code memory is referenced, not owned: it is immutable during execution
/// and shared by the many states materialized by the fault enumerator.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_MACHINESTATE_H
#define TALFT_ISA_MACHINESTATE_H

#include "isa/Memory.h"
#include "isa/RegisterFile.h"
#include "isa/StoreQueue.h"

#include <optional>

namespace talft {

/// An ordinary (non-fault) machine state, plus a flag representing the
/// distinguished `fault` state.
struct MachineState {
  RegisterFile Regs;
  const CodeMemory *Code = nullptr;
  ValueMemory Mem;
  StoreQueue Queue;
  /// The instruction register ir: a fetched instruction, or empty (·).
  std::optional<Inst> IR;
  /// True for the terminal `fault` state (hardware-detected fault). The
  /// other fields are meaningless when set.
  bool Faulted = false;

  MachineState() = default;
  MachineState(const CodeMemory &Code, Addr Entry)
      : Regs(Entry), Code(&Code) {}

  /// Builds the distinguished fault state.
  static MachineState faultState() {
    MachineState S;
    S.Faulted = true;
    return S;
  }

  bool isFault() const { return Faulted; }

  /// Both program counters as colored values.
  Value pcG() const { return Regs.get(Reg::pcG()); }
  Value pcB() const { return Regs.get(Reg::pcB()); }

  /// Full structural equality (code memory by identity — campaign states
  /// share one immutable CodeMemory).
  bool operator==(const MachineState &O) const = default;
};

} // namespace talft

#endif // TALFT_ISA_MACHINESTATE_H
