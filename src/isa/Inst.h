//===- isa/Inst.h - Instruction representation (Figure 1) -----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TALFT instruction set:
///
///   i ::= op rd,rs,rt | op rd,rs,v | ldc rd,rs | stc rd,rs
///       | mov rd,v | bzc rz,rd | jmpc rd            (op ∈ {add,sub,mul})
///
/// Instructions are a flat struct with an opcode discriminator (in the
/// style of a machine IR) rather than a class hierarchy or std::variant:
/// they are small, trivially copyable, and consumed by dense switches in
/// the interpreter and the type checker.
///
/// Operand roles by opcode (only general-purpose registers may appear):
///   Add/Sub/Mul : Rd <- Rs op Rt         (or Rs op Imm when HasImm)
///   Ld c        : Rd <- mem/queue[Rs]
///   St c        : store value Rs at address Rd (green: enqueue; blue:
///                 check against queue back and commit)
///   Mov         : Rd <- Imm
///   Bz c        : test Rs (the paper's rz); branch target register Rd
///   Jmp c       : target register Rd
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_INST_H
#define TALFT_ISA_INST_H

#include "isa/Reg.h"
#include "isa/Value.h"
#include "support/Unreachable.h"

#include <cassert>
#include <string>

namespace talft {

/// Instruction opcodes. Colored opcodes (Ld, St, Bz, Jmp) additionally
/// carry a Color in Inst::C.
enum class Opcode : uint8_t { Add, Sub, Mul, Ld, St, Mov, Bz, Jmp };

/// True for add/sub/mul.
inline bool isAluOpcode(Opcode Op) {
  return Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::Mul;
}

/// Applies an ALU opcode to two integers (wrapping 64-bit arithmetic).
/// Inline: the campaign's differential replay calls it per lane and event.
inline int64_t evalAluOp(Opcode Op, int64_t A, int64_t B) {
  // Arithmetic wraps: machine integers are 64-bit two's complement. Compute
  // in unsigned space so overflow is defined behavior.
  uint64_t UA = (uint64_t)A, UB = (uint64_t)B;
  switch (Op) {
  case Opcode::Add:
    return (int64_t)(UA + UB);
  case Opcode::Sub:
    return (int64_t)(UA - UB);
  case Opcode::Mul:
    return (int64_t)(UA * UB);
  default:
    talft_unreachable("evalAluOp on a non-ALU opcode");
  }
}

/// The mnemonic stem ("add", "ld", ...) without any color suffix.
const char *opcodeStem(Opcode Op);

/// One TALFT machine instruction.
struct Inst {
  Opcode Op = Opcode::Mov;
  /// Color for Ld/St/Bz/Jmp (ignored elsewhere).
  Color C = Color::Green;
  /// True when the second ALU operand is the immediate (op rd,rs,v form).
  bool HasImm = false;
  Reg Rd;
  Reg Rs;
  Reg Rt;
  Value Imm;

  /// \name Factories (assert the operand-kind constraints).
  /// @{
  static Inst alu(Opcode Op, Reg Rd, Reg Rs, Reg Rt);
  static Inst aluImm(Opcode Op, Reg Rd, Reg Rs, Value V);
  static Inst ld(Color C, Reg Rd, Reg Rs);
  static Inst st(Color C, Reg RdAddr, Reg RsVal);
  static Inst mov(Reg Rd, Value V);
  static Inst bz(Color C, Reg Rz, Reg RdTarget);
  static Inst jmp(Color C, Reg RdTarget);
  /// @}

  /// The test register of a Bz instruction (the paper's rz).
  Reg rz() const {
    assert(Op == Opcode::Bz && "rz() on a non-branch");
    return Rs;
  }

  bool isAlu() const { return isAluOpcode(Op); }
  /// True for instructions whose semantics depend on the opcode color.
  bool isColored() const {
    return Op == Opcode::Ld || Op == Opcode::St || Op == Opcode::Bz ||
           Op == Opcode::Jmp;
  }
  /// True for control-flow instructions (Bz, Jmp).
  bool isControlFlow() const { return Op == Opcode::Bz || Op == Opcode::Jmp; }

  bool operator==(const Inst &O) const = default;

  /// Renders in assembly syntax, e.g. "stG r2, r1" or "add r1, r2, G 5".
  std::string str() const;
};

} // namespace talft

#endif // TALFT_ISA_INST_H
