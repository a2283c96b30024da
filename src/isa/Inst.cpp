//===- isa/Inst.cpp -------------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "isa/Inst.h"

#include "support/Unreachable.h"

using namespace talft;

const char *talft::opcodeStem(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Ld:
    return "ld";
  case Opcode::St:
    return "st";
  case Opcode::Mov:
    return "mov";
  case Opcode::Bz:
    return "bz";
  case Opcode::Jmp:
    return "jmp";
  }
  talft_unreachable("unknown opcode");
}

Inst Inst::alu(Opcode Op, Reg Rd, Reg Rs, Reg Rt) {
  assert(isAluOpcode(Op) && "alu() requires add/sub/mul");
  assert(Rd.isGeneral() && Rs.isGeneral() && Rt.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs = Rs;
  I.Rt = Rt;
  return I;
}

Inst Inst::aluImm(Opcode Op, Reg Rd, Reg Rs, Value V) {
  assert(isAluOpcode(Op) && "aluImm() requires add/sub/mul");
  assert(Rd.isGeneral() && Rs.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Op;
  I.HasImm = true;
  I.Rd = Rd;
  I.Rs = Rs;
  I.Imm = V;
  return I;
}

Inst Inst::ld(Color C, Reg Rd, Reg Rs) {
  assert(Rd.isGeneral() && Rs.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Opcode::Ld;
  I.C = C;
  I.Rd = Rd;
  I.Rs = Rs;
  return I;
}

Inst Inst::st(Color C, Reg RdAddr, Reg RsVal) {
  assert(RdAddr.isGeneral() && RsVal.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Opcode::St;
  I.C = C;
  I.Rd = RdAddr;
  I.Rs = RsVal;
  return I;
}

Inst Inst::mov(Reg Rd, Value V) {
  assert(Rd.isGeneral() && "instruction operands must be general registers");
  Inst I;
  I.Op = Opcode::Mov;
  I.HasImm = true;
  I.Rd = Rd;
  I.Imm = V;
  return I;
}

Inst Inst::bz(Color C, Reg Rz, Reg RdTarget) {
  assert(Rz.isGeneral() && RdTarget.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Opcode::Bz;
  I.C = C;
  I.Rs = Rz;
  I.Rd = RdTarget;
  return I;
}

Inst Inst::jmp(Color C, Reg RdTarget) {
  assert(RdTarget.isGeneral() &&
         "instruction operands must be general registers");
  Inst I;
  I.Op = Opcode::Jmp;
  I.C = C;
  I.Rd = RdTarget;
  return I;
}

std::string Inst::str() const {
  std::string Out = opcodeStem(Op);
  if (isColored())
    Out += colorLetter(C);
  Out += ' ';
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
    Out += Rd.str() + ", " + Rs.str() + ", ";
    Out += HasImm ? Imm.str() : Rt.str();
    break;
  case Opcode::Ld:
  case Opcode::St:
    Out += Rd.str() + ", " + Rs.str();
    break;
  case Opcode::Mov:
    Out += Rd.str() + ", " + Imm.str();
    break;
  case Opcode::Bz:
    Out += Rs.str() + ", " + Rd.str();
    break;
  case Opcode::Jmp:
    Out += Rd.str();
    break;
  }
  return Out;
}
