//===- vm/JitEmitter.cpp - Lowering micro-ops to x86-64 -------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "vm/JitEmitter.h"

#include "isa/MachineState.h"
#include "sim/Step.h"

#include <cassert>
#include <cstddef>
#include <cstring>

using namespace talft;
using namespace talft::vm;

// The templates hard-code these frame offsets.
static_assert(offsetof(JitFrame, Cells) == 0);
static_assert(offsetof(JitFrame, Remaining) == 8);
static_assert(offsetof(JitFrame, ExitAddr) == 16);
static_assert(offsetof(JitFrame, Entries) == 24);
// ...and this cell layout (color byte at +0, payload at +8, 16B stride).
static_assert(sizeof(Value) == 16);
static_assert(offsetof(Value, C) == 0);
static_assert(offsetof(Value, N) == 8);
static_assert((uint8_t)Color::Green == 0);

//===----------------------------------------------------------------------===//
// Out-of-line execution helpers (SysV: rdi = frame, esi = packed operands).
// Register writes go through the raw cells, queue/memory mutations through
// the StoreQueue/ValueMemory abstractions. Like the templates, they leave
// the pc cells alone (the exit tail materializes them). Returns 0 = ok,
// 1 = fault (the caller template jumps to the fault epilogue; the driver
// installs the canonical fault state, exactly like execOp's
// `S = faultState()`).
//===----------------------------------------------------------------------===//

extern "C" {

uint64_t talftJitLdG(JitFrame *F, uint64_t Ops) {
  unsigned Rd = Ops & 0xFF, Rs = (Ops >> 8) & 0xFF;
  Value *Cells = F->Cells;
  MachineState &S = *F->S;
  Addr A = Cells[Rs].N;
  int64_t V;
  if (std::optional<int64_t> Pending = S.Queue.find(A))
    V = *Pending;
  else if (std::optional<int64_t> Cell = S.Mem.lookup(A))
    V = *Cell;
  else if (F->Policy->WildLoad == WildLoadPolicy::Trap)
    return JitExitFault;
  else
    V = F->Policy->GarbageValue;
  Cells[Rd] = Value::green(V);
  return JitExitBoundary;
}

uint64_t talftJitLdB(JitFrame *F, uint64_t Ops) {
  unsigned Rd = Ops & 0xFF, Rs = (Ops >> 8) & 0xFF;
  Value *Cells = F->Cells;
  MachineState &S = *F->S;
  Addr A = Cells[Rs].N;
  int64_t V;
  if (std::optional<int64_t> Cell = S.Mem.lookup(A))
    V = *Cell;
  else if (F->Policy->WildLoad == WildLoadPolicy::Trap)
    return JitExitFault;
  else
    V = F->Policy->GarbageValue;
  Cells[Rd] = Value::blue(V);
  return JitExitBoundary;
}

uint64_t talftJitStG(JitFrame *F, uint64_t Ops) {
  unsigned Rd = Ops & 0xFF, Rs = (Ops >> 8) & 0xFF;
  Value *Cells = F->Cells;
  F->S->Queue.pushFront({Cells[Rd].N, Cells[Rs].N});
  return JitExitBoundary;
}

uint64_t talftJitStB(JitFrame *F, uint64_t Ops) {
  unsigned Rd = Ops & 0xFF, Rs = (Ops >> 8) & 0xFF;
  Value *Cells = F->Cells;
  MachineState &S = *F->S;
  if (S.Queue.empty())
    return JitExitFault;
  QueueEntry Back = S.Queue.back();
  if (Cells[Rd].N != Back.Address || Cells[Rs].N != Back.Val)
    return JitExitFault;
  S.Queue.popBack();
  S.Mem.set(Back.Address, Back.Val);
  if (F->Out)
    F->Out(F, Back.Address, Back.Val);
  return JitExitBoundary;
}

} // extern "C"

#if defined(__x86_64__) || defined(_M_X64)

//===----------------------------------------------------------------------===//
// A minimal x86-64 assembler: just the encodings the templates need.
//===----------------------------------------------------------------------===//

namespace {

enum GpReg : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// Condition codes for jcc.
enum Cond : unsigned { CcB = 2, CcAE = 3, CcE = 4, CcNE = 5 };

class Asm {
public:
  std::vector<uint8_t> Code;

  size_t off() const { return Code.size(); }
  void u8(uint8_t B) { Code.push_back(B); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      u8((V >> (8 * I)) & 0xFF);
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      u8((V >> (8 * I)) & 0xFF);
  }

  void rexW(unsigned R, unsigned B) {
    u8(0x48 | ((R >> 3) << 2) | (B >> 3));
  }
  void rexWX(unsigned R, unsigned X, unsigned B) {
    u8(0x48 | ((R >> 3) << 2) | ((X >> 3) << 1) | (B >> 3));
  }
  void rexOpt(unsigned R, unsigned B) {
    if ((R | B) & 8)
      u8(0x40 | ((R >> 3) << 2) | (B >> 3));
  }

  /// mod=11 register form.
  void modRR(unsigned Reg, unsigned Rm) {
    u8(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
  }
  /// [Base + disp32] memory form (SIB when base is rsp/r12).
  void modMem(unsigned Reg, unsigned Base, int32_t Disp) {
    u8(0x80 | ((Reg & 7) << 3) | ((Base & 7) == 4 ? 4 : (Base & 7)));
    if ((Base & 7) == 4)
      u8(0x24);
    u32((uint32_t)Disp);
  }

  void movRR64(unsigned D, unsigned S) { rexW(S, D), u8(0x89), modRR(S, D); }
  void movRM64(unsigned D, unsigned Base, int32_t Disp) {
    rexW(D, Base), u8(0x8B), modMem(D, Base, Disp);
  }
  void movMR64(unsigned Base, int32_t Disp, unsigned S) {
    rexW(S, Base), u8(0x89), modMem(S, Base, Disp);
  }
  void movRI64(unsigned D, uint64_t Imm) {
    rexW(0, D), u8(0xB8 | (D & 7)), u64(Imm);
  }
  void movRI32z(unsigned D, uint32_t Imm) { // 32-bit move, zero-extends
    rexOpt(0, D), u8(0xB8 | (D & 7)), u32(Imm);
  }
  /// mov qword [Base+Disp], imm32 (sign-extended).
  void movMI32s(unsigned Base, int32_t Disp, int32_t Imm) {
    rexW(0, Base), u8(0xC7), modMem(0, Base, Disp), u32((uint32_t)Imm);
  }
  void movM8I(unsigned Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, Base), u8(0xC6), modMem(0, Base, Disp), u8(Imm);
  }
  /// mov byte [Base+Disp], cl.
  void movM8Cl(unsigned Base, int32_t Disp) {
    rexOpt(0, Base), u8(0x88), modMem(RCX, Base, Disp);
  }
  void movzxR32M8(unsigned D, unsigned Base, int32_t Disp) {
    rexOpt(D, Base), u8(0x0F), u8(0xB6), modMem(D, Base, Disp);
  }
  /// mov D, [Base + Index*8 + 0].
  void movRMIndex8(unsigned D, unsigned Base, unsigned Index) {
    rexWX(D, Index, Base);
    u8(0x8B);
    u8(0x40 | ((D & 7) << 3) | 4); // mod=01, rm=SIB, disp8
    u8(0xC0 | ((Index & 7) << 3) | (Base & 7)); // scale=8
    u8(0);
  }

  void addRM64(unsigned D, unsigned Base, int32_t Disp) {
    rexW(D, Base), u8(0x03), modMem(D, Base, Disp);
  }
  void subRM64(unsigned D, unsigned Base, int32_t Disp) {
    rexW(D, Base), u8(0x2B), modMem(D, Base, Disp);
  }
  void imulRM64(unsigned D, unsigned Base, int32_t Disp) {
    rexW(D, Base), u8(0x0F), u8(0xAF), modMem(D, Base, Disp);
  }
  void addRR64(unsigned D, unsigned S) { rexW(S, D), u8(0x01), modRR(S, D); }
  /// add qword [Base+Disp], S.
  void addMR64(unsigned Base, int32_t Disp, unsigned S) {
    rexW(S, Base), u8(0x01), modMem(S, Base, Disp);
  }
  void subRR64(unsigned D, unsigned S) { rexW(S, D), u8(0x29), modRR(S, D); }
  void imulRR64(unsigned D, unsigned S) {
    rexW(D, S), u8(0x0F), u8(0xAF), modRR(D, S);
  }
  void subRI8(unsigned R, int8_t Imm) {
    rexW(0, R), u8(0x83), modRR(5, R), u8((uint8_t)Imm);
  }
  void shrR1(unsigned R) { rexW(0, R), u8(0xD1), modRR(5, R); }
  void subRI32(unsigned R, int32_t Imm) {
    rexW(0, R), u8(0x81), modRR(5, R), u32((uint32_t)Imm);
  }
  void cmpRI32(unsigned R, int32_t Imm) {
    rexW(0, R), u8(0x81), modRR(7, R), u32((uint32_t)Imm);
  }
  /// cmp qword [Base+Disp], imm8.
  void cmpMI8(unsigned Base, int32_t Disp, int8_t Imm) {
    rexW(0, Base), u8(0x83), modMem(7, Base, Disp), u8((uint8_t)Imm);
  }
  void cmpRR64(unsigned A, unsigned B) { rexW(B, A), u8(0x39), modRR(B, A); }
  void testRR64(unsigned A, unsigned B) { rexW(B, A), u8(0x85), modRR(B, A); }
  void testEaxEax() { u8(0x85), u8(0xC0); }
  void xorR32(unsigned D) { rexOpt(D, D), u8(0x31), modRR(D, D); }

  void pushR(unsigned R) { rexOpt(0, R), u8(0x50 | (R & 7)); }
  void popR(unsigned R) { rexOpt(0, R), u8(0x58 | (R & 7)); }
  void ret() { u8(0xC3); }
  void jmpR(unsigned R) { rexOpt(0, R), u8(0xFF), modRR(4, R); }
  void callR(unsigned R) { rexOpt(0, R), u8(0xFF), modRR(2, R); }

  /// jcc to a known (usually backward) offset.
  void jccTo(Cond Cc, size_t Target) {
    u8(0x0F), u8(0x80 | Cc);
    u32((uint32_t)(Target - (off() + 4)));
  }
  /// jmp to a known offset.
  void jmpTo(size_t Target) {
    u8(0xE9);
    u32((uint32_t)(Target - (off() + 4)));
  }
  /// jcc with a forward target; returns the fixup position.
  size_t jccFwd(Cond Cc) {
    u8(0x0F), u8(0x80 | Cc), u32(0);
    return off() - 4;
  }
  void patch(size_t Pos) {
    uint32_t Rel = (uint32_t)(off() - (Pos + 4));
    std::memcpy(&Code[Pos], &Rel, 4);
  }

  void movupsXM(unsigned X, unsigned Base, int32_t Disp) {
    rexOpt(X, Base), u8(0x0F), u8(0x10), modMem(X, Base, Disp);
  }
  void movupsMX(unsigned Base, int32_t Disp, unsigned X) {
    rexOpt(X, Base), u8(0x0F), u8(0x11), modMem(X, Base, Disp);
  }
};

constexpr int32_t cellC(unsigned I) { return (int32_t)(I * 16); }
constexpr int32_t cellN(unsigned I) { return (int32_t)(I * 16 + 8); }
constexpr unsigned DIdx = NumGeneralRegs; // 64
constexpr unsigned PcGIdx = NumGeneralRegs + 1, PcBIdx = NumGeneralRegs + 2;

/// Templates exist for every op whose operands avoid the program counters.
/// Native code keeps the pcs only as a distance in the budget counter and
/// writes them to their cells at the exit tail, so mid-run the pc cells
/// are stale: a template reading a pc would see an old address, and the
/// tail would add its distance on top of a pc a template wrote (which
/// would break the straight-line fall-through besides). Such slots get no
/// native code and the driver steps them on the interpreter, which sees
/// materialized pcs. The TAL parser never produces one (instruction
/// operands are general registers and d), so this costs nothing on real
/// programs.
bool supportedOp(const MicroOp &M) {
  return M.Rd <= DIdx && M.Rs <= DIdx && M.Rt <= DIdx;
}

} // namespace

std::unique_ptr<JitProgram> vm::emitJitProgram(const DecodedProgram &P) {
  if (!ExecMem::supported())
    return nullptr;
  // All address immediates (exit compares, span checks) are imm32.
  if (P.base() < 0 || P.base() + (int64_t)P.span() >= (int64_t)1 << 30)
    return nullptr;

  size_t Span = P.span();
  std::vector<uint8_t> Supported(Span, 0);
  for (size_t I = 0; I != Span; ++I)
    Supported[I] = P.validSlot(I) && supportedOp(P.opAtSlot(I));

  Asm A;
  std::vector<uint32_t> BoundaryOff(Span, UINT32_MAX);
  std::vector<uint32_t> BodyOff(Span, UINT32_MAX);

  // Frame field offsets (see JitFrame).
  constexpr int32_t FrRemaining = 8, FrExit = 16, FrEntries = 24;

  // --- Enter(frame=rdi, target=rsi): spill-free context switch. r14
  // holds the budget at the last absolute pc write: on entry that is the
  // budget before the driver's pre-claim of the entry instruction.
  A.pushR(RBP), A.pushR(RBX), A.pushR(R12), A.pushR(R13), A.pushR(R14),
      A.pushR(R15);
  A.subRI8(RSP, 8); // 16-byte call alignment for the helper calls
  A.movRR64(R12, RDI);
  A.movRM64(RBX, R12, 0 /*Cells*/);
  A.movRM64(R13, R12, FrRemaining);
  A.movRR64(R14, R13);
  A.subRI8(R14, -2); // add r14, 2
  A.movRM64(R15, R12, FrExit);
  A.movRM64(RBP, R12, FrEntries);
  A.jmpR(RSI);

  // --- Shared epilogues. eax = exit reason; the fault stub falls through
  // into the store-back tail, the boundary stubs jump to it.
  size_t EpiFault = A.off();
  A.movRI32z(RAX, (uint32_t)JitExitFault);
  size_t Tail = A.off();
  A.movMR64(R12, FrRemaining, R13);
  A.subRI8(RSP, -8); // add rsp, 8
  A.popR(R15), A.popR(R14), A.popR(R13), A.popR(R12), A.popR(RBX),
      A.popR(RBP);
  A.ret();
  // A failed budget claim gives its two steps back, then exits at the
  // boundary like the others.
  size_t EpiBudget = A.off();
  A.subRI8(R13, -2); // add r13, 2
  // Every instruction since the last absolute pc write advanced both pcs
  // by one and claimed two budget steps, so the pcs are that write plus
  // (r14 - r13) / 2. Fault exits skip this: the driver installs the
  // canonical fault state.
  size_t Epi = A.off();
  A.movRR64(RAX, R14);
  A.subRR64(RAX, R13);
  A.shrR1(RAX);
  A.addMR64(RBX, cellN(PcGIdx), RAX);
  A.addMR64(RBX, cellN(PcBIdx), RAX);
  A.xorR32(RAX);
  A.jmpTo(Tail);

  auto emitHelperCall = [&](uint64_t Fn, const MicroOp &M) {
    A.movRR64(RDI, R12);
    A.movRI32z(RSI, (uint32_t)M.Rd | ((uint32_t)M.Rs << 8));
    A.movRI64(RAX, Fn);
    A.callR(RAX);
  };
  // Commits chain through the entry table; target payload is in rcx.
  auto emitChain = [&] {
    A.movRR64(RDX, RCX);
    if (P.base() != 0)
      A.subRI32(RDX, (int32_t)P.base());
    A.cmpRI32(RDX, (int32_t)Span);
    A.jccTo(CcAE, Epi); // off-span target: the driver sorts it out
    A.movRMIndex8(RDX, RBP, RDX);
    A.testRR64(RDX, RDX);
    A.jccTo(CcE, Epi); // hole / unsupported target
    A.jmpR(RDX);
  };
  // pcG <- d's cell, pcB <- rd's cell, d <- G 0 (cells read before any
  // write, exactly execOp's read-then-commit order), then chain. The
  // absolute pc write rebases r14. Leaves the target payload in rcx.
  auto emitCommit = [&](const MicroOp &M) {
    A.movupsXM(0, RBX, cellC(DIdx));
    A.movupsXM(1, RBX, cellC(M.Rd));
    A.movupsMX(RBX, cellC(PcGIdx), 0);
    A.movupsMX(RBX, cellC(PcBIdx), 1);
    A.movM8I(RBX, cellC(DIdx), (uint8_t)Color::Green);
    A.movMI32s(RBX, cellN(DIdx), 0);
    A.movRR64(R14, R13);
    emitChain();
  };

  for (size_t Slot = 0; Slot != Span; ++Slot) {
    if (!Supported[Slot])
      continue;
    const MicroOp &M = P.opAtSlot(Slot);
    int32_t Addr32 = (int32_t)(P.base() + (int64_t)Slot);

    // Boundary: exit address (held in r15), then the budget, claimed and
    // checked in one subtraction — either hit side-exits; the driver
    // re-runs the loop's boundary ordering.
    BoundaryOff[Slot] = (uint32_t)A.off();
    A.cmpRI32(R15, Addr32);
    A.jccTo(CcE, Epi);
    A.subRI8(R13, 2);
    A.jccTo(CcB, EpiBudget);

    BodyOff[Slot] = (uint32_t)A.off();
    bool FallsThrough = true;
    switch (M.Kind) {
    case MicroOpKind::AddRR:
    case MicroOpKind::SubRR:
    case MicroOpKind::MulRR:
      A.movRM64(RAX, RBX, cellN(M.Rs));
      A.movzxR32M8(RCX, RBX, cellC(M.Rt));
      if (M.Kind == MicroOpKind::AddRR)
        A.addRM64(RAX, RBX, cellN(M.Rt));
      else if (M.Kind == MicroOpKind::SubRR)
        A.subRM64(RAX, RBX, cellN(M.Rt));
      else
        A.imulRM64(RAX, RBX, cellN(M.Rt));
      A.movMR64(RBX, cellN(M.Rd), RAX);
      A.movM8Cl(RBX, cellC(M.Rd));
      break;
    case MicroOpKind::AddRI:
    case MicroOpKind::SubRI:
    case MicroOpKind::MulRI:
      A.movRM64(RAX, RBX, cellN(M.Rs));
      A.movRI64(RCX, (uint64_t)M.ImmN);
      if (M.Kind == MicroOpKind::AddRI)
        A.addRR64(RAX, RCX);
      else if (M.Kind == MicroOpKind::SubRI)
        A.subRR64(RAX, RCX);
      else
        A.imulRR64(RAX, RCX);
      A.movMR64(RBX, cellN(M.Rd), RAX);
      A.movM8I(RBX, cellC(M.Rd), (uint8_t)M.ImmC);
      break;
    case MicroOpKind::Mov:
      A.movRI64(RAX, (uint64_t)M.ImmN);
      A.movMR64(RBX, cellN(M.Rd), RAX);
      A.movM8I(RBX, cellC(M.Rd), (uint8_t)M.ImmC);
      break;
    case MicroOpKind::LdG:
    case MicroOpKind::LdB:
      emitHelperCall((uint64_t)(M.Kind == MicroOpKind::LdG
                                    ? (uintptr_t)&talftJitLdG
                                    : (uintptr_t)&talftJitLdB),
                     M);
      A.testEaxEax();
      A.jccTo(CcNE, EpiFault);
      break;
    case MicroOpKind::StG:
      emitHelperCall((uint64_t)(uintptr_t)&talftJitStG, M);
      break;
    case MicroOpKind::StB:
      emitHelperCall((uint64_t)(uintptr_t)&talftJitStB, M);
      A.testEaxEax();
      A.jccTo(CcNE, EpiFault);
      break;
    case MicroOpKind::JmpG:
      A.cmpMI8(RBX, cellN(DIdx), 0);
      A.jccTo(CcNE, EpiFault);
      A.movupsXM(0, RBX, cellC(M.Rd));
      A.movupsMX(RBX, cellC(DIdx), 0);
      break;
    case MicroOpKind::BzG: {
      // d must be 0 on both arms; the taken arm additionally arms d with
      // rd's cell.
      A.cmpMI8(RBX, cellN(DIdx), 0);
      A.jccTo(CcNE, EpiFault);
      A.movRM64(RAX, RBX, cellN(M.Rs));
      A.movupsXM(0, RBX, cellC(M.Rd));
      A.testRR64(RAX, RAX);
      size_t Skip = A.jccFwd(CcNE);
      A.movupsMX(RBX, cellC(DIdx), 0);
      A.patch(Skip);
      break;
    }
    case MicroOpKind::JmpB:
      A.movRM64(RCX, RBX, cellN(DIdx));
      A.testRR64(RCX, RCX);
      A.jccTo(CcE, EpiFault);
      A.movRM64(RAX, RBX, cellN(M.Rd));
      A.cmpRR64(RAX, RCX);
      A.jccTo(CcNE, EpiFault);
      emitCommit(M);
      FallsThrough = false;
      break;
    case MicroOpKind::BzB: {
      A.movRM64(RAX, RBX, cellN(M.Rs));
      A.movRM64(RCX, RBX, cellN(DIdx));
      A.testRR64(RAX, RAX);
      size_t Untaken = A.jccFwd(CcNE);
      A.testRR64(RCX, RCX);
      A.jccTo(CcE, EpiFault);
      A.movRM64(RAX, RBX, cellN(M.Rd));
      A.cmpRR64(RAX, RCX);
      A.jccTo(CcNE, EpiFault);
      emitCommit(M); // never falls through
      A.patch(Untaken);
      A.testRR64(RCX, RCX);
      A.jccTo(CcNE, EpiFault);
      break;
    }
    }

    // Fall through into the next slot's boundary code when it is
    // physically next; otherwise return to the driver.
    if (FallsThrough && !(Slot + 1 < Span && Supported[Slot + 1]))
      A.jmpTo(Epi);
  }

  auto JP = std::unique_ptr<JitProgram>(new JitProgram());
  if (!JP->Mem.allocate(A.Code.size()) ||
      !JP->Mem.write(0, A.Code.data(), A.Code.size()) || !JP->Mem.finalize())
    return nullptr;

  const uint8_t *Base = JP->Mem.base();
  JP->Enter = (JitProgram::EnterFn)(uintptr_t)Base;
  JP->Boundary.resize(Span, nullptr);
  JP->Body.resize(Span, nullptr);
  for (size_t I = 0; I != Span; ++I) {
    if (BoundaryOff[I] != UINT32_MAX)
      JP->Boundary[I] = Base + BoundaryOff[I];
    if (BodyOff[I] != UINT32_MAX) {
      JP->Body[I] = Base + BodyOff[I];
      ++JP->Blocks;
    }
  }
  JP->ProgBase = P.base();
  JP->Bytes = A.Code.size();
  return JP;
}

#else // !x86-64

std::unique_ptr<JitProgram> vm::emitJitProgram(const DecodedProgram &) {
  return nullptr;
}

#endif
