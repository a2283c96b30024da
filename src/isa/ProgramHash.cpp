//===- isa/ProgramHash.cpp - Whole-program content hash -------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramHash.h"

#include "isa/Fingerprint.h"
#include "isa/MachineState.h"
#include "isa/Memory.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace talft;

namespace {

// The from-scratch state hash folded into the program hash. These
// constants and the chain below are frozen: program hashes key the serve
// layer's memo entries, its disk tier and its write-ahead log, so any
// change here would orphan every persisted entry.

/// Domain-separation salts so a register cell, a memory cell and a queue
/// entry holding the same integers never share a hash by construction.
constexpr uint64_t RegDomain = 0x517cc1b727220a95ull;
constexpr uint64_t MemDomain = 0x2b2f159e1ad6f4dbull;
constexpr uint64_t QueueDomain = 0x9ae16a3b2f90404full;
constexpr uint64_t IrDomain = 0xc2b2ae3d27d4eb4full;
/// Odd polynomial base weighting store-queue entries by position.
constexpr uint64_t QueueBase = 0x2545f4914f6cdd1dull;

/// Hash of a colored value in register slot \p DenseIdx.
uint64_t regCell(unsigned DenseIdx, const Value &V) {
  return fp::mix(fp::mix(RegDomain + DenseIdx) ^ fp::mix((uint64_t)V.N) ^
                 (V.C == Color::Blue ? 0x94d049bb133111ebull : 0));
}

/// Hash of an (address, value) pair in the given domain.
uint64_t cell(uint64_t Domain, Addr A, int64_t V) {
  return fp::mix(fp::mix(Domain + (uint64_t)A) ^ fp::mix((uint64_t)V));
}

/// Hash of an instruction, in code memory or the instruction register.
uint64_t instHash(const Inst &I) {
  uint64_t H = fp::mix(IrDomain + (uint64_t)I.Op);
  H = fp::mix(H ^ ((uint64_t)(I.C == Color::Blue) | ((uint64_t)I.HasImm << 1)));
  H = fp::mix(H ^ (uint64_t)I.Rd.denseIndex());
  H = fp::mix(H ^ (uint64_t)I.Rs.denseIndex());
  H = fp::mix(H ^ (uint64_t)I.Rt.denseIndex());
  H = fp::mix(H ^ fp::mix((uint64_t)I.Imm.N) ^
              (I.Imm.C == Color::Blue ? 0xbf58476d1ce4e5b9ull : 0));
  return H;
}

/// Hash of a whole machine state: registers and value memory as XORs of
/// per-cell words, the store queue as a polynomial in QueueBase (front
/// entry highest degree), chained asymmetrically with the instruction
/// register so swapped or cancelling components change the result.
uint64_t stateHash(const MachineState &S) {
  if (S.Faulted)
    return fp::mix(0xdeadfa0317ull);
  uint64_t Regs = 0;
  for (unsigned I = 0; I != Reg::NumRegs; ++I)
    Regs ^= regCell(I, S.Regs.get(Reg::fromDenseIndex(I)));
  uint64_t Mem = 0;
  for (const auto &[A, V] : S.Mem)
    Mem ^= cell(MemDomain, A, V);
  uint64_t Queue = 0;
  for (const QueueEntry &E : S.Queue)
    Queue = Queue * QueueBase + cell(QueueDomain, E.Address, E.Val);
  uint64_t F = fp::mix(Regs + 0x6a09e667f3bcc909ull);
  F = fp::mix(F ^ Mem);
  F = fp::mix(F ^ Queue);
  return F ^ (S.IR ? instHash(*S.IR) : fp::mix(IrDomain));
}

} // namespace

uint64_t talft::programContentHash(const CodeMemory &Code, Addr Entry,
                                   Addr Exit, const MachineState &Initial) {
  // A distinct domain constant so a program hash can never collide with a
  // bare state hash of the same components by construction.
  uint64_t H = fp::mix(0x70726f6768617368ull); // "proghash"
  for (const auto &[A, I] : Code) {
    H = fp::mix(H ^ fp::mix((uint64_t)A));
    H = fp::mix(H ^ instHash(I));
  }
  H = fp::mix(H ^ fp::mix((uint64_t)Entry));
  H = fp::mix(H ^ fp::mix((uint64_t)Exit));
  return fp::mix(H ^ stateHash(Initial));
}

std::string talft::programHashString(uint64_t Hash) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx", (unsigned long long)Hash);
  return Buf;
}

bool talft::parseProgramHash(const std::string &Text, uint64_t &Hash) {
  const char *S = Text.c_str();
  if (Text.size() >= 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X'))
    S += 2;
  if (*S == '\0' || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(S, &End, 16);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Hash = N;
  return true;
}
