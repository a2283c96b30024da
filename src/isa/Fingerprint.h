//===- isa/Fingerprint.h - The 64-bit mixer behind content hashes ---------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bijective 64-bit mixer every content hash in the project is built
/// from: the whole-program hash (isa/ProgramHash.h) and the serve layer's
/// campaign-options digest. Both are memo keys that outlive a process —
/// the disk memo tier and the write-ahead log store them — so the mixer
/// is fixed bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_FINGERPRINT_H
#define TALFT_ISA_FINGERPRINT_H

#include <cstdint>

namespace talft::fp {

/// The splitmix64 finalizer: a cheap bijective 64-bit mixer with good
/// avalanche behavior.
constexpr uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace talft::fp

#endif // TALFT_ISA_FINGERPRINT_H
