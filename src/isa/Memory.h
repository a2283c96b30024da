//===- isa/Memory.h - Code and value memories (Figure 1) ------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code memory C maps integer addresses to instructions; value memory M
/// maps addresses to integers. Both are inside the protected sphere (the
/// fault model never corrupts them; error-correcting codes make this cheap
/// in practice). Address 0 is never a valid code address — the destination
/// register uses 0 as its "no pending transfer" sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_MEMORY_H
#define TALFT_ISA_MEMORY_H

#include "isa/Inst.h"
#include "isa/Value.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <vector>

namespace talft {

/// Code memory C: a partial map from addresses to instructions. Immutable
/// during execution (the fault model does not corrupt instructions).
class CodeMemory {
public:
  /// Places instruction \p I at address \p A (must be nonzero and unused).
  void set(Addr A, Inst I) {
    assert(A != 0 && "address 0 is not a valid code address");
    assert(!Insts.count(A) && "code address defined twice");
    Insts.emplace(A, I);
  }

  bool contains(Addr A) const { return Insts.count(A) != 0; }

  /// C(n). Requires contains(n).
  const Inst &get(Addr A) const {
    auto It = Insts.find(A);
    assert(It != Insts.end() && "fetch from an undefined code address");
    return It->second;
  }

  size_t size() const { return Insts.size(); }
  auto begin() const { return Insts.begin(); }
  auto end() const { return Insts.end(); }

private:
  std::map<Addr, Inst> Insts;
};

/// Value memory M: a partial map from addresses to integers. Loads from
/// addresses outside Dom(M) are "wild" (see the ldG-fail / ldG-rand rules).
///
/// Stored as a flat sorted vector: memories are tiny (a handful of data
/// cells), sit on the load/store hot path of both engines, and are copied
/// into every campaign snapshot — contiguous storage makes both the binary
/// search and the copy cheap. Iteration yields (address, value) pairs in
/// ascending address order, exactly like the std::map it replaced.
class ValueMemory {
public:
  /// Defines (or overwrites) location \p A.
  void set(Addr A, int64_t V) {
    auto It = find(A);
    if (It != Cells.end() && It->first == A) {
      It->second = V;
      return;
    }
    Cells.insert(It, {A, V});
  }

  bool contains(Addr A) const {
    auto It = find(A);
    return It != Cells.end() && It->first == A;
  }

  /// M(n). Requires contains(n).
  int64_t get(Addr A) const {
    auto It = find(A);
    assert(It != Cells.end() && It->first == A &&
           "load from an undefined memory address");
    return It->second;
  }

  /// M(n) if defined.
  std::optional<int64_t> lookup(Addr A) const {
    auto It = find(A);
    if (It == Cells.end() || It->first != A)
      return std::nullopt;
    return It->second;
  }

  size_t size() const { return Cells.size(); }
  auto begin() const { return Cells.begin(); }
  auto end() const { return Cells.end(); }

  bool operator==(const ValueMemory &O) const = default;

private:
  std::vector<std::pair<Addr, int64_t>>::const_iterator find(Addr A) const {
    return std::lower_bound(
        Cells.begin(), Cells.end(), A,
        [](const std::pair<Addr, int64_t> &C, Addr A) { return C.first < A; });
  }
  std::vector<std::pair<Addr, int64_t>>::iterator find(Addr A) {
    return std::lower_bound(
        Cells.begin(), Cells.end(), A,
        [](const std::pair<Addr, int64_t> &C, Addr A) { return C.first < A; });
  }

  /// Sorted by address, unique.
  std::vector<std::pair<Addr, int64_t>> Cells;
};

} // namespace talft

#endif // TALFT_ISA_MEMORY_H
