//===- isa/StoreQueue.h - The store queue Q (Figure 1) --------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store queue Q sits between the processor and value memory and is the
/// hardware half of the paired-store protocol: a green store stG pushes an
/// (address, value) pair onto the *front* of the queue; the matching blue
/// store stB pops the pair at the *back*, compares it against its own
/// operands, and commits it to memory only if they agree. A disagreement is
/// a detected fault.
///
/// The function find(Q, n) (used by ldG to let the green computation read
/// its own pending stores) returns the first pair with address n scanning
/// from the front, i.e. the most recently enqueued store to n wins.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_STOREQUEUE_H
#define TALFT_ISA_STOREQUEUE_H

#include "isa/Value.h"

#include <cassert>
#include <deque>
#include <optional>
#include <utility>

namespace talft {

/// An (address, value) pair awaiting commit.
struct QueueEntry {
  Addr Address = 0;
  int64_t Val = 0;

  bool operator==(const QueueEntry &O) const = default;
};

/// The hardware store queue.
class StoreQueue {
public:
  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  /// stG: pushes onto the front.
  void pushFront(QueueEntry E) { Entries.push_front(E); }

  /// The pair the next stB will check (the back). Requires !empty().
  const QueueEntry &back() const {
    assert(!empty() && "back() on an empty store queue");
    return Entries.back();
  }

  /// Removes the back entry. Requires !empty().
  void popBack() {
    assert(!empty() && "popBack() on an empty store queue");
    Entries.pop_back();
  }

  /// find(Q, n): the value of the first pair with address \p A scanning
  /// from the front, or nullopt if no pair has that address.
  std::optional<int64_t> find(Addr A) const {
    for (const QueueEntry &E : Entries)
      if (E.Address == A)
        return E.Val;
    return std::nullopt;
  }

  /// Indexed access from the front (0 = most recent), used by the fault
  /// model's Q-zap rules and by queue typing.
  const QueueEntry &entry(size_t I) const {
    assert(I < Entries.size() && "queue index out of range");
    return Entries[I];
  }

  /// In-place replacement of entry \p I (indexed from the front), the
  /// mutation the Q-zap fault rules perform.
  void setEntry(size_t I, QueueEntry E) {
    assert(I < Entries.size() && "queue index out of range");
    Entries[I] = E;
  }

  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

  bool operator==(const StoreQueue &O) const = default;

private:
  std::deque<QueueEntry> Entries;
};

} // namespace talft

#endif // TALFT_ISA_STOREQUEUE_H
