//===- serve/FrontEnd.h - A submission's compile, hash and certification --===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certification server's front end: a submission's source compiled
/// (Wile through the fault-tolerant backend, TAL parsed and laid out
/// verbatim), and what the server derives from the program before any
/// campaign option matters — the program hash that addresses the memo
/// store (isa/ProgramHash.h) and the certification ladder's verdict
/// (analysis/Certify.h). The server and its pool workers compile through
/// the one CompiledSource.
///
/// Compile, hash and certification are functions of the exact
/// (lang, source) bytes, so FrontEndMemo keeps them under those bytes and
/// a resubmitted source skips all three. The key is not the program hash:
/// that covers code, entry, exit and initial state, not the preconditions
/// of non-entry blocks or the data-cell types the type checker reads, so
/// two TAL sources that share a hash can certify differently. Nor is it a
/// 64-bit hash of the source, where a collision would hand one program
/// another's certification.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_FRONTEND_H
#define TALFT_SERVE_FRONTEND_H

#include "wile/Codegen.h"

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace talft::serve {

/// The exact identity of a submission's program: its language and source
/// bytes, which are everything compiling and certifying it read.
std::string sourceKey(const std::string &Lang, const std::string &Source);

/// One submission's program compiled from source, with the TypeContext
/// its types are interned in. Built in place: the engines decoded from
/// the program, and the program itself, point into it.
class CompiledSource {
public:
  CompiledSource(const std::string &Lang, const std::string &Source);
  CompiledSource(const CompiledSource &) = delete;
  CompiledSource &operator=(const CompiledSource &) = delete;

  TypeContext TC;
  /// The program; null when the source does not compile.
  const Program *Prog = nullptr;
  /// The compiler's diagnostic when Prog is null.
  std::string CompileError;

private:
  std::optional<wile::CompiledProgram> Wile;
  std::optional<Program> Tal;
};

/// What the front end decides about one source.
struct FrontEnd {
  /// Non-empty when the source does not compile or its program has no
  /// initial state; the other fields are then unset.
  std::string CompileError;
  /// programContentHash of the program: the identity half of the memo key.
  uint64_t ProgramHash = 0;
  /// The certification ladder's rung (certificationStatusJsonKey).
  std::string Certification;
};

/// Hashes and certifies \p Src.
FrontEnd runFrontEnd(CompiledSource &Src);

struct FrontEndStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Entries = 0;
  uint64_t Capacity = 0;
};

/// A bounded LRU map from sourceKey to the source's FrontEnd, compile
/// errors included. It holds no compiled program, so it costs the server
/// the source bytes alone. Thread-safe.
class FrontEndMemo {
public:
  /// \p Capacity bounds the entry count (>= 1).
  explicit FrontEndMemo(size_t Capacity);

  /// The FrontEnd stored for (\p Lang, \p Source), refreshing its LRU
  /// position, or nullopt. Counts a hit or a miss.
  std::optional<FrontEnd> lookup(const std::string &Lang,
                                 const std::string &Source);

  /// Inserts \p F for (\p Lang, \p Source) as the most recently used
  /// entry and evicts the least recently used ones down to capacity.
  void store(const std::string &Lang, const std::string &Source,
             const FrontEnd &F);

  FrontEndStats stats() const;

private:
  mutable std::mutex Mu;
  size_t Capacity;
  /// LRU order: front = most recent. Index keys view the entries' keys.
  std::list<std::pair<std::string, FrontEnd>> Entries;
  std::unordered_map<std::string_view, decltype(Entries)::iterator> Index;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace talft::serve

#endif // TALFT_SERVE_FRONTEND_H
