//===- fault/CampaignFields.h - The campaign result's field table ---------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every field of a CampaignResult in one table. A row names the field's
/// JSON object and key, how shard results fold it, which class of
/// comparisons it joins, an accessor and how the value is written.
/// foldShardResult, campaignToJson, serve::campaignFromJson and
/// campaignDiff all walk the table, so a new counter costs its struct
/// member and one row.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_FAULT_CAMPAIGNFIELDS_H
#define TALFT_FAULT_CAMPAIGNFIELDS_H

#include "fault/Campaign.h"

#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace talft {

/// How foldShardResult combines the accumulator's value with the next
/// shard's: Sum; SaturatingSum, whose verdict counts stop at UINT64_MAX
/// instead of wrapping; Max; Min; Or; And; First, the first non-zero or
/// non-empty value; Concat, appended in shard order and capped at the
/// fold's MaxViolations; Shards, which counts the results folded, an
/// unfolded one (0) as one; Rate, recomputed as stats.tasks per folded
/// wall second; and None for a field derived on output.
enum class FoldRule : uint8_t {
  Sum, SaturatingSum, Max, Min, Or, And, First, Concat, Shards, Rate, None
};

/// What a field records, and so which comparisons it joins. The values
/// are bits: campaignDiff takes a mask of them.
struct FieldClass {
  enum Bits : unsigned {
    /// The certification itself: equal across engines, accelerators
    /// (convergence, lane groups), thread counts and shard folds.
    Outcome = 1u << 0,
    /// How the classifier reached the outcome: varies with the engine and
    /// the accelerators, equal across thread counts and shard folds.
    Strategy = 1u << 1,
    /// A strategy count that a shard boundary changes: lane groups form
    /// per pool of one resume step, a boundary splits the pool it falls
    /// in, and the JIT's side exits move with it.
    ShardStrategy = 1u << 2,
    /// The engine, the worker count and the slice of the task list that
    /// produced the result.
    Provenance = 1u << 3,
    /// Wall-clock seconds; never compared.
    Timing = 1u << 4,
    /// Written only, derived from other fields on output.
    Derived = 1u << 5,
    /// The classes a shard fold reproduces: a fold equals its unsharded
    /// campaign on these.
    ShardInvariant = Outcome | Strategy,
  };
};

/// How a value is written. Plain is the type's natural form: true/false,
/// decimal integers, quoted strings, a string array, or the verdict
/// object keyed by verdictJsonKey. Hash writes a 64-bit hash as a quoted
/// "0x%016llx" string; FixedN writes a double with N decimals. An
/// Unwritten field stays in memory, so a result read back from JSON lacks
/// it.
enum class FieldFormat : uint8_t {
  Plain, Hash, Fixed1, Fixed2, Fixed6, Unwritten
};

/// A field of a result: a pointer to a stored member, or the value of a
/// derived one.
using FieldRef =
    std::variant<bool *, unsigned *, uint64_t *, double *, std::string *,
                 const char **, std::vector<std::string> *, VerdictTable *,
                 OutputTrace *, uint64_t, double>;

struct CampaignField {
  /// The enclosing JSON object; "" for a top-level member.
  const char *Object;
  const char *Key;
  FoldRule Fold;
  unsigned Class;
  FieldRef (*At)(CampaignResult &);
  FieldFormat Format = FieldFormat::Plain;

  /// "object.key", or the key of a top-level member.
  std::string name() const;
  /// The field of a result that is only read.
  FieldRef read(const CampaignResult &R) const {
    return At(const_cast<CampaignResult &>(R));
  }
};

/// The rows in JSON order; the last is the unwritten reference trace.
std::span<const CampaignField> campaignFields();

/// The row called \p Name (see CampaignField::name); it must exist.
const CampaignField &campaignField(std::string_view Name);

/// Appends the value of \p F in \p R as JSON, in the row's format.
void appendFieldJson(std::string &Out, const CampaignField &F,
                     const CampaignResult &R);

/// The names of the fields on which \p A and \p B differ, ", "-separated,
/// among those whose class is in \p Classes and, when \p Object is given,
/// whose object it is. Empty when they agree.
std::string campaignDiff(const CampaignResult &A, const CampaignResult &B,
                         unsigned Classes, std::string_view Object = {});

} // namespace talft

#endif // TALFT_FAULT_CAMPAIGNFIELDS_H
