//===- serve/Protocol.h - The line-delimited certification protocol -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the certification server (serve/Server.h): one
/// JSON document per line, over a local TCP connection.
///
/// Requests ({"cmd": ...}):
///
///   {"cmd":"submit", "lang":"wile"|"tal", "source":"...", "name":"...",
///    "engine":"vm"|"jit"|"reference", "stride":0, "max_steps":N,
///    "extra_steps":N, "only_mentioned_registers":b, "prune":b,
///    "converge":b, "lanes":b, "recover":b,
///    "checkpoint_interval":N, "retry_budget":N, "shards":N,
///    "deadline_ms":N}
///     Every option is optional and defaults to the batch CLI's defaults
///     (stride 0 = the fig10 adaptive stride max(1, refSteps/12)).
///   {"cmd":"stats"}   one stats document (also served as HTTP "GET /stats")
///   {"cmd":"ping"}    liveness probe
///
/// Responses ({"event": ...}): "accepted" (with program_hash,
/// options_digest, certification, cache hit/partial/miss, shard plan and
/// server build id), zero or more "shard" verdict-table deltas as shards
/// retire, then one "result" carrying the folded campaign object —
/// bit-identical to the batch CLI's campaignToJson for the same program
/// and options. "drained" replaces "result" when the server stops at a
/// shard boundary (SIGTERM drain); the folded prefix is persisted in the
/// memo store and a resubmission resumes from the next shard. "error"
/// carries a machine-readable "code": "bad_request" for a malformed
/// request, "compile_error" for a source that does not compile,
/// "campaign_error", "shard_poisoned" or "deadline_exceeded" for a
/// campaign that could not finish, and "overloaded" (with
/// "retry_after_ms") or "draining" for backpressure.
///
/// This header also owns the memoization key: a submission is addressed
/// by (whole-program content hash × options digest), and the server finds
/// a known source's hash without compiling it (serve/FrontEnd.h). The
/// digest covers every semantic campaign option — engine, stride,
/// budgets, site filter, prune, converge, lanes, recovery knobs — so any
/// option change is a cache miss; thread count and shard count are
/// excluded because the verdict table is provably independent of both.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_PROTOCOL_H
#define TALFT_SERVE_PROTOCOL_H

#include "fault/Campaign.h"
#include "serve/Json.h"

#include <string>

namespace talft::serve {

/// v2 adds the fail-operational fields: "retry_after_ms" on overloaded
/// errors, "shard_poisoned"/"deadline_exceeded" error codes, the
/// "deadline_ms" submit option, per-shard "attempts" provenance, and the
/// pool/wal/admission objects in the stats document.
inline constexpr const char *ProtocolSchema = "talft-serve-v2";
inline constexpr const char *StatsSchema = "talft-serve-stats-v2";
inline constexpr const char *CacheSchema = "talft-serve-cache-v1";

/// One submission: a program plus the campaign options that shape its
/// verdict table. Defaults mirror bench/fault_coverage's CLI defaults so
/// a bare {"cmd":"submit","source":...} serves the table the batch sweep
/// would print.
struct SubmitSpec {
  std::string Name;        ///< Display name (reports and logs only).
  std::string Lang = "wile"; ///< "wile" or "tal".
  std::string Source;
  std::string Engine = "vm"; ///< "vm", "jit" or "reference".
  /// Injection stride; 0 = adaptive max(1, referenceSteps / 12), the
  /// batch CLI's --fig10 rule.
  uint64_t Stride = 0;
  uint64_t MaxSteps = TheoremConfig().MaxSteps;
  uint64_t ExtraSteps = TheoremConfig().ExtraSteps;
  bool OnlyMentionedRegisters = true;
  bool Prune = false;
  bool Converge = true;
  bool Lanes = true;
  bool Recover = false;
  uint64_t CheckpointInterval = 1;
  uint64_t RetryBudget = 2;
  /// Requested shard count; 0 = the server's default. Not part of the
  /// memo key (shard folds are bit-identical at any count).
  unsigned Shards = 0;
  /// Per-submission wall-clock deadline; 0 = the server's default (which
  /// may itself be "none"). Not part of the memo key — a deadline shapes
  /// when work is abandoned, never what a verdict table contains.
  uint64_t DeadlineMs = 0;
};

/// The options half of the memo key: a 64-bit digest of every semantic
/// knob in \p S (excluding Name and Shards). Two specs with equal digests
/// produce bit-identical verdict tables for the same program.
uint64_t optionsDigest(const SubmitSpec &S);

/// The TheoremConfig a spec denotes, with the adaptive stride already
/// resolved to \p Stride.
TheoremConfig theoremConfig(const SubmitSpec &S, uint64_t Stride);

/// Fills the semantic campaign knobs (prune/converge/lanes) of
/// \p O from \p S. Engine, threads and the shard slice stay the
/// caller's business.
void applySpecOptions(const SubmitSpec &S, CampaignOptions &O);

/// Parses a {"cmd":"submit"} document. Returns false with \p Err set on
/// a missing source, an unknown lang/engine, or a zero step budget.
bool specFromJson(const JsonValue &V, SubmitSpec &Out, std::string &Err);

/// Renders \p S as the submit request line (no trailing newline) — the
/// client half of the protocol.
std::string submitRequestJson(const SubmitSpec &S);

/// Rebuilds a CampaignResult from campaignToJson's output (as parsed by
/// JsonValue): every stored field the table in fault/CampaignFields.h
/// writes, exact but for the float timings. The reference trace is never
/// written, so it stays empty. Returns false with \p Err set when a field
/// is missing or has the wrong JSON type.
bool campaignFromJson(const JsonValue &V, CampaignResult &R,
                      std::string &Err);

/// campaignToJson flattened to a single line for the line-delimited
/// protocol (the writer only uses newlines between members, so stripping
/// them preserves validity).
std::string campaignJsonLine(const CampaignResult &R);

} // namespace talft::serve

#endif // TALFT_SERVE_PROTOCOL_H
