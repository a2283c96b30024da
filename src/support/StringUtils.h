//===- support/StringUtils.h - Small string helpers -----------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the printers and front ends: join, integer
/// parsing, and a printf-style formatter returning std::string.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SUPPORT_STRINGUTILS_H
#define TALFT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace talft {

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Parses a signed 64-bit decimal integer (with optional leading '-').
/// Returns std::nullopt on malformed input or overflow.
std::optional<int64_t> parseInt64(std::string_view Text);

/// printf-style formatting into a std::string.
std::string formatv(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders \p In as a quoted JSON string literal: the one escaper behind
/// every JSON writer here, and the inverse of serve::JsonValue's string
/// reader.
std::string jsonQuote(std::string_view In);

} // namespace talft

#endif // TALFT_SUPPORT_STRINGUTILS_H
