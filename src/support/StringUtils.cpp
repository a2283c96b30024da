//===- support/StringUtils.cpp --------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace talft;

std::string talft::join(const std::vector<std::string> &Parts,
                        std::string_view Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::optional<int64_t> talft::parseInt64(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  bool Negative = false;
  size_t I = 0;
  if (Text[0] == '-') {
    Negative = true;
    I = 1;
    if (Text.size() == 1)
      return std::nullopt;
  }
  // Accumulate in unsigned space to detect overflow, then apply the sign.
  uint64_t Acc = 0;
  const uint64_t Limit =
      Negative ? (uint64_t)INT64_MAX + 1 : (uint64_t)INT64_MAX;
  for (size_t E = Text.size(); I != E; ++I) {
    char C = Text[I];
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = (uint64_t)(C - '0');
    if (Acc > (Limit - Digit) / 10)
      return std::nullopt;
    Acc = Acc * 10 + Digit;
  }
  if (Negative)
    return (int64_t)(0 - Acc);
  return (int64_t)Acc;
}

std::string talft::formatv(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Len < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out((size_t)Len, '\0');
  std::vsnprintf(Out.data(), (size_t)Len + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string talft::jsonQuote(std::string_view In) {
  std::string Out = "\"";
  for (char C : In) {
    if (C == '"' || C == '\\')
      Out += {'\\', C};
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\r')
      Out += "\\r";
    else if ((unsigned char)C < 0x20)
      Out += formatv("\\u%04x", (unsigned)(unsigned char)C);
    else
      Out += C;
  }
  Out += '"';
  return Out;
}
