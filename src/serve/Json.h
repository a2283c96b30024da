//===- serve/Json.h - Minimal JSON value and parser -----------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON reader for the certification server: the
/// line-delimited protocol (serve/Protocol.h) and the on-disk memo-store
/// entries are both JSON, and the repo's writers (campaignToJson, driven
/// by the field table in fault/CampaignFields.h, and the bench report
/// builders) only ever *emit* strings, escaped by support/StringUtils.h's
/// jsonQuote. This is the matching reader — a strict recursive-descent
/// parser into a fat value type.
/// Numbers keep an exact unsigned image when the token is integral, so
/// 64-bit verdict counters round-trip bit-exactly (doubles alone would
/// truncate above 2^53).
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SERVE_JSON_H
#define TALFT_SERVE_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace talft::serve {

class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }

  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  /// Exact for integral tokens up to 2^64-1; negative numbers clamp to
  /// \p Default.
  uint64_t asU64(uint64_t Default = 0) const {
    if (K != Kind::Number)
      return Default;
    if (Exact)
      return U;
    return Num < 0 ? Default : (uint64_t)Num;
  }
  double asDouble(double Default = 0) const {
    return K == Kind::Number ? Num : Default;
  }
  const std::string &asString() const {
    static const std::string Empty;
    return K == Kind::String ? Str : Empty;
  }
  const std::vector<JsonValue> &items() const {
    static const std::vector<JsonValue> None;
    return K == Kind::Array ? Arr : None;
  }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    static const std::vector<std::pair<std::string, JsonValue>> None;
    return K == Kind::Object ? Obj : None;
  }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *get(std::string_view Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, V] : Obj)
      if (Name == Key)
        return &V;
    return nullptr;
  }

  bool boolAt(std::string_view Key, bool Default) const {
    const JsonValue *V = get(Key);
    return V ? V->asBool(Default) : Default;
  }
  uint64_t u64At(std::string_view Key, uint64_t Default) const {
    const JsonValue *V = get(Key);
    return V ? V->asU64(Default) : Default;
  }
  double doubleAt(std::string_view Key, double Default) const {
    const JsonValue *V = get(Key);
    return V ? V->asDouble(Default) : Default;
  }
  std::string stringAt(std::string_view Key, std::string Default = "") const {
    const JsonValue *V = get(Key);
    return V && V->isString() ? V->Str : Default;
  }

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error). On failure returns nullopt and, when \p Err is non-null,
  /// a one-line description with the byte offset.
  static std::optional<JsonValue> parse(std::string_view Text,
                                        std::string *Err = nullptr);

private:
  friend class JsonParser;
  Kind K = Kind::Null;
  bool B = false;
  bool Exact = false; ///< U holds the number's exact unsigned image.
  double Num = 0;
  uint64_t U = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

} // namespace talft::serve

#endif // TALFT_SERVE_JSON_H
