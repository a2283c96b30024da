//===- serve/Json.cpp - Minimal JSON parser -------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdlib>

using namespace talft;
using namespace talft::serve;

namespace talft::serve {

class JsonParser {
public:
  JsonParser(std::string_view Text, std::string *Err)
      : Text(Text), Err(Err) {}

  std::optional<JsonValue> run() {
    JsonValue V;
    if (!value(V, 0))
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after the document");
    return V;
  }

private:
  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
  /// Nesting cap: the protocol's documents are shallow; a hostile client
  /// must not be able to overflow the parser's stack.
  static constexpr unsigned MaxDepth = 96;

  std::nullopt_t fail(const std::string &Why) {
    if (Err && Err->empty())
      *Err = formatv("json error at offset %zu: %s", Pos, Why.c_str());
    return std::nullopt;
  }
  bool failb(const std::string &Why) {
    fail(Why);
    return false;
  }

  void skipWs() {
    while (Pos != Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    skipWs();
    if (Pos == Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool value(JsonValue &V, unsigned Depth) {
    if (Depth > MaxDepth)
      return failb("nesting too deep");
    skipWs();
    if (Pos == Text.size())
      return failb("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return object(V, Depth);
    case '[':
      return array(V, Depth);
    case '"':
      V.K = JsonValue::Kind::String;
      return string(V.Str);
    case 't':
      if (!literal("true"))
        return failb("bad literal");
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return true;
    case 'f':
      if (!literal("false"))
        return failb("bad literal");
      V.K = JsonValue::Kind::Bool;
      V.B = false;
      return true;
    case 'n':
      if (!literal("null"))
        return failb("bad literal");
      V.K = JsonValue::Kind::Null;
      return true;
    default:
      return number(V);
    }
  }

  bool object(JsonValue &V, unsigned Depth) {
    ++Pos; // '{'
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return true;
    while (true) {
      skipWs();
      if (Pos == Text.size() || Text[Pos] != '"')
        return failb("expected a member name");
      std::string Name;
      if (!string(Name))
        return false;
      if (!consume(':'))
        return failb("expected ':' after member name");
      JsonValue Member;
      if (!value(Member, Depth + 1))
        return false;
      V.Obj.emplace_back(std::move(Name), std::move(Member));
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return failb("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue &V, unsigned Depth) {
    ++Pos; // '['
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return true;
    while (true) {
      JsonValue Item;
      if (!value(Item, Depth + 1))
        return false;
      V.Arr.push_back(std::move(Item));
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return failb("expected ',' or ']' in array");
    }
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return failb("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= (unsigned)(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= (unsigned)(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= (unsigned)(C - 'A' + 10);
      else
        return failb("bad \\u escape digit");
    }
    return true;
  }

  void appendUtf8(std::string &Out, unsigned Cp) {
    if (Cp < 0x80) {
      Out += (char)Cp;
    } else if (Cp < 0x800) {
      Out += (char)(0xC0 | (Cp >> 6));
      Out += (char)(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += (char)(0xE0 | (Cp >> 12));
      Out += (char)(0x80 | ((Cp >> 6) & 0x3F));
      Out += (char)(0x80 | (Cp & 0x3F));
    } else {
      Out += (char)(0xF0 | (Cp >> 18));
      Out += (char)(0x80 | ((Cp >> 12) & 0x3F));
      Out += (char)(0x80 | ((Cp >> 6) & 0x3F));
      Out += (char)(0x80 | (Cp & 0x3F));
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (Pos == Text.size())
        return failb("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if ((unsigned char)C < 0x20)
        return failb("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == Text.size())
        return failb("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp;
        if (!hex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          // A high surrogate must be followed by \uDC00..\uDFFF.
          if (Pos + 2 > Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return failb("lone high surrogate");
          Pos += 2;
          unsigned Lo;
          if (!hex4(Lo))
            return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF)
            return failb("bad low surrogate");
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return failb("lone low surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return failb("unknown escape");
      }
    }
  }

  bool number(JsonValue &V) {
    size_t Start = Pos;
    bool Neg = Pos != Text.size() && Text[Pos] == '-';
    if (Neg)
      ++Pos;
    bool Integral = true;
    bool Digits = false;
    while (Pos != Text.size()) {
      char C = Text[Pos];
      if (C >= '0' && C <= '9') {
        Digits = true;
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        if (C == '.' || C == 'e' || C == 'E')
          Integral = false;
        ++Pos;
      } else {
        break;
      }
    }
    if (!Digits)
      return failb("expected a value");
    std::string Tok(Text.substr(Start, Pos - Start));
    errno = 0;
    char *End = nullptr;
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size())
      return failb("malformed number");
    if (Integral && !Neg) {
      errno = 0;
      unsigned long long U = std::strtoull(Tok.c_str(), &End, 10);
      if (End == Tok.c_str() + Tok.size() && errno != ERANGE) {
        V.Exact = true;
        V.U = U;
      }
    }
    return true;
  }
};

} // namespace talft::serve

std::optional<JsonValue> JsonValue::parse(std::string_view Text,
                                          std::string *Err) {
  return JsonParser(Text, Err).run();
}
