//===- support/Json.cpp - Minimal JSON values for reports and checkpoints -----===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

using namespace igdt;

namespace {

/// Appends \p Text to \p Out escaped for a JSON string literal, copying
/// the runs that need no escape in bulk.
void appendEscaped(std::string &Out, std::string_view Text) {
  static constexpr std::string_view ShortForms = "\"\\\n\r\t";
  static constexpr std::string_view ShortCodes = "\"\\nrt";
  static const char Hex[] = "0123456789abcdef";
  std::size_t Run = 0;
  for (std::size_t I = 0; I < Text.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Text[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(Text.data() + Run, I - Run);
    Run = I + 1;
    std::size_t Short = ShortForms.find(char(C));
    if (Short != std::string_view::npos)
      Out.append({'\\', ShortCodes[Short]});
    else
      Out.append({'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]});
  }
  Out.append(Text.data() + Run, Text.size() - Run);
}

} // namespace

std::string igdt::jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendEscaped(Out, Text);
  return Out;
}

JsonValue JsonValue::boolean(bool Value) {
  JsonValue V;
  V.K = Kind::Bool;
  V.B = Value;
  return V;
}

JsonValue JsonValue::number(double Value) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = Value;
  return V;
}

JsonValue JsonValue::string(std::string Value) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(Value);
  return V;
}

JsonValue JsonValue::array() {
  JsonValue V;
  V.K = Kind::Array;
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.K = Kind::Object;
  return V;
}

JsonValue &JsonValue::set(const std::string &Key, JsonValue Value) {
  Obj.emplace_back(Key, std::move(Value));
  return *this;
}

JsonValue &JsonValue::push(JsonValue Value) {
  Arr.push_back(std::move(Value));
  return *this;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

double JsonValue::numberOr(const std::string &Key, double Default) const {
  const JsonValue *V = find(Key);
  return V && V->K == Kind::Number ? V->Num : Default;
}

std::string JsonValue::stringOr(const std::string &Key,
                                const std::string &Default) const {
  const JsonValue *V = find(Key);
  return V && V->K == Kind::String ? V->Str : Default;
}

bool JsonValue::boolOr(const std::string &Key, bool Default) const {
  const JsonValue *V = find(Key);
  return V && V->K == Kind::Bool ? V->B : Default;
}

std::string JsonValue::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

void JsonValue::dumpTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += B ? "true" : "false";
    return;
  case Kind::Number: {
    // Integers (the common case for counters) print without a fraction.
    char Buf[32];
    int N = std::floor(Num) == Num && std::abs(Num) < 9e15
                ? std::snprintf(Buf, sizeof Buf, "%lld", (long long)Num)
                : std::snprintf(Buf, sizeof Buf, "%.17g", Num);
    Out.append(Buf, std::size_t(N));
    return;
  }
  case Kind::String:
    Out += '"';
    appendEscaped(Out, Str);
    Out += '"';
    return;
  case Kind::Array:
    Out += '[';
    for (std::size_t I = 0; I < Arr.size(); ++I) {
      if (I)
        Out += ',';
      Arr[I].dumpTo(Out);
    }
    Out += ']';
    return;
  case Kind::Object:
    Out += '{';
    for (std::size_t I = 0; I < Obj.size(); ++I) {
      if (I)
        Out += ',';
      Out += '"';
      appendEscaped(Out, Obj[I].first);
      Out += "\":";
      Obj[I].second.dumpTo(Out);
    }
    Out += '}';
    return;
  }
  Out += "null";
}

namespace {

/// Recursive-descent parser over an in-memory string, strict to the
/// RFC 8259 grammar: whitespace is space, tab, LF and CR only; numbers
/// must match the grammar in full before they are converted; strings
/// refuse raw control characters and decode \u escapes (surrogate
/// pairs included) to UTF-8. Values are built in place and keys moved,
/// so a record line costs one pass and no per-number substring.
class Parser {
public:
  explicit Parser(const std::string &Text)
      : P(Text.data()), End(Text.data() + Text.size()) {}

  std::optional<JsonValue> parse() {
    JsonValue V;
    if (!parseValue(V))
      return std::nullopt;
    skipSpace();
    if (P != End)
      return std::nullopt; // trailing garbage
    return V;
  }

private:
  static bool isDigit(char C) { return C >= '0' && C <= '9'; }

  void skipSpace() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool consume(char C) {
    skipSpace();
    if (P != End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view Word) {
    if (std::size_t(End - P) < Word.size() ||
        std::memcmp(P, Word.data(), Word.size()) != 0)
      return false;
    P += Word.size();
    return true;
  }

  /// Four hex digits of a \u escape; -1 when malformed.
  long parseHex4() {
    if (End - P < 4)
      return -1;
    long Code = 0;
    for (int I = 0; I < 4; ++I) {
      char H = *P++;
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code += H - '0';
      else if (H >= 'a' && H <= 'f')
        Code += H - 'a' + 10;
      else if (H >= 'A' && H <= 'F')
        Code += H - 'A' + 10;
      else
        return -1;
    }
    return Code;
  }

  static void appendUtf8(std::string &Out, std::uint32_t Code) {
    if (Code < 0x80) {
      Out += char(Code);
    } else if (Code < 0x800) {
      Out += char(0xC0 | (Code >> 6));
      Out += char(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += char(0xE0 | (Code >> 12));
      Out += char(0x80 | ((Code >> 6) & 0x3F));
      Out += char(0x80 | (Code & 0x3F));
    } else {
      Out += char(0xF0 | (Code >> 18));
      Out += char(0x80 | ((Code >> 12) & 0x3F));
      Out += char(0x80 | ((Code >> 6) & 0x3F));
      Out += char(0x80 | (Code & 0x3F));
    }
  }

  /// A \u escape after its backslash and 'u'. A high surrogate must be
  /// followed by an escaped low surrogate; a lone surrogate is refused.
  bool parseUnicodeEscape(std::string &Out) {
    long Code = parseHex4();
    if (Code < 0 || (Code >= 0xDC00 && Code <= 0xDFFF))
      return false;
    if (Code >= 0xD800 && Code <= 0xDBFF) {
      if (!consumeWord("\\u"))
        return false;
      long Low = parseHex4();
      if (Low < 0xDC00 || Low > 0xDFFF)
        return false;
      Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
    }
    appendUtf8(Out, std::uint32_t(Code));
    return true;
  }

  /// The string literal at the cursor (after optional whitespace).
  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    while (true) {
      // Copy the run up to the next quote, escape or control byte in
      // one append.
      const char *Run = P;
      while (P != End && *P != '"' && *P != '\\' &&
             static_cast<unsigned char>(*P) >= 0x20)
        ++P;
      Out.append(Run, P);
      if (P == End)
        return false; // unterminated
      char C = *P++;
      if (C == '"')
        return true;
      if (C != '\\')
        return false; // raw control character
      if (P == End)
        return false;
      switch (*P++) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
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
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u':
        if (!parseUnicodeEscape(Out))
          return false;
        break;
      default:
        return false;
      }
    }
  }

  /// number = [ "-" ] ( "0" / [1-9] *DIGIT ) [ "." 1*DIGIT ]
  ///          [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]
  /// The span is checked against the grammar first, then converted by
  /// std::from_chars (locale-free, correctly rounded). Out-of-range
  /// magnitudes are refused rather than clamped.
  bool parseNumber(double &Out) {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    if (P == End || !isDigit(*P))
      return false;
    if (*P++ != '0')
      while (P != End && isDigit(*P))
        ++P;
    if (P != End && *P == '.') {
      ++P;
      if (P == End || !isDigit(*P))
        return false;
      while (P != End && isDigit(*P))
        ++P;
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (P == End || !isDigit(*P))
        return false;
      while (P != End && isDigit(*P))
        ++P;
    }
    auto [Ptr, Ec] = std::from_chars(Start, P, Out);
    return Ec == std::errc() && Ptr == P;
  }

  /// The members after an already-consumed '{'.
  bool parseObjectBody(JsonValue &Obj) {
    Obj.K = JsonValue::Kind::Object;
    if (consume('}'))
      return true;
    while (true) {
      std::string Key;
      if (!parseString(Key) || !consume(':'))
        return false;
      Obj.Obj.emplace_back(std::move(Key), JsonValue());
      if (!parseValue(Obj.Obj.back().second))
        return false;
      if (consume(','))
        continue;
      return consume('}');
    }
  }

  /// The elements after an already-consumed '['.
  bool parseArrayBody(JsonValue &Arr) {
    Arr.K = JsonValue::Kind::Array;
    if (consume(']'))
      return true;
    while (true) {
      Arr.Arr.emplace_back();
      if (!parseValue(Arr.Arr.back()))
        return false;
      if (consume(','))
        continue;
      return consume(']');
    }
  }

  bool parseValue(JsonValue &Out) {
    skipSpace();
    if (P == End)
      return false;
    char C = *P;
    if (C == '{' || C == '[') {
      if (Depth == JsonValue::MaxParseDepth)
        return false; // nesting bomb: refuse before recursing
      ++P;
      ++Depth;
      bool Ok = C == '{' ? parseObjectBody(Out) : parseArrayBody(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    }
    if (consumeWord("true") || consumeWord("false")) {
      Out.K = JsonValue::Kind::Bool;
      Out.B = C == 't';
      return true;
    }
    if (consumeWord("null")) {
      Out.K = JsonValue::Kind::Null;
      return true;
    }
    Out.K = JsonValue::Kind::Number;
    return parseNumber(Out.Num);
  }

  const char *P;
  const char *const End;
  unsigned Depth = 0;
};

} // namespace

std::optional<JsonValue> JsonValue::parse(const std::string &Text) {
  return Parser(Text).parse();
}

void JsonlAppender::append(std::string_view Line) {
  if (Path.empty())
    return;
  if (!Out.is_open()) {
    std::ifstream In(Path, std::ios::binary | std::ios::ate);
    bool TornTail = In && In.tellg() > 0 && In.seekg(-1, std::ios::end) &&
                    In.get() != '\n';
    Out.open(Path, std::ios::app | std::ios::binary);
    if (TornTail)
      Out << '\n';
  }
  Out << Line << '\n';
  Out.flush();
}

void igdt::forEachJsonlLine(
    const std::string &Path,
    const std::function<void(std::string &Line)> &Visit) {
  std::ifstream In(Path, std::ios::binary);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Visit(Line);
}
