//===- support/Json.cpp - Minimal JSON values for reports and checkpoints -----===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>

using namespace igdt;

std::string igdt::jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
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
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Number: {
    // Integers (the common case for counters) print without a fraction.
    if (std::floor(Num) == Num && std::abs(Num) < 9e15)
      return formatString("%lld", (long long)Num);
    return formatString("%.17g", Num);
  }
  case Kind::String:
    return "\"" + jsonEscape(Str) + "\"";
  case Kind::Array: {
    std::string Out = "[";
    for (std::size_t I = 0; I < Arr.size(); ++I) {
      if (I)
        Out += ",";
      Out += Arr[I].dump();
    }
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (std::size_t I = 0; I < Obj.size(); ++I) {
      if (I)
        Out += ",";
      Out += "\"" + jsonEscape(Obj[I].first) + "\":" + Obj[I].second.dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over an in-memory string.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  std::optional<JsonValue> parse() {
    auto V = parseValue();
    if (!V)
      return std::nullopt;
    skipSpace();
    if (Pos != Text.size())
      return std::nullopt; // trailing garbage
    return V;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(const char *Word) {
    std::size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) == 0) {
      Pos += Len;
      return true;
    }
    return false;
  }

  std::optional<std::string> parseString() {
    if (!consume('"'))
      return std::nullopt;
    std::string Out;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return std::nullopt;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
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
      case 'u': {
        if (Pos + 4 > Text.size())
          return std::nullopt;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += H - '0';
          else if (H >= 'a' && H <= 'f')
            Code += H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code += H - 'A' + 10;
          else
            return std::nullopt;
        }
        // Sub-U+0080 only: our own emitter never produces more.
        Out += static_cast<char>(Code & 0x7F);
        break;
      }
      default:
        return std::nullopt;
      }
    }
    return std::nullopt; // unterminated
  }

  /// The members after an already-consumed '{'.
  std::optional<JsonValue> parseObjectBody() {
    JsonValue Obj = JsonValue::object();
    skipSpace();
    if (consume('}'))
      return Obj;
    while (true) {
      auto Key = parseString();
      if (!Key || !consume(':'))
        return std::nullopt;
      auto Value = parseValue();
      if (!Value)
        return std::nullopt;
      Obj.set(*Key, std::move(*Value));
      if (consume(','))
        continue;
      if (consume('}'))
        return Obj;
      return std::nullopt;
    }
  }

  /// The elements after an already-consumed '['.
  std::optional<JsonValue> parseArrayBody() {
    JsonValue Arr = JsonValue::array();
    skipSpace();
    if (consume(']'))
      return Arr;
    while (true) {
      auto Value = parseValue();
      if (!Value)
        return std::nullopt;
      Arr.push(std::move(*Value));
      if (consume(','))
        continue;
      if (consume(']'))
        return Arr;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parseValue() {
    skipSpace();
    if (Pos >= Text.size())
      return std::nullopt;
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth == JsonValue::MaxParseDepth)
        return std::nullopt; // nesting bomb: refuse before recursing
      ++Pos;
      ++Depth;
      auto V = C == '{' ? parseObjectBody() : parseArrayBody();
      --Depth;
      return V;
    }
    if (C == '"') {
      auto S = parseString();
      if (!S)
        return std::nullopt;
      return JsonValue::string(std::move(*S));
    }
    if (consumeWord("true"))
      return JsonValue::boolean(true);
    if (consumeWord("false"))
      return JsonValue::boolean(false);
    if (consumeWord("null"))
      return JsonValue::null();
    // Number.
    std::size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos)
      return std::nullopt;
    try {
      double Num = std::stod(Text.substr(Pos, End - Pos));
      Pos = End;
      return JsonValue::number(Num);
    } catch (...) {
      return std::nullopt;
    }
  }

  const std::string &Text;
  std::size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace

std::optional<JsonValue> JsonValue::parse(const std::string &Text) {
  return Parser(Text).parse();
}
