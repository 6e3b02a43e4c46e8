//===- support/Json.h - Minimal JSON values for reports and checkpoints -------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON reader/writer used by the campaign layer
/// for its JSONL incident reports and checkpoint files. Values keep
/// object keys in insertion order so emitted lines are deterministic.
///
/// It also holds the one writer and reader of the append-only JSONL
/// logs (checkpoints, incident logs, the verdict store). Every line is
/// flushed as it is appended, so a killed writer loses at most the line
/// in flight; the torn line it leaves is sealed with a newline before
/// the next writer's first line, and readers skip it as unparseable.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_JSON_H
#define IGDT_SUPPORT_JSON_H

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace igdt {

/// Escapes \p Text for embedding inside a JSON string literal.
std::string jsonEscape(const std::string &Text);

/// A JSON value (null, bool, number, string, array, object).
struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool Value);
  static JsonValue number(double Value);
  static JsonValue string(std::string Value);
  static JsonValue array();
  static JsonValue object();

  /// Appends \p Value under \p Key (object values only).
  JsonValue &set(const std::string &Key, JsonValue Value);
  /// Appends \p Value (array values only).
  JsonValue &push(JsonValue Value);

  /// Looks \p Key up in an object; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;

  /// \name Typed accessors with defaults (for tolerant checkpoint reads)
  /// @{
  double numberOr(const std::string &Key, double Default) const;
  std::string stringOr(const std::string &Key,
                       const std::string &Default) const;
  bool boolOr(const std::string &Key, bool Default) const;
  /// @}

  /// Checked integer read for untrusted input. Stores \p Key's number
  /// in \p Out when \p T holds it exactly; fails, leaving \p Out alone,
  /// for a number that is negative, fractional or above T's maximum,
  /// where a plain cast is undefined ([conv.fpint]) or truncates. An
  /// absent key, or one that is not a number, leaves \p Out alone and
  /// succeeds, as numberOr falls back to its default.
  template <typename T> bool readUnsigned(const std::string &Key, T &Out) const {
    static_assert(std::is_unsigned_v<T>);
    const JsonValue *V = find(Key);
    if (!V || V->K != Kind::Number)
      return true;
    // The first value T cannot hold: 2^digits, exact in a double. NaN
    // fails the range test; inside it the cast is defined, and a
    // fractional number does not survive the round trip.
    constexpr double Limit = double(std::numeric_limits<T>::max()) + 1.0;
    if (!(V->Num >= 0 && V->Num < Limit))
      return false;
    T Whole = static_cast<T>(V->Num);
    if (double(Whole) != V->Num)
      return false;
    Out = Whole;
    return true;
  }

  /// Serialises to compact single-line JSON.
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level and reads untrusted bytes (daemon request frames,
  /// store and checkpoint lines), so a nesting bomb must be refused
  /// rather than overflow the stack. Documents the repo writes nest a
  /// handful of levels deep.
  static constexpr unsigned MaxParseDepth = 256;

  /// Parses \p Text as strict RFC 8259 JSON (\u escapes decode to
  /// UTF-8); nullopt on anything outside the grammar or nesting deeper
  /// than MaxParseDepth.
  static std::optional<JsonValue> parse(const std::string &Text);

private:
  /// Appends the serialisation to \p Out: one buffer for the whole
  /// document instead of a temporary string per member and level.
  void dumpTo(std::string &Out) const;
};

/// One JSONL file appended line by line: opened on its first line,
/// after sealing a torn tail, then kept open and flushed after every
/// line. An empty path appends nothing.
class JsonlAppender {
public:
  explicit JsonlAppender(std::string Path) : Path(std::move(Path)) {}

  bool active() const { return !Path.empty(); }

  /// Appends \p Line and a newline, then flushes.
  void append(std::string_view Line);

  /// Closes the stream so the next append opens the path afresh, as
  /// needed once a rename has put a new file there.
  void reopen() { Out.close(); }

private:
  std::string Path;
  std::ofstream Out;
};

/// Calls \p Visit on each non-empty line of the file at \p Path, in
/// order; a missing file (or an empty path) has none.
void forEachJsonlLine(const std::string &Path,
                      const std::function<void(std::string &Line)> &Visit);

} // namespace igdt

#endif // IGDT_SUPPORT_JSON_H
