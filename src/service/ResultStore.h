//===- service/ResultStore.h - File-backed content-addressed store -----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's persistent VerdictStore: a JSONL file mapping content
/// addresses (evalkit/VerdictStore.h key derivation) to the exact keyed
/// checkpoint line a fresh run produced. One line per put:
///
///   {"v":1,"key":"<16 hex>","instruction":"...","record":"<line>"}
///
/// and one per invalidation (a tombstone):
///
///   {"v":1,"key":"<16 hex>","tombstone":true}
///
/// The file is append-only during operation (one JsonlAppender) —
/// crash-safe by the same argument as the campaign checkpoint (a torn
/// final line parses as garbage and is skipped on load). Load replays
/// the log in order with last-entry-wins, so a put after a tombstone
/// resurrects the key and gc() compacts the log to its live entries.
/// The record value is stored as an opaque string and served verbatim:
/// the store never re-serialises a record, which is what makes
/// cache-served checkpoint rows byte-identical to fresh ones.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SERVICE_RESULTSTORE_H
#define IGDT_SERVICE_RESULTSTORE_H

#include "evalkit/VerdictStore.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace igdt {

/// File-backed content-addressed verdict store. Thread-safe: daemon
/// sessions naming the same path share one instance.
class ResultStore : public VerdictStore {
public:
  /// Current on-disk entry schema.
  static constexpr unsigned FormatVersion = 1;

  /// Opens (creating if needed) the store at \p Path and loads the
  /// live entries. A malformed line is skipped, not fatal. An empty
  /// path keeps the store in memory only.
  explicit ResultStore(std::string Path);

  bool lookup(std::uint64_t Key, std::string &RecordLine) override;
  void put(std::uint64_t Key, const std::string &Instruction,
           const std::string &RecordLine) override;

  /// Appends tombstones for every live entry whose instruction equals
  /// \p Instruction (empty = every live entry). Returns the number of
  /// entries invalidated.
  std::size_t invalidate(const std::string &Instruction);

  struct GcStats {
    std::size_t Kept = 0;
    /// Log lines discarded by compaction: tombstones, superseded puts,
    /// and unparseable lines.
    std::size_t Dropped = 0;
    /// Why the compaction failed; empty on success.
    std::string Error;
  };

  /// Rewrites the log to exactly the live entries (atomic rename). A
  /// failure keeps the log and its dead-line count, and sets Error.
  GcStats gc();

  /// Live entry count.
  std::size_t size() const;

  const std::string &path() const { return Path; }

private:
  struct Entry {
    std::string Instruction;
    std::string Record;
  };

  std::string Path;
  /// The log's append stream (written with the lock held).
  JsonlAppender Log;
  mutable std::mutex M;
  std::map<std::uint64_t, Entry> Live;
  /// Log lines on disk that a compaction would drop (tombstones and
  /// superseded puts accumulate here between gc() calls).
  std::size_t DeadLines = 0;
};

} // namespace igdt

#endif // IGDT_SERVICE_RESULTSTORE_H
