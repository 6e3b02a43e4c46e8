//===- service/ResultStore.cpp - File-backed content-addressed store ---------===//

#include "service/ResultStore.h"

#include "support/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace igdt;

namespace {

std::string putLine(std::uint64_t Key, const std::string &Instruction,
                    const std::string &Record) {
  JsonValue V = JsonValue::object();
  V.set("v", JsonValue::number(ResultStore::FormatVersion));
  V.set("key", JsonValue::string(resultKeyHex(Key)));
  V.set("instruction", JsonValue::string(Instruction));
  V.set("record", JsonValue::string(Record));
  return V.dump();
}

std::string tombstoneLine(std::uint64_t Key) {
  JsonValue V = JsonValue::object();
  V.set("v", JsonValue::number(ResultStore::FormatVersion));
  V.set("key", JsonValue::string(resultKeyHex(Key)));
  V.set("tombstone", JsonValue::boolean(true));
  return V.dump();
}

} // namespace

ResultStore::ResultStore(std::string PathArg)
    : Path(std::move(PathArg)), Log(Path) {
  forEachJsonlLine(Path, [&](std::string &Line) {
    std::optional<JsonValue> V = JsonValue::parse(Line);
    std::uint64_t Key = 0;
    if (!V || unsigned(V->numberOr("v", 0)) > FormatVersion ||
        !parseResultKeyHex(V->stringOr("key", ""), Key)) {
      ++DeadLines;
      return;
    }
    if (V->boolOr("tombstone", false)) {
      // The tombstone itself is dead weight, and so is the put it
      // buried (when one existed).
      DeadLines += Live.erase(Key) + 1;
      return;
    }
    Entry E;
    E.Instruction = V->stringOr("instruction", "");
    E.Record = V->stringOr("record", "");
    if (E.Record.empty()) {
      ++DeadLines;
      return;
    }
    auto [It, Inserted] = Live.try_emplace(Key);
    if (!Inserted)
      ++DeadLines; // the superseded earlier put
    It->second = std::move(E);
  });
}

bool ResultStore::lookup(std::uint64_t Key, std::string &RecordLine) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Live.find(Key);
  if (It == Live.end())
    return false;
  RecordLine = It->second.Record;
  return true;
}

void ResultStore::put(std::uint64_t Key, const std::string &Instruction,
                      const std::string &RecordLine) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Live.find(Key);
  if (It != Live.end()) {
    if (It->second.Record == RecordLine)
      return; // identical re-store: no log growth
    ++DeadLines;
  }
  Live[Key] = {Instruction, RecordLine};
  Log.append(putLine(Key, Instruction, RecordLine));
}

std::size_t ResultStore::invalidate(const std::string &Instruction) {
  std::lock_guard<std::mutex> Lock(M);
  std::size_t Removed = 0;
  for (auto It = Live.begin(); It != Live.end();) {
    if (Instruction.empty() || It->second.Instruction == Instruction) {
      Log.append(tombstoneLine(It->first));
      DeadLines += 2; // the tombstone plus the put it buried
      It = Live.erase(It);
      ++Removed;
    } else {
      ++It;
    }
  }
  return Removed;
}

ResultStore::GcStats ResultStore::gc() {
  std::lock_guard<std::mutex> Lock(M);
  GcStats Stats;
  if (Path.empty())
    return Stats; // in memory: no log to compact
  std::string Tmp = Path + ".gc";
  std::ofstream Out(Tmp, std::ios::trunc | std::ios::binary);
  for (const auto &[Key, E] : Live)
    Out << putLine(Key, E.Instruction, E.Record) << '\n';
  Out.close();
  // A short or failed write must never replace the log: keep it, and
  // its dead-line count, and say why.
  if (!Out || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Stats.Error = "cannot compact " + Path + ": " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return Stats;
  }
  Log.reopen(); // the open stream still points at the replaced file
  Stats.Kept = Live.size();
  Stats.Dropped = DeadLines;
  DeadLines = 0;
  return Stats;
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Live.size();
}
