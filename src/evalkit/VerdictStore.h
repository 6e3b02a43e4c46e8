//===- evalkit/VerdictStore.h - Content-addressed verdict cache ---------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed verdict cache behind incremental campaigns: a
/// re-run after an interpreter/compiler edit re-explores only the
/// instructions whose inputs actually changed.
///
/// The key is a stable 64-bit hash over everything a record is a pure
/// function of:
///
///   key = h(schema version
///           ++ instruction body          (bytes, literals, locals, ...)
///           ++ compiler fingerprint      (CogitOptions defect seeds)
///           ++ solver caps fingerprint   (SolverOptions + ladder)
///           ++ the remaining record-shaping config)
///
/// and the value is the *exact checkpoint JSONL line* the fresh run
/// appended — never a re-serialisation — so a cache-served record is
/// byte-identical to a freshly computed one. That is the same
/// identity-gate pattern SimOptions::Engine and EnableReplayArena use:
/// the store is purely an optimisation, provable by diffing checkpoint
/// files from cold and warm runs.
///
/// Deliberately EXCLUDED from the key: Jobs, WorkerProcesses, worker
/// deadlines/backoff, the EnableCodeCache / EnableReplayArena toggles
/// and SimOptions::Engine (switch/threaded/native) — the campaign
/// already proves records byte-identical across all of them, so a
/// record computed at one topology or execution tier may serve any
/// other. SimOptions::NativeMiscompileProbe and
/// HarnessOptions::CrossEngineCheck ARE keyed: both change which
/// defects a record reports. Wall-clock budgets are excluded too,
/// but by *refusal* rather than omission: storeEligible() disables the
/// store entirely when a wall budget or campaign-level ledger could
/// make the record content timing- or scheduling-dependent.
///
/// This header owns the abstract interface plus the key derivation (so
/// evalkit never depends on src/service); the persistent JSONL-backed
/// ResultStore lives in service/ResultStore.h.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_VERDICTSTORE_H
#define IGDT_EVALKIT_VERDICTSTORE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace igdt {

struct CampaignOptions;
struct InstructionSpec;

/// Bumped whenever InstructionRecord::toJson changes shape or the
/// defined exploration algorithm changes, so stores written by older
/// binaries self-invalidate instead of serving records a new reader
/// would mis-parse or a new run would not reproduce. Version 2: two
/// removed solver layers changed the defined exploration algorithm, so
/// version-1 entries must miss, not serve. The model bank could answer
/// with an older model than the search finds. The per-exploration query
/// memo was shared by the primary solver and every degradation-ladder
/// rung, so a rung reused answers settled at full strength (and served
/// its own Sat models to later queries); without it a weaker rung
/// searches again and may turn a full-strength Unsat into Unknown.
constexpr std::uint64_t VerdictSchemaVersion = 2;

/// Stable hash of one catalog instruction's *body*: name, kind, encoded
/// bytes, primitive index, locals, literal frame and padding. Editing
/// any byte of the instruction changes the key; editing a different
/// instruction does not.
std::uint64_t instructionBodyHash(const InstructionSpec &Spec);

/// Stable fingerprint of every CampaignOptions field a record's bytes
/// depend on (see the file comment for the exclusion argument).
std::uint64_t campaignConfigFingerprint(const CampaignOptions &Opts);

/// The content address: body hash x config fingerprint x schema version.
std::uint64_t resultStoreKey(const InstructionSpec &Spec,
                             std::uint64_t ConfigFingerprint);

/// Whether a campaign's records are pure functions of (body, config) at
/// all. False when a wall-clock budget or the campaign-level explore
/// ledger (or an adaptive budget pool drawing on it) makes record
/// content depend on clocks or cross-instruction scheduling — the
/// runner then ignores any configured store rather than cache unstable
/// bytes.
bool storeEligible(const CampaignOptions &Opts);

/// A content-addressed map from key to checkpoint line. Implementations
/// must be safe to share across concurrent campaigns (the service
/// daemon points every session at one store).
class VerdictStore {
public:
  virtual ~VerdictStore() = default;

  /// Fetches the stored checkpoint line for \p Key. True on hit.
  virtual bool lookup(std::uint64_t Key, std::string &RecordLine) = 0;

  /// Stores \p RecordLine (the exact appended checkpoint bytes) under
  /// \p Key. \p Instruction names the record for invalidation.
  virtual void put(std::uint64_t Key, const std::string &Instruction,
                   const std::string &RecordLine) = 0;
};

/// In-memory store for tests and single-process warm re-runs.
class MemoryVerdictStore : public VerdictStore {
public:
  bool lookup(std::uint64_t Key, std::string &RecordLine) override {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    if (It == Entries.end())
      return false;
    RecordLine = It->second.Line;
    return true;
  }

  void put(std::uint64_t Key, const std::string &Instruction,
           const std::string &RecordLine) override {
    std::lock_guard<std::mutex> Lock(Mu);
    Entries[Key] = {Instruction, RecordLine};
  }

  /// Drops entries recorded for \p Instruction (all entries when
  /// empty). Returns how many were dropped.
  std::size_t invalidate(const std::string &Instruction) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Instruction.empty()) {
      std::size_t N = Entries.size();
      Entries.clear();
      return N;
    }
    std::size_t N = 0;
    for (auto It = Entries.begin(); It != Entries.end();)
      if (It->second.Instruction == Instruction) {
        It = Entries.erase(It);
        ++N;
      } else {
        ++It;
      }
    return N;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Entries.size();
  }

private:
  struct Entry {
    std::string Instruction;
    std::string Line;
  };
  mutable std::mutex Mu;
  std::map<std::uint64_t, Entry> Entries;
};

} // namespace igdt

#endif // IGDT_EVALKIT_VERDICTSTORE_H
