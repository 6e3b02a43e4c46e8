//===- evalkit/VerdictStore.h - Content-addressed verdict cache ---------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content address behind every reuse of a record: the verdict
/// cache of incremental campaigns and checkpoint resume.
///
/// The key is a stable 64-bit hash over everything a record is a pure
/// function of:
///
///   key = h(schema version
///           ++ instruction body          (bytes, literals, locals, ...)
///           ++ code identity             (the sources records come from)
///           ++ compiler fingerprint      (CogitOptions defect seeds)
///           ++ solver caps fingerprint   (SolverOptions + ladder)
///           ++ the remaining record-shaping config, work budgets too)
///
/// The code identity is a content hash of the pipeline's sources
/// (vm, jit, solver, symbolic, concolic, differential, faults) and of
/// the record and key code in evalkit, generated at build time by
/// CodeIdentity.cmake. Editing any of them re-keys every record, so a
/// store hit or a resumed line never outlives the compiler that made
/// it; edits elsewhere (service, api, observe, tools, bench) keep every
/// key.
///
/// A checkpoint line and a store value are the same bytes: the record's
/// JSON with its key stamped in front (keyedRecordLine), trusted only
/// under the key it was looked up by. The store never re-serialises a
/// line, so reuse is purely an optimisation, provable by diffing the
/// checkpoints of cold, warm and resumed runs.
///
/// Deliberately EXCLUDED from the key: Jobs, the EnableCodeCache
/// toggle, SimOptions::Engine (switch or threaded), and what selects
/// the worklist (OnlyInstructions, Max*, StopAfter). Records are proven
/// byte-identical across all of them. NativeMiscompileProbe and
/// CrossEngineCheck ARE keyed: both change which defects a record
/// reports. Every budget counts work, not time, so every record is a
/// pure function of its key and every configuration may use the store.
///
/// This header owns the abstract interface plus the key derivation (so
/// evalkit never depends on src/service); the JSONL-backed ResultStore
/// lives in service/ResultStore.h.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_VERDICTSTORE_H
#define IGDT_EVALKIT_VERDICTSTORE_H

#include <cstdint>
#include <string>

namespace igdt {

struct CampaignOptions;
struct InstructionSpec;

/// Bumped whenever InstructionRecord::toJson or the keyed line changes
/// shape or the defined exploration algorithm changes, so stores
/// written by older binaries self-invalidate instead of serving records
/// a new reader would mis-parse or a new run would not reproduce.
/// Version 2: two removed solver layers changed the defined exploration
/// algorithm. Version 3: values became keyed lines, and wall budgets
/// entered the key. Version 4: the campaign ledger, budget pool and
/// persisted yield left the configuration. Version 5: the wall-clock
/// budgets left the configuration.
constexpr std::uint64_t VerdictSchemaVersion = 5;

/// Stable hash of one catalog instruction's *body*: name, kind, encoded
/// bytes, primitive index, locals, literal frame and padding. Editing
/// any byte of the instruction changes the key; editing a different
/// instruction does not.
std::uint64_t instructionBodyHash(const InstructionSpec &Spec);

/// This build's code identity (see the file comment).
std::uint64_t codeIdentity();

/// Stable fingerprint of every CampaignOptions field a record's bytes
/// depend on (see the file comment for the exclusion argument), under
/// \p CodeIdentity. Tests pass another identity to stand for another
/// build; everything else keeps the default.
std::uint64_t campaignConfigFingerprint(const CampaignOptions &Opts,
                                        std::uint64_t CodeIdentity =
                                            codeIdentity());

/// The content address: body hash x config fingerprint x schema version.
std::uint64_t resultStoreKey(const InstructionSpec &Spec,
                             std::uint64_t ConfigFingerprint);

/// The key as 16 lowercase hex digits, the form a keyed line carries.
std::string resultKeyHex(std::uint64_t Key);

/// Parses resultKeyHex's form back; false on anything else.
bool parseResultKeyHex(const std::string &Hex, std::uint64_t &Key);

/// A checkpoint line and store value: \p RecordJson (an
/// InstructionRecord::toJson object) with {"key":"<hex>", stamped in
/// front of its first member.
std::string keyedRecordLine(std::uint64_t Key, const std::string &RecordJson);

/// Reads the key keyedRecordLine stamped on \p Line into \p Key; false
/// for a line without one.
bool keyedLineKey(const std::string &Line, std::uint64_t &Key);

/// A content-addressed map from key to keyed checkpoint line.
/// Implementations must be safe to share across concurrent campaigns
/// (the service daemon points every session at one store).
class VerdictStore {
public:
  virtual ~VerdictStore() = default;

  /// Fetches the stored checkpoint line for \p Key. True on hit.
  virtual bool lookup(std::uint64_t Key, std::string &RecordLine) = 0;

  /// Stores \p RecordLine (the exact appended keyed checkpoint line)
  /// under \p Key. \p Instruction names the record for invalidation.
  virtual void put(std::uint64_t Key, const std::string &Instruction,
                   const std::string &RecordLine) = 0;
};

} // namespace igdt

#endif // IGDT_EVALKIT_VERDICTSTORE_H
