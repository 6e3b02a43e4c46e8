//===- api/Requests.h - Versioned request/response API ----------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned request/response vocabulary shared by the Session
/// façade, the campaign daemon's wire protocol, and every bench/example
/// command line. A caller no longer wires nine option structs or thirty
/// flags by hand: it fills one CampaignRequest — by hand, from JSON, or
/// from argv via requestFromFlags() — and submits it. SessionConfig
/// keeps owning the nested option structs internally; toSessionConfig()
/// is the single place the request vocabulary maps onto them, so the
/// CLI, the daemon and embedders cannot drift apart.
///
/// Every message carries a SchemaVersion ("v"). fromJson rejects
/// messages whose version is newer than this build understands, which
/// is what lets a long-running daemon and a newer client disagree
/// loudly instead of silently misreading fields.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_API_REQUESTS_H
#define IGDT_API_REQUESTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

struct JsonValue;
struct SessionConfig;
class FlagParser;

/// The request/response schema generation this build speaks. Bump when
/// a field changes meaning (adding optional fields with defaults does
/// not require a bump — fromJson reads tolerantly).
constexpr unsigned ApiSchemaVersion = 1;

/// One full campaign submission: the entire session flag vocabulary as
/// data. Field defaults mirror the CampaignOptions/SessionConfig
/// defaults so an empty request means "run the stock campaign".
struct CampaignRequest {
  unsigned Version = ApiSchemaVersion;

  /// \name Topology
  /// @{
  unsigned Jobs = 1;
  /// @}

  /// \name Catalog selection
  /// @{
  unsigned MaxBytecodes = 0;
  unsigned MaxNativeMethods = 0;
  std::vector<std::string> OnlyInstructions;
  /// @}

  /// \name Artifacts
  /// @{
  std::string CheckpointPath;
  std::string IncidentLogPath;
  std::string TracePath;
  /// Content-addressed verdict store backing file; empty = no store.
  /// (Daemon-side: sessions naming the same path share one store.)
  std::string StorePath;
  /// @}

  /// \name Session behaviour
  /// @{
  bool Profile = false;
  bool Deterministic = false;
  unsigned StopAfter = 0;
  unsigned MaxAttempts = 2;
  /// Execution engine for every replay: "switch", "threaded", or
  /// "native" (jit/MachineSim.h SimEngine). Unsupported engines degrade
  /// gracefully at run time; unknown names are rejected loudly by
  /// toSessionConfig/fromJson.
  std::string Engine = "threaded";
  /// Run every path through the native tier as well and report
  /// divergence from the simulator as a first-class defect family.
  bool CrossEngineCheck = false;
  /// @}

  /// \name Budgets
  /// @{
  double CampaignWallMillis = 0;
  double ExploreWallMillis = 0;
  std::uint64_t ExploreWorkUnits = 0;
  double ReplayWallMillis = 0;
  std::uint64_t ReplayWorkUnits = 0;
  /// @}

  /// Maps the request onto the nested option structs. The only
  /// request→config translation in the tree; Session::runCampaign(const
  /// CampaignRequest&) and the daemon both go through it.
  SessionConfig toSessionConfig() const;

  JsonValue toJson() const;

  /// Parses \p V into \p Out. Returns false (with \p Error set when
  /// non-null) for a non-object, a schema version newer than
  /// ApiSchemaVersion, an integer field that is negative, fractional or
  /// out of range, or a retired key that still asks for behaviour this
  /// build no longer has ("schedule" other than "fixed", a nonzero
  /// "total_units", "persist_yield": true, a nonzero "workers"); absent
  /// fields keep their defaults and unknown keys are ignored.
  static bool fromJson(const JsonValue &V, CampaignRequest &Out,
                       std::string *Error = nullptr);
};

/// A single-instruction exploration request (the Session::explore verb
/// over the wire).
struct ExploreRequest {
  unsigned Version = ApiSchemaVersion;
  std::string Instruction;

  JsonValue toJson() const;
  static bool fromJson(const JsonValue &V, ExploreRequest &Out,
                       std::string *Error = nullptr);
};

/// Campaign progress/result snapshot (the daemon's status verb and the
/// terminal reply of a blocking submit).
struct StatusReply {
  unsigned Version = ApiSchemaVersion;
  /// "queued", "running", "done", or "failed".
  std::string State = "queued";
  bool Done = false;
  unsigned Completed = 0;
  unsigned Total = 0;
  unsigned Resumed = 0;
  unsigned StoreServed = 0;
  unsigned Quarantined = 0;
  std::uint64_t Paths = 0;
  /// Solver queries this run actually performed (store-served records
  /// excluded) — the warm-run zero-work gate.
  std::uint64_t LiveSolverQueries = 0;
  int ExitCode = 0;
  std::string Error;
  /// ProfileReport::toJson() dump when the request asked for a profile;
  /// empty otherwise.
  std::string ProfileJson;

  JsonValue toJson() const;
  static bool fromJson(const JsonValue &V, StatusReply &Out,
                       std::string *Error = nullptr);
};

/// The daemon request envelope: one verb plus its arguments. Verbs:
/// "submit" (Campaign), "status" (SessionId), "subscribe" (SessionId +
/// Cursor; long-poll event batch), "invalidate" (StorePath +
/// Instruction, empty = all), "gc" (StorePath), "ping", "shutdown".
struct ServiceRequest {
  unsigned Version = ApiSchemaVersion;
  std::string Verb;
  std::string SessionId;
  /// subscribe: first event index wanted.
  std::uint64_t Cursor = 0;
  /// invalidate: instruction name (empty = whole store).
  std::string Instruction;
  /// invalidate/gc: which store to operate on (defaults to the
  /// daemon's configured store when empty).
  std::string StorePath;
  bool WantProfile = false;
  CampaignRequest Campaign;

  JsonValue toJson() const;
  static bool fromJson(const JsonValue &V, ServiceRequest &Out,
                       std::string *Error = nullptr);
};

/// The daemon reply envelope. Body is verb-specific JSON (a StatusReply
/// for submit/status, an event batch for subscribe, counters for
/// invalidate/gc), already serialised so the transport stays schema-
/// agnostic.
struct ServiceReply {
  unsigned Version = ApiSchemaVersion;
  std::string Verb;
  bool Ok = false;
  std::string Error;
  /// Verb-specific payload as a compact JSON string; empty when the
  /// verb has none.
  std::string Body;

  JsonValue toJson() const;
  static bool fromJson(const JsonValue &V, ServiceReply &Out,
                       std::string *Error = nullptr);
};

/// Registers the full session flag vocabulary against \p Request — the
/// one shared way a binary's argv becomes a CampaignRequest. Binaries
/// that need extra knobs register them separately on the same parser.
void requestFromFlags(FlagParser &Flags, CampaignRequest &Request);

} // namespace igdt

#endif // IGDT_API_REQUESTS_H
