//===- api/Requests.cpp - Versioned request/response API ---------------------===//

#include "api/Requests.h"

#include "api/Session.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <limits>

using namespace igdt;

namespace {

/// Sets \p Error (when non-null) and fails: the one way fromJson refuses.
bool refuse(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

/// Checked read of one integer field; a bad value refuses the message,
/// naming the field.
template <typename T>
bool readField(const JsonValue &V, const char *What, const char *Key, T &Out,
               std::string *Error) {
  if (V.readUnsigned(Key, Out))
    return true;
  return refuse(Error, formatString("%s: bad integer '%s' (expected a whole "
                                    "number from 0 to %llu)",
                                    What, Key,
                                    (unsigned long long)
                                        std::numeric_limits<T>::max()));
}

/// Shared version gate: every fromJson starts here so the "newer than
/// this build" diagnostic reads the same everywhere.
bool checkEnvelope(const JsonValue &V, const char *What, unsigned &Version,
                   std::string *Error) {
  if (V.K != JsonValue::Kind::Object)
    return refuse(Error, formatString("%s: expected a JSON object", What));
  Version = ApiSchemaVersion;
  if (!readField(V, What, "v", Version, Error))
    return false;
  if (Version > ApiSchemaVersion)
    return refuse(Error, formatString("%s: schema version %u is newer than "
                                      "this build's %u",
                                      What, Version, ApiSchemaVersion));
  return true;
}

JsonValue num(double Value) { return JsonValue::number(Value); }
JsonValue numU64(std::uint64_t Value) {
  return JsonValue::number(static_cast<double>(Value));
}

} // namespace

//===----------------------------------------------------------------------===//
// CampaignRequest
//===----------------------------------------------------------------------===//

SessionConfig CampaignRequest::toSessionConfig() const {
  SessionConfig Config;
  Config.Campaign.Harness.CrossEngineCheck = CrossEngineCheck;
  Config.Campaign.Jobs = Jobs;
  Config.Campaign.Harness.MaxBytecodes = MaxBytecodes;
  Config.Campaign.Harness.MaxNativeMethods = MaxNativeMethods;
  Config.Campaign.OnlyInstructions = OnlyInstructions;
  Config.Campaign.CheckpointPath = CheckpointPath;
  Config.Campaign.IncidentLogPath = IncidentLogPath;
  Config.Campaign.TracePath = TracePath;
  Config.Profile = Profile;
  Config.Deterministic = Deterministic;
  Config.Campaign.StopAfter = StopAfter;
  Config.Campaign.MaxAttempts = MaxAttempts;
  Config.Campaign.ExploreWorkUnits = ExploreWorkUnits;
  Config.Campaign.ReplayWorkUnits = ReplayWorkUnits;
  // StorePath is not mapped here: a VerdictStore is process state, not
  // configuration. Session::runCampaign(const CampaignRequest&) and the
  // daemon open/attach the store themselves.
  return Config;
}

JsonValue CampaignRequest::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("v", num(Version));
  V.set("jobs", num(Jobs));
  V.set("max_bytecodes", num(MaxBytecodes));
  V.set("max_native_methods", num(MaxNativeMethods));
  JsonValue Only = JsonValue::array();
  for (const std::string &Name : OnlyInstructions)
    Only.push(JsonValue::string(Name));
  V.set("only", std::move(Only));
  V.set("checkpoint", JsonValue::string(CheckpointPath));
  V.set("incidents", JsonValue::string(IncidentLogPath));
  V.set("trace", JsonValue::string(TracePath));
  V.set("store", JsonValue::string(StorePath));
  V.set("profile", JsonValue::boolean(Profile));
  V.set("deterministic", JsonValue::boolean(Deterministic));
  V.set("stop_after", num(StopAfter));
  V.set("max_attempts", num(MaxAttempts));
  V.set("cross_engine_check", JsonValue::boolean(CrossEngineCheck));
  V.set("explore_work_units", numU64(ExploreWorkUnits));
  V.set("replay_work_units", numU64(ReplayWorkUnits));
  return V;
}

bool CampaignRequest::fromJson(const JsonValue &V, CampaignRequest &Out,
                               std::string *Error) {
  const char *What = "CampaignRequest";
  CampaignRequest R;
  if (!checkEnvelope(V, What, R.Version, Error))
    return false;
  auto Int = [&](const char *Key, auto &Field) {
    return readField(V, What, Key, Field, Error);
  };
  if (!Int("jobs", R.Jobs) || !Int("max_bytecodes", R.MaxBytecodes) ||
      !Int("max_native_methods", R.MaxNativeMethods) ||
      !Int("stop_after", R.StopAfter) || !Int("max_attempts", R.MaxAttempts) ||
      !Int("explore_work_units", R.ExploreWorkUnits) ||
      !Int("replay_work_units", R.ReplayWorkUnits))
    return false;
  // Retired keys: campaigns run in catalog order, in this process, with
  // per-instruction work budgets only, replaying on the simulator. A
  // frame that still asks for the adaptive schedule, a campaign-wide
  // budget, persisted yield, forked worker processes, a wall-clock
  // budget or another replay engine would silently get another campaign
  // than it asked for, so it is refused; the other retired keys never
  // changed such a campaign and are ignored.
  std::string Schedule = V.stringOr("schedule", "fixed");
  if (Schedule != "fixed")
    return refuse(Error, formatString("%s: retired key 'schedule' asks for "
                                      "'%s' (campaigns run in catalog order)",
                                      What, Schedule.c_str()));
  if (V.numberOr("total_units", 0) != 0)
    return refuse(Error, formatString("%s: retired key 'total_units' (no "
                                      "campaign-wide explore budget)",
                                      What));
  if (V.boolOr("persist_yield", false))
    return refuse(Error, formatString("%s: retired key 'persist_yield' "
                                      "(records carry no yield)",
                                      What));
  if (V.numberOr("workers", 0) != 0)
    return refuse(Error, formatString("%s: retired key 'workers' (campaigns "
                                      "run inline or on 'jobs' threads)",
                                      What));
  for (const char *Key :
       {"campaign_wall_millis", "explore_wall_millis", "replay_wall_millis"})
    if (V.numberOr(Key, 0) != 0)
      return refuse(Error, formatString("%s: retired key '%s' (budgets count "
                                        "work units, not time)",
                                        What, Key));
  // "threaded" is what every older client's toJson sends.
  std::string Engine = V.stringOr("engine", "threaded");
  if (Engine != "threaded")
    return refuse(Error, formatString("%s: retired key 'engine' asks for "
                                      "'%s' (replays run on the simulator; "
                                      "the native tier is the "
                                      "cross_engine_check oracle)",
                                      What, Engine.c_str()));
  if (const JsonValue *Only = V.find("only"))
    for (const JsonValue &Name : Only->Arr)
      if (Name.K == JsonValue::Kind::String)
        R.OnlyInstructions.push_back(Name.Str);
  R.CheckpointPath = V.stringOr("checkpoint", R.CheckpointPath);
  R.IncidentLogPath = V.stringOr("incidents", R.IncidentLogPath);
  R.TracePath = V.stringOr("trace", R.TracePath);
  R.StorePath = V.stringOr("store", R.StorePath);
  R.Profile = V.boolOr("profile", R.Profile);
  R.Deterministic = V.boolOr("deterministic", R.Deterministic);
  R.CrossEngineCheck = V.boolOr("cross_engine_check", R.CrossEngineCheck);
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// StatusReply
//===----------------------------------------------------------------------===//

JsonValue StatusReply::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("v", num(Version));
  V.set("state", JsonValue::string(State));
  V.set("done", JsonValue::boolean(Done));
  V.set("completed", num(Completed));
  V.set("total", num(Total));
  V.set("resumed", num(Resumed));
  V.set("store_served", num(StoreServed));
  V.set("quarantined", num(Quarantined));
  V.set("paths", numU64(Paths));
  V.set("live_solver_queries", numU64(LiveSolverQueries));
  V.set("exit_code", num(ExitCode));
  V.set("error", JsonValue::string(Error));
  V.set("profile", JsonValue::string(ProfileJson));
  return V;
}

bool StatusReply::fromJson(const JsonValue &V, StatusReply &Out,
                           std::string *Error) {
  StatusReply R;
  if (!checkEnvelope(V, "StatusReply", R.Version, Error))
    return false;
  R.State = V.stringOr("state", R.State);
  R.Done = V.boolOr("done", R.Done);
  auto Int = [&](const char *Key, auto &Field) {
    return readField(V, "StatusReply", Key, Field, Error);
  };
  if (!Int("completed", R.Completed) || !Int("total", R.Total) ||
      !Int("resumed", R.Resumed) || !Int("store_served", R.StoreServed) ||
      !Int("quarantined", R.Quarantined) || !Int("paths", R.Paths) ||
      !Int("live_solver_queries", R.LiveSolverQueries))
    return false;
  // A process exit status: 0..255.
  std::uint8_t ExitCode = std::uint8_t(R.ExitCode);
  if (!Int("exit_code", ExitCode))
    return false;
  R.ExitCode = ExitCode;
  R.Error = V.stringOr("error", R.Error);
  R.ProfileJson = V.stringOr("profile", R.ProfileJson);
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// ServiceRequest / ServiceReply
//===----------------------------------------------------------------------===//

JsonValue ServiceRequest::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("v", num(Version));
  V.set("verb", JsonValue::string(Verb));
  V.set("session", JsonValue::string(SessionId));
  V.set("cursor", numU64(Cursor));
  V.set("instruction", JsonValue::string(Instruction));
  V.set("store", JsonValue::string(StorePath));
  V.set("want_profile", JsonValue::boolean(WantProfile));
  V.set("campaign", Campaign.toJson());
  return V;
}

bool ServiceRequest::fromJson(const JsonValue &V, ServiceRequest &Out,
                              std::string *Error) {
  ServiceRequest R;
  if (!checkEnvelope(V, "ServiceRequest", R.Version, Error))
    return false;
  R.Verb = V.stringOr("verb", "");
  R.SessionId = V.stringOr("session", "");
  if (!readField(V, "ServiceRequest", "cursor", R.Cursor, Error))
    return false;
  R.Instruction = V.stringOr("instruction", "");
  R.StorePath = V.stringOr("store", "");
  R.WantProfile = V.boolOr("want_profile", false);
  if (const JsonValue *Campaign = V.find("campaign"))
    if (!CampaignRequest::fromJson(*Campaign, R.Campaign, Error))
      return false;
  Out = std::move(R);
  return true;
}

JsonValue ServiceReply::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("v", num(Version));
  V.set("verb", JsonValue::string(Verb));
  V.set("ok", JsonValue::boolean(Ok));
  V.set("error", JsonValue::string(Error));
  V.set("body", JsonValue::string(Body));
  return V;
}

bool ServiceReply::fromJson(const JsonValue &V, ServiceReply &Out,
                            std::string *Error) {
  ServiceReply R;
  if (!checkEnvelope(V, "ServiceReply", R.Version, Error))
    return false;
  R.Verb = V.stringOr("verb", "");
  R.Ok = V.boolOr("ok", false);
  R.Error = V.stringOr("error", "");
  R.Body = V.stringOr("body", "");
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// requestFromFlags
//===----------------------------------------------------------------------===//

void igdt::requestFromFlags(FlagParser &Flags, CampaignRequest &Request) {
  Flags.add("jobs", &Request.Jobs, "campaign worker threads (0 = hardware)");
  Flags.add("max-bytecodes", &Request.MaxBytecodes,
            "limit byte-code instructions (0 = all)");
  Flags.add("max-native-methods", &Request.MaxNativeMethods,
            "limit native methods (0 = all)");
  Flags.add("only", &Request.OnlyInstructions,
            "restrict to this instruction (repeatable)");
  Flags.add("checkpoint", &Request.CheckpointPath,
            "JSONL checkpoint file (resume + append)");
  Flags.add("incidents", &Request.IncidentLogPath,
            "JSONL incident report file");
  Flags.add("trace", &Request.TracePath,
            "JSONL trace file (merge-deterministic event stream)");
  Flags.add("store", &Request.StorePath,
            "content-addressed verdict store (JSONL; serves cached "
            "records byte-identically on re-runs)");
  Flags.add("profile", &Request.Profile,
            "collect metrics and print the end-of-run profile");
  Flags.add("deterministic", &Request.Deterministic,
            "drop wall timings so outputs are topology-independent");
  Flags.add("stop-after", &Request.StopAfter,
            "stop after N new instructions (0 = run to completion)");
  Flags.add("max-attempts", &Request.MaxAttempts,
            "attempts per instruction before quarantine");
  Flags.add("cross-engine-check", &Request.CrossEngineCheck,
            "run every path through the native tier as well and report "
            "native-vs-simulator divergence as a defect");
  Flags.add("explore-work-units", &Request.ExploreWorkUnits,
            "per-instruction exploration work budget (solver nodes)");
  Flags.add("replay-work-units", &Request.ReplayWorkUnits,
            "per-instruction replay work budget (tested paths)");
}
