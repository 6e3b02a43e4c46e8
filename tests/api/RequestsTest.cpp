//===- tests/api/RequestsTest.cpp ----------------------------------------------===//
//
// The versioned request/response vocabulary: JSON round-trips preserve
// every field, absent fields read tolerantly as defaults, schema
// versions newer than this build are rejected with a diagnostic that
// names both versions, retired keys that ask for removed behaviour and
// malformed integers are refused by name, toSessionConfig is a faithful mapping onto the
// nested option structs, and requestFromFlags parses the shared flag
// vocabulary the benches and the client CLI speak.
//
//===----------------------------------------------------------------------===//

#include "api/Requests.h"

#include "api/Session.h"
#include "jit/MachineSim.h"
#include "support/Flags.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

/// A request with every field off its default, so a round-trip that
/// drops any field fails loudly.
CampaignRequest fullyPopulated() {
  CampaignRequest R;
  R.Jobs = 6;
  R.MaxBytecodes = 11;
  R.MaxNativeMethods = 4;
  R.OnlyInstructions = {"bytecodePrim_add", "primitiveAdd"};
  R.CheckpointPath = "ckpt.jsonl";
  R.IncidentLogPath = "incidents.jsonl";
  R.TracePath = "trace.jsonl";
  R.StorePath = "store.jsonl";
  R.Profile = true;
  R.Deterministic = true;
  R.StopAfter = 5;
  R.MaxAttempts = 3;
  R.CrossEngineCheck = true;
  R.ExploreWorkUnits = 7000;
  R.ReplayWorkUnits = 5000;
  return R;
}

void expectEqual(const CampaignRequest &A, const CampaignRequest &B) {
  EXPECT_EQ(A.Jobs, B.Jobs);
  EXPECT_EQ(A.MaxBytecodes, B.MaxBytecodes);
  EXPECT_EQ(A.MaxNativeMethods, B.MaxNativeMethods);
  EXPECT_EQ(A.OnlyInstructions, B.OnlyInstructions);
  EXPECT_EQ(A.CheckpointPath, B.CheckpointPath);
  EXPECT_EQ(A.IncidentLogPath, B.IncidentLogPath);
  EXPECT_EQ(A.TracePath, B.TracePath);
  EXPECT_EQ(A.StorePath, B.StorePath);
  EXPECT_EQ(A.Profile, B.Profile);
  EXPECT_EQ(A.Deterministic, B.Deterministic);
  EXPECT_EQ(A.StopAfter, B.StopAfter);
  EXPECT_EQ(A.MaxAttempts, B.MaxAttempts);
  EXPECT_EQ(A.CrossEngineCheck, B.CrossEngineCheck);
  EXPECT_EQ(A.ExploreWorkUnits, B.ExploreWorkUnits);
  EXPECT_EQ(A.ReplayWorkUnits, B.ReplayWorkUnits);
}

/// Parses \p Text as a CampaignRequest; the error lands in \p Error.
bool parseRequest(const char *Text, std::string &Error) {
  std::optional<JsonValue> V = JsonValue::parse(Text);
  EXPECT_TRUE(V.has_value()) << Text;
  CampaignRequest Out;
  return V && CampaignRequest::fromJson(*V, Out, &Error);
}

} // namespace

TEST(RequestsTest, CampaignRequestRoundTripsEveryField) {
  CampaignRequest Original = fullyPopulated();
  CampaignRequest Parsed;
  std::string Error;
  ASSERT_TRUE(CampaignRequest::fromJson(Original.toJson(), Parsed, &Error))
      << Error;
  expectEqual(Original, Parsed);

  // And through the serialised text, as the wire actually carries it.
  std::optional<JsonValue> Reparsed = JsonValue::parse(Original.toJson().dump());
  ASSERT_TRUE(Reparsed.has_value());
  CampaignRequest FromText;
  ASSERT_TRUE(CampaignRequest::fromJson(*Reparsed, FromText, &Error)) << Error;
  expectEqual(Original, FromText);
}

TEST(RequestsTest, AbsentFieldsReadAsDefaultsAndBadInputIsRejected) {
  // A minimal envelope leaves every field at its default — this is what
  // lets new optional fields ship without a version bump.
  CampaignRequest Defaults, Minimal;
  ASSERT_TRUE(CampaignRequest::fromJson(*JsonValue::parse("{\"v\":1}"),
                                        Minimal));
  expectEqual(Defaults, Minimal);

  // A version without the "v" key is assumed current (hand-written
  // requests stay convenient)...
  ASSERT_TRUE(CampaignRequest::fromJson(*JsonValue::parse("{\"jobs\":3}"),
                                        Minimal));
  EXPECT_EQ(Minimal.Jobs, 3u);

  // ...but a non-object is not a request.
  std::string Error;
  EXPECT_FALSE(
      CampaignRequest::fromJson(*JsonValue::parse("[1,2]"), Minimal, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(RequestsTest, NewerSchemaVersionsAreRejectedNamingBothVersions) {
  CampaignRequest Out;
  std::string Error;
  EXPECT_FALSE(CampaignRequest::fromJson(
      *JsonValue::parse("{\"v\":2,\"jobs\":3}"), Out, &Error));
  EXPECT_NE(Error.find("2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("newer"), std::string::npos) << Error;

  ServiceRequest Req;
  EXPECT_FALSE(ServiceRequest::fromJson(
      *JsonValue::parse("{\"v\":7,\"verb\":\"ping\"}"), Req, &Error));
  StatusReply Status;
  EXPECT_FALSE(StatusReply::fromJson(*JsonValue::parse("{\"v\":7}"), Status,
                                     &Error));
  ServiceReply Reply;
  EXPECT_FALSE(ServiceReply::fromJson(*JsonValue::parse("{\"v\":7}"), Reply,
                                      &Error));
}

TEST(RequestsTest, ServiceEnvelopesRoundTrip) {
  ServiceRequest Req;
  Req.Verb = "submit";
  Req.SessionId = "s7";
  Req.Cursor = 42;
  Req.Instruction = "bytecodePrim_add";
  Req.StorePath = "other_store.jsonl";
  Req.WantProfile = true;
  Req.Campaign = fullyPopulated();
  ServiceRequest ReqBack;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(Req.toJson(), ReqBack, &Error)) << Error;
  EXPECT_EQ(ReqBack.Verb, "submit");
  EXPECT_EQ(ReqBack.SessionId, "s7");
  EXPECT_EQ(ReqBack.Cursor, 42u);
  EXPECT_EQ(ReqBack.Instruction, "bytecodePrim_add");
  EXPECT_EQ(ReqBack.StorePath, "other_store.jsonl");
  EXPECT_TRUE(ReqBack.WantProfile);
  expectEqual(Req.Campaign, ReqBack.Campaign);

  StatusReply Status;
  Status.State = "done";
  Status.Done = true;
  Status.Completed = 8;
  Status.Total = 9;
  Status.Resumed = 2;
  Status.StoreServed = 5;
  Status.Quarantined = 1;
  Status.Paths = 321;
  Status.LiveSolverQueries = 17;
  Status.ExitCode = 1;
  Status.Error = "boom";
  Status.ProfileJson = "{\"stages\":[]}";
  StatusReply StatusBack;
  ASSERT_TRUE(StatusReply::fromJson(Status.toJson(), StatusBack, &Error))
      << Error;
  EXPECT_EQ(StatusBack.State, "done");
  EXPECT_TRUE(StatusBack.Done);
  EXPECT_EQ(StatusBack.Completed, 8u);
  EXPECT_EQ(StatusBack.Total, 9u);
  EXPECT_EQ(StatusBack.Resumed, 2u);
  EXPECT_EQ(StatusBack.StoreServed, 5u);
  EXPECT_EQ(StatusBack.Quarantined, 1u);
  EXPECT_EQ(StatusBack.Paths, 321u);
  EXPECT_EQ(StatusBack.LiveSolverQueries, 17u);
  EXPECT_EQ(StatusBack.ExitCode, 1);
  EXPECT_EQ(StatusBack.Error, "boom");
  EXPECT_EQ(StatusBack.ProfileJson, "{\"stages\":[]}");

  ServiceReply Reply;
  Reply.Verb = "status";
  Reply.Ok = true;
  Reply.Body = "{\"x\":1}";
  ServiceReply ReplyBack;
  ASSERT_TRUE(ServiceReply::fromJson(Reply.toJson(), ReplyBack, &Error))
      << Error;
  EXPECT_EQ(ReplyBack.Verb, "status");
  EXPECT_TRUE(ReplyBack.Ok);
  EXPECT_EQ(ReplyBack.Body, "{\"x\":1}");
}

TEST(RequestsTest, ToSessionConfigIsAFaithfulMapping) {
  CampaignRequest R = fullyPopulated();
  SessionConfig Config = R.toSessionConfig();
  EXPECT_EQ(Config.Campaign.Jobs, 6u);
  EXPECT_EQ(Config.Campaign.Harness.MaxBytecodes, 11u);
  EXPECT_EQ(Config.Campaign.Harness.MaxNativeMethods, 4u);
  EXPECT_EQ(Config.Campaign.OnlyInstructions, R.OnlyInstructions);
  EXPECT_EQ(Config.Campaign.CheckpointPath, "ckpt.jsonl");
  EXPECT_EQ(Config.Campaign.IncidentLogPath, "incidents.jsonl");
  EXPECT_EQ(Config.Campaign.TracePath, "trace.jsonl");
  EXPECT_TRUE(Config.Profile);
  EXPECT_TRUE(Config.Deterministic);
  EXPECT_EQ(Config.Campaign.StopAfter, 5u);
  EXPECT_EQ(Config.Campaign.MaxAttempts, 3u);
  EXPECT_EQ(Config.Campaign.ExploreWorkUnits, 7000u);
  EXPECT_EQ(Config.Campaign.ReplayWorkUnits, 5000u);
  EXPECT_TRUE(Config.Campaign.Harness.CrossEngineCheck);
  // Replays always run on the default engine; a request names none.
  EXPECT_EQ(Config.Campaign.Harness.Sim.Engine, SimEngine::Threaded);
  // The store is process state, not configuration: never mapped here.
  EXPECT_EQ(Config.Campaign.Store, nullptr);

  // The empty request is the stock campaign.
  SessionConfig Stock = CampaignRequest().toSessionConfig();
  SessionConfig Defaults;
  EXPECT_EQ(Stock.Campaign.Jobs, Defaults.Campaign.Jobs);
  EXPECT_EQ(Stock.Campaign.MaxAttempts, Defaults.Campaign.MaxAttempts);
}

TEST(RequestsTest, RequestFromFlagsParsesTheSharedVocabulary) {
  CampaignRequest R;
  FlagParser Flags("requests_test", "test");
  requestFromFlags(Flags, R);
  const char *Argv[] = {"requests_test",
                        "--jobs",          "4",
                        "--max-bytecodes", "7",
                        "--only",          "bytecodePrim_add",
                        "--only",          "primitiveAdd",
                        "--checkpoint",    "c.jsonl",
                        "--store",         "s.jsonl",
                        "--deterministic",
                        "--max-attempts",  "3",
                        "--cross-engine-check"};
  ASSERT_TRUE(Flags.parse(int(std::size(Argv)), const_cast<char **>(Argv)));
  EXPECT_EQ(R.Jobs, 4u);
  EXPECT_EQ(R.MaxBytecodes, 7u);
  EXPECT_EQ(R.OnlyInstructions,
            (std::vector<std::string>{"bytecodePrim_add", "primitiveAdd"}));
  EXPECT_EQ(R.CheckpointPath, "c.jsonl");
  EXPECT_EQ(R.StorePath, "s.jsonl");
  EXPECT_TRUE(R.Deterministic);
  EXPECT_EQ(R.MaxAttempts, 3u);
  EXPECT_TRUE(R.CrossEngineCheck);
}

// Campaigns run in catalog order; a frame that still asks for the
// retired adaptive schedule is refused by name.
TEST(RequestsTest, RetiredScheduleKeyIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"schedule\":\"adaptive\"}", Error));
  EXPECT_NE(Error.find("'schedule'"), std::string::npos) << Error;
  EXPECT_NE(Error.find("adaptive"), std::string::npos) << Error;
  // The shipped value asks for nothing retired, and the keys that never
  // changed a fixed-order campaign are ignored like any unknown key.
  EXPECT_TRUE(parseRequest("{\"schedule\":\"fixed\",\"solver_tiers\":2,"
                           "\"budget_pool\":true,\"budget_pool_cap\":4,"
                           "\"warm_start\":\"y.jsonl\"}",
                           Error))
      << Error;
}

TEST(RequestsTest, RetiredTotalUnitsKeyIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"total_units\":500}", Error));
  EXPECT_NE(Error.find("'total_units'"), std::string::npos) << Error;
  EXPECT_TRUE(parseRequest("{\"total_units\":0}", Error)) << Error;
}

TEST(RequestsTest, RetiredYieldPersistenceKeyIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"persist_yield\":true}", Error));
  EXPECT_NE(Error.find("'persist_yield'"), std::string::npos) << Error;
  EXPECT_TRUE(parseRequest("{\"persist_yield\":false}", Error)) << Error;
}

TEST(RequestsTest, RetiredScheduleFlagIsAnUnknownFlag) {
  CampaignRequest R;
  FlagParser Flags("requests_test", "test");
  requestFromFlags(Flags, R);
  const char *Argv[] = {"requests_test", "--schedule", "adaptive"};
  EXPECT_FALSE(Flags.parse(int(std::size(Argv)), const_cast<char **>(Argv)));
}

// Campaigns run inline or on threads; a frame that still asks for
// forked worker processes is refused by name. The pool's two tuning
// keys asked for nothing on their own and are ignored like any unknown
// key.
TEST(RequestsTest, RetiredWorkersKeyIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"workers\":2}", Error));
  EXPECT_NE(Error.find("'workers'"), std::string::npos) << Error;
  EXPECT_TRUE(parseRequest("{\"workers\":0,\"worker_deadline_millis\":500,"
                           "\"worker_backoff_millis\":10}",
                           Error))
      << Error;
}

TEST(RequestsTest, RetiredWorkersFlagIsAnUnknownFlag) {
  for (const char *Flag :
       {"--workers", "--worker-deadline-millis", "--worker-backoff-millis"}) {
    CampaignRequest R;
    FlagParser Flags("requests_test", "test");
    requestFromFlags(Flags, R);
    const char *Argv[] = {"requests_test", Flag, "2"};
    EXPECT_FALSE(Flags.parse(int(std::size(Argv)), const_cast<char **>(Argv)))
        << Flag;
  }
}

// Budgets count work, not time; a frame that still asks for a
// wall-clock budget is refused by name, and a zero (what older clients
// send for "unlimited") asks for nothing.
TEST(RequestsTest, RetiredWallClockKeysAreRefused) {
  for (const char *Key :
       {"campaign_wall_millis", "explore_wall_millis", "replay_wall_millis"}) {
    std::string Error;
    std::string Nonzero = std::string("{\"") + Key + "\":50}";
    EXPECT_FALSE(parseRequest(Nonzero.c_str(), Error)) << Key;
    EXPECT_NE(Error.find(std::string("'") + Key + "'"), std::string::npos)
        << Error;
    std::string Zero = std::string("{\"") + Key + "\":0}";
    EXPECT_TRUE(parseRequest(Zero.c_str(), Error)) << Key << ": " << Error;
  }
}

TEST(RequestsTest, RetiredWallClockFlagsAreUnknownFlags) {
  for (const char *Flag : {"--campaign-wall-millis", "--explore-wall-millis",
                           "--replay-wall-millis"}) {
    CampaignRequest R;
    FlagParser Flags("requests_test", "test");
    requestFromFlags(Flags, R);
    const char *Argv[] = {"requests_test", Flag, "5"};
    EXPECT_FALSE(Flags.parse(int(std::size(Argv)), const_cast<char **>(Argv)))
        << Flag;
  }
}

// Replays run on the simulator and the native tier runs only as the
// cross-engine oracle; a frame that asks for another replay engine is
// refused by name. "threaded" is what every older client sends, so it
// asks for nothing.
TEST(RequestsTest, RetiredEngineKeyIsRefused) {
  std::string Error;
  EXPECT_TRUE(parseRequest("{\"engine\":\"threaded\"}", Error)) << Error;
  for (const char *Engine : {"switch", "native", "turbo"}) {
    std::string Frame = std::string("{\"engine\":\"") + Engine + "\"}";
    EXPECT_FALSE(parseRequest(Frame.c_str(), Error)) << Engine;
    EXPECT_NE(Error.find("'engine'"), std::string::npos) << Error;
    EXPECT_NE(Error.find(Engine), std::string::npos) << Error;
  }
}

TEST(RequestsTest, RetiredEngineFlagIsAnUnknownFlag) {
  CampaignRequest R;
  FlagParser Flags("requests_test", "test");
  requestFromFlags(Flags, R);
  const char *Argv[] = {"requests_test", "--engine", "threaded"};
  EXPECT_FALSE(Flags.parse(int(std::size(Argv)), const_cast<char **>(Argv)));
}

// Integer fields are read checked: casting a negative, huge or
// fractional double to an unsigned type is undefined or truncates, so
// each is refused, naming the field.
TEST(RequestsTest, NegativeSchemaVersionIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"v\":-1}", Error));
  EXPECT_NE(Error.find("'v'"), std::string::npos) << Error;
}

TEST(RequestsTest, NegativeJobsIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"jobs\":-1}", Error));
  EXPECT_NE(Error.find("'jobs'"), std::string::npos) << Error;
}

TEST(RequestsTest, OutOfRangeJobsIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"jobs\":1e20}", Error));
  EXPECT_NE(Error.find("'jobs'"), std::string::npos) << Error;
  // The largest value the field holds is still accepted.
  EXPECT_TRUE(parseRequest("{\"jobs\":4294967295}", Error)) << Error;
  EXPECT_FALSE(parseRequest("{\"jobs\":4294967296}", Error));
}

TEST(RequestsTest, FractionalStopAfterIsRefused) {
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"stop_after\":2.5}", Error));
  EXPECT_NE(Error.find("'stop_after'"), std::string::npos) << Error;
  // A whole number written with a fraction or exponent is still whole.
  EXPECT_TRUE(parseRequest("{\"stop_after\":2.0}", Error)) << Error;
  EXPECT_TRUE(parseRequest("{\"stop_after\":2e1}", Error)) << Error;
}

TEST(RequestsTest, OutOfRangeStatusExitCodeIsRefused) {
  // exit_code is a process exit status, so it is read as 0..255.
  for (const char *Text : {"{\"exit_code\":1e20}", "{\"exit_code\":-1}",
                           "{\"exit_code\":2.5}", "{\"exit_code\":256}"}) {
    std::optional<JsonValue> V = JsonValue::parse(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    StatusReply Out;
    std::string Error;
    EXPECT_FALSE(StatusReply::fromJson(*V, Out, &Error)) << Text;
    EXPECT_NE(Error.find("'exit_code'"), std::string::npos) << Error;
  }
  std::optional<JsonValue> V = JsonValue::parse("{\"exit_code\":255}");
  ASSERT_TRUE(V.has_value());
  StatusReply Out;
  std::string Error;
  ASSERT_TRUE(StatusReply::fromJson(*V, Out, &Error)) << Error;
  EXPECT_EQ(Out.ExitCode, 255);
}
