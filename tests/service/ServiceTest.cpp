//===- tests/service/ServiceTest.cpp -------------------------------------------===//
//
// Campaign-as-a-service contracts, bottom up: the runner's store policy
// (cache-served checkpoints byte-identical to fresh ones under every
// armed harness fault and Jobs value, zero live solver work when fully
// warm, key changes forcing re-exploration), the in-process service
// verbs (submit/status/subscribe, version gating, refusal of retired
// request keys, concurrent submitters sharing one store), and the daemon over a real
// socket — including SIGKILL followed by reconnect-and-resume from the
// checkpoint.
//
//===----------------------------------------------------------------------===//

#include "service/CampaignService.h"

#include "evalkit/CampaignRunner.h"
#include "faults/DefectCatalog.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/ResultStore.h"
#include "service/WireProtocol.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_service_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// Clean configs: no seeded defects, so fault containment alone decides
/// the exit code and record bytes are small and stable.
CampaignOptions cleanOptions() {
  CampaignOptions Opts;
  Opts.Harness.VM = cleanVMConfig();
  Opts.Harness.Cogit = cleanCogitOptions();
  Opts.Harness.SeedSimulationErrors = false;
  Opts.RecordTimings = false;
  return Opts;
}

const std::vector<std::string> &nineInstructions() {
  static const std::vector<std::string> Names = {
      "bytecodePrim_add",    "bytecodePrim_sub",   "bytecodePrim_mul",
      "bytecodePrim_div",    "primitiveAdd",       "primitiveFloatAdd",
      "bytecodePrim_bitAnd", "bytecodePrim_bitOr", "bytecodePrim_bitXor"};
  return Names;
}

/// All four injectable harness malfunctions, one per instruction,
/// leaving the other five clean (so the store has something to hit).
HarnessFaultPlan fourFaults() {
  HarnessFaultPlan Plan;
  Plan.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };
  return Plan;
}

/// Polls the in-process service until \p SessionId reports done/failed.
StatusReply waitDone(CampaignService &Service, const std::string &SessionId) {
  ServiceRequest Req;
  Req.Verb = "status";
  Req.SessionId = SessionId;
  for (;;) {
    ServiceReply Reply = Service.handle(Req);
    EXPECT_TRUE(Reply.Ok) << Reply.Error;
    StatusReply Status;
    EXPECT_TRUE(StatusReply::fromJson(*JsonValue::parse(Reply.Body), Status));
    if (Status.Done || !Reply.Ok)
      return Status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::string submitOk(CampaignService &Service, const CampaignRequest &Campaign,
                     JsonValue *BodyOut = nullptr) {
  ServiceRequest Req;
  Req.Verb = "submit";
  Req.Campaign = Campaign;
  ServiceReply Reply = Service.handle(Req);
  EXPECT_TRUE(Reply.Ok) << Reply.Error;
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  EXPECT_TRUE(Body.has_value());
  if (BodyOut)
    *BodyOut = *Body;
  return Body->stringOr("session", "");
}

} // namespace

//===----------------------------------------------------------------------===//
// Runner-level store policy
//===----------------------------------------------------------------------===//

TEST(ServiceTest, WarmRunServesEverythingWithZeroLiveSolverWork) {
  ResultStore Store(""); // in memory
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = nineInstructions();
  Opts.Store = &Store;
  Opts.CheckpointPath = tempPath("warm_cold.jsonl");

  CampaignSummary Cold = CampaignRunner(Opts).run();
  EXPECT_TRUE(Cold.StoreActive);
  EXPECT_EQ(Cold.StoreServed, 0u);
  EXPECT_EQ(Cold.StoreStores, 9u);
  EXPECT_GT(Cold.Solver.Queries, 0u);
  // A cold run's live work is all of its work.
  EXPECT_EQ(Cold.LiveSolver.Queries, Cold.Solver.Queries);

  std::string ColdCheckpoint = Opts.CheckpointPath;
  Opts.CheckpointPath = tempPath("warm_warm.jsonl");
  CampaignSummary Warm = CampaignRunner(Opts).run();
  EXPECT_EQ(Warm.StoreServed, 9u);
  EXPECT_EQ(Warm.StoreHits, 9u);
  // The zero-work gate: a fully warm run performs no solver queries at
  // all, and serves records byte-for-byte.
  EXPECT_EQ(Warm.LiveSolver.Queries, 0u);
  EXPECT_EQ(Warm.CompletedInstructions, 9u);
  std::string ColdBytes = slurp(ColdCheckpoint);
  ASSERT_FALSE(ColdBytes.empty());
  EXPECT_EQ(ColdBytes, slurp(Opts.CheckpointPath));

  std::remove(ColdCheckpoint.c_str());
  std::remove(Opts.CheckpointPath.c_str());
}

TEST(ServiceTest, CacheHitBytesAreIdenticalUnderFaultsAcrossTopologies) {
  // Cold pass inline, all four harness faults armed: only the five
  // clean instructions enter the store (quarantined records are never
  // cached).
  ResultStore Store(""); // in memory
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = nineInstructions();
  Opts.Faults = fourFaults();
  Opts.Store = &Store;
  Opts.CheckpointPath = tempPath("faults_cold.jsonl");

  CampaignSummary Cold = CampaignRunner(Opts).run();
  EXPECT_EQ(Cold.CompletedInstructions, 9u);
  EXPECT_EQ(Cold.Quarantined.size(), 4u);
  EXPECT_EQ(Cold.StoreStores, 5u);
  EXPECT_EQ(Store.size(), 5u);
  EXPECT_EQ(Cold.exitCode(), 0);
  std::string ColdBytes = slurp(Opts.CheckpointPath);
  ASSERT_FALSE(ColdBytes.empty());
  std::remove(Opts.CheckpointPath.c_str());

  // Warm passes at Jobs 1, 2 and 4. The config fingerprint
  // deliberately excludes Jobs, so every pass hits the same keys; the
  // quarantined four re-run and must reproduce their incidents
  // byte-identically, leaving the whole checkpoint equal to the cold
  // one.
  for (unsigned Jobs : {1u, 2u, 4u}) {
    CampaignOptions WarmOpts = Opts;
    WarmOpts.Jobs = Jobs;
    WarmOpts.CheckpointPath = tempPath("faults_warm.jsonl");
    CampaignSummary Warm = CampaignRunner(WarmOpts).run();
    EXPECT_EQ(Warm.StoreServed, 5u) << "jobs=" << Jobs;
    EXPECT_EQ(Warm.Quarantined.size(), 4u);
    EXPECT_EQ(Warm.exitCode(), 0);
    EXPECT_EQ(ColdBytes, slurp(WarmOpts.CheckpointPath)) << "jobs=" << Jobs;
    std::remove(WarmOpts.CheckpointPath.c_str());
  }
}

TEST(ServiceTest, KeyChangesForceReexplorationAndInvalidationIsExact) {
  ResultStore Store(""); // in memory
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = nineInstructions();
  Opts.Store = &Store;
  CampaignOptions Cold = Opts;
  Cold.CheckpointPath = tempPath("key_cold.jsonl");
  CampaignRunner(Cold).run();
  ASSERT_EQ(Store.size(), 9u);

  // A record-shaping config change misses every key: full re-explore.
  CampaignOptions Changed = Opts;
  Changed.MaxAttempts = 3;
  CampaignSummary Reexplored = CampaignRunner(Changed).run();
  EXPECT_EQ(Reexplored.StoreServed, 0u);
  EXPECT_EQ(Reexplored.StoreMisses, 9u);
  EXPECT_GT(Reexplored.LiveSolver.Queries, 0u);
  // The re-explored generation was written back under its own keys;
  // both configs now serve warm, side by side.
  EXPECT_EQ(Store.size(), 18u);

  // Invalidating one instruction (both generations of it) re-explores
  // exactly that one; the other eight still serve from the store.
  // The re-explored record is byte-identical to the cold one, so the
  // checkpoint is too.
  EXPECT_EQ(Store.invalidate("bytecodePrim_add"), 2u);
  CampaignOptions Incremental = Opts;
  Incremental.CheckpointPath = tempPath("key_incremental.jsonl");
  CampaignSummary OneMiss = CampaignRunner(Incremental).run();
  EXPECT_EQ(OneMiss.StoreServed, 8u);
  EXPECT_EQ(OneMiss.StoreMisses, 1u);
  std::string ColdBytes = slurp(Cold.CheckpointPath);
  EXPECT_FALSE(ColdBytes.empty());
  EXPECT_EQ(slurp(Incremental.CheckpointPath), ColdBytes);
  // The re-explored record was written back: fully warm again.
  CampaignSummary Full = CampaignRunner(Opts).run();
  EXPECT_EQ(Full.StoreServed, 9u);
  EXPECT_EQ(Full.LiveSolver.Queries, 0u);
  std::remove(Cold.CheckpointPath.c_str());
  std::remove(Incremental.CheckpointPath.c_str());
}

TEST(ServiceTest, IneligibleConfigsBypassTheStoreEntirely) {
  ResultStore Store(""); // in memory
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add"};
  Opts.Store = &Store;
  Opts.CampaignWallMillis = 60000;
  CampaignSummary S = CampaignRunner(Opts).run();
  EXPECT_FALSE(S.StoreActive);
  EXPECT_EQ(S.StoreServed, 0u);
  EXPECT_EQ(Store.size(), 0u) << "timing-dependent records must not be cached";
}

//===----------------------------------------------------------------------===//
// The in-process service
//===----------------------------------------------------------------------===//

TEST(ServiceTest, SubmitStatusSubscribeLifecycle) {
  CampaignService Service;
  CampaignRequest Campaign;
  Campaign.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                               "primitiveAdd"};
  Campaign.CheckpointPath = tempPath("svc_lifecycle.jsonl");
  std::string SessionId = submitOk(Service, Campaign);
  ASSERT_FALSE(SessionId.empty());

  StatusReply Status = waitDone(Service, SessionId);
  EXPECT_EQ(Status.State, "done");
  EXPECT_EQ(Status.Completed, 3u);
  EXPECT_EQ(Status.Total, 3u);
  EXPECT_EQ(Status.Quarantined, 0u);
  EXPECT_GT(Status.Paths, 0u);
  EXPECT_GT(Status.LiveSolverQueries, 0u);

  // The session's trace stream drains through cursor-based subscribe
  // and terminates: every event is a JSON object, and the final batch
  // reports done.
  ServiceRequest Sub;
  Sub.Verb = "subscribe";
  Sub.SessionId = SessionId;
  std::size_t Events = 0;
  for (bool Done = false; !Done;) {
    ServiceReply Reply = Service.handle(Sub);
    ASSERT_TRUE(Reply.Ok) << Reply.Error;
    std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
    ASSERT_TRUE(Body.has_value());
    if (const JsonValue *Batch = Body->find("events"))
      for (const JsonValue &Event : Batch->Arr) {
        EXPECT_TRUE(JsonValue::parse(Event.Str).has_value()) << Event.Str;
        ++Events;
      }
    Sub.Cursor = std::uint64_t(Body->numberOr("next", 0));
    Done = Body->boolOr("done", false);
  }
  EXPECT_GT(Events, 0u);

  // Unknown session and unknown verb answer Ok=false, not a crash.
  ServiceRequest Bad;
  Bad.Verb = "status";
  Bad.SessionId = "s999";
  EXPECT_FALSE(Service.handle(Bad).Ok);
  Bad.Verb = "frobnicate";
  EXPECT_FALSE(Service.handle(Bad).Ok);
  std::remove(Campaign.CheckpointPath.c_str());
}

TEST(ServiceTest, FinishedSessionWorkersAreJoinedAndStatusStaysServed) {
  CampaignService Service;
  CampaignRequest Campaign;
  Campaign.OnlyInstructions = {"bytecodePrim_add"};
  std::vector<std::string> Ids;
  for (int I = 0; I < 6; ++I) {
    Ids.push_back(submitOk(Service, Campaign));
    EXPECT_EQ(waitDone(Service, Ids.back()).State, "done");
  }
  // Each submit joins the workers that finished before it, so at most
  // the previous session (still returning) and the newest are unjoined.
  EXPECT_LE(Service.unjoinedWorkers(), 2u);
  // A joined session still answers status with its final reply.
  StatusReply First = waitDone(Service, Ids.front());
  EXPECT_EQ(First.State, "done");
  EXPECT_EQ(First.Completed, 1u);
}

TEST(ServiceTest, NewerSchemaVersionsAreRejectedLoudly) {
  CampaignService Service;
  std::string ReplyJson = Service.handleJson(
      "{\"v\":99,\"verb\":\"ping\"}");
  ServiceReply Reply;
  ASSERT_TRUE(ServiceReply::fromJson(*JsonValue::parse(ReplyJson), Reply));
  EXPECT_FALSE(Reply.Ok);
  EXPECT_NE(Reply.Error.find("newer"), std::string::npos) << Reply.Error;

  // Unparseable input is an error reply too, never an exception.
  ASSERT_TRUE(ServiceReply::fromJson(
      *JsonValue::parse(Service.handleJson("not json")), Reply));
  EXPECT_FALSE(Reply.Ok);
}

TEST(ServiceTest, WorkerProcessRequestsAreRefused) {
  // Campaigns run inline or on threads. A submit that still asks for
  // forked worker processes is refused by name and starts no session;
  // it is never quietly run another way.
  CampaignService Service;
  ServiceRequest Req;
  Req.Verb = "submit";
  Req.Campaign.OnlyInstructions = {"bytecodePrim_add"};
  std::string Json = Req.toJson().dump();
  std::size_t At = Json.find("\"campaign\":{");
  ASSERT_NE(At, std::string::npos) << Json;
  Json.insert(At + 12, "\"workers\":2,");
  ServiceReply Reply;
  ASSERT_TRUE(
      ServiceReply::fromJson(*JsonValue::parse(Service.handleJson(Json)), Reply));
  EXPECT_FALSE(Reply.Ok);
  EXPECT_NE(Reply.Error.find("'workers'"), std::string::npos) << Reply.Error;
  EXPECT_EQ(Service.metrics().counter("service.bad_requests"), 1u);
  EXPECT_EQ(Service.metrics().counter("service.submits"), 0u);
}

TEST(ServiceTest, ConcurrentSubmittersShareOneStoreWithoutTearing) {
  ServiceOptions Opts;
  Opts.StorePath = tempPath("svc_shared_store.jsonl");
  std::vector<std::string> Checkpoints;
  {
    CampaignService Service(Opts);
    CampaignRequest Campaign;
    Campaign.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                                 "bytecodePrim_mul", "primitiveAdd"};
    // Sessions that lose the store race compute their records fresh;
    // without timings in the records, fresh and served bytes agree.
    Campaign.Deterministic = true;
    // Four sessions race on the same four keys; every session has its
    // own checkpoint, the store is shared.
    std::vector<std::string> Sessions;
    for (int I = 0; I < 4; ++I) {
      CampaignRequest C = Campaign;
      C.CheckpointPath =
          tempPath("svc_ckpt_" + std::to_string(I) + ".jsonl");
      Checkpoints.push_back(C.CheckpointPath);
      JsonValue Body;
      Sessions.push_back(submitOk(Service, C, &Body));
      EXPECT_TRUE(Body.boolOr("store_attached", false));
    }
    for (const std::string &Id : Sessions) {
      StatusReply Status = waitDone(Service, Id);
      EXPECT_EQ(Status.State, "done");
      EXPECT_EQ(Status.Completed, 4u);
    }
  }

  // However the races resolved, the log must hold whole rows: every
  // line parses, and it reloads to exactly the four live entries.
  for (const std::string &Line : readLines(Opts.StorePath)) {
    std::optional<JsonValue> V = JsonValue::parse(Line);
    ASSERT_TRUE(V.has_value()) << "interleaved store row: " << Line;
    EXPECT_FALSE(V->stringOr("record", "").empty()) << Line;
  }
  ResultStore Reloaded(Opts.StorePath);
  EXPECT_EQ(Reloaded.size(), 4u);

  // And the checkpoints agree byte-for-byte: four concurrent sessions
  // of the same request are one deterministic answer.
  std::string First = slurp(Checkpoints[0]);
  ASSERT_FALSE(First.empty());
  for (const std::string &Path : Checkpoints) {
    EXPECT_EQ(First, slurp(Path));
    std::remove(Path.c_str());
  }
  std::remove(Opts.StorePath.c_str());
}

//===----------------------------------------------------------------------===//
// The daemon over a real socket
//===----------------------------------------------------------------------===//

TEST(ServiceTest, DaemonAnswersOverTheSocketAndServesWarmResubmits) {
  if (!unixSocketsAvailable())
    GTEST_SKIP() << "no unix-domain sockets on this platform";
  DaemonOptions Opts;
  Opts.SocketPath = tempPath("d_roundtrip.sock");
  Opts.Service.StorePath = tempPath("d_roundtrip_store.jsonl");
  Daemon D(Opts);
  std::string Error;
  ASSERT_TRUE(D.start(&Error)) << Error;
  std::thread Serving([&] { D.run(); });

  ServiceClient Client(Opts.SocketPath);
  EXPECT_TRUE(Client.ping(&Error)) << Error;

  CampaignRequest Campaign;
  Campaign.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub"};
  Campaign.CheckpointPath = tempPath("d_roundtrip_cold.jsonl");
  std::string SessionId;
  StatusReply Cold, Warm;
  ASSERT_TRUE(Client.submit(Campaign, false, SessionId, &Error)) << Error;
  ASSERT_TRUE(Client.wait(SessionId, Cold, &Error)) << Error;
  EXPECT_EQ(Cold.State, "done");
  EXPECT_EQ(Cold.StoreServed, 0u);

  std::string ColdCheckpoint = Campaign.CheckpointPath;
  Campaign.CheckpointPath = tempPath("d_roundtrip_warm.jsonl");
  ASSERT_TRUE(Client.submit(Campaign, false, SessionId, &Error)) << Error;
  ASSERT_TRUE(Client.wait(SessionId, Warm, &Error)) << Error;
  EXPECT_EQ(Warm.StoreServed, 2u);
  EXPECT_EQ(Warm.LiveSolverQueries, 0u);
  EXPECT_EQ(slurp(ColdCheckpoint), slurp(Campaign.CheckpointPath));

  std::size_t Kept = 0, Dropped = 0;
  EXPECT_TRUE(Client.gc(/*StorePath=*/"", Kept, Dropped, &Error)) << Error;
  EXPECT_EQ(Kept, 2u);

  EXPECT_TRUE(Client.shutdown(&Error)) << Error;
  Serving.join();
  std::remove(ColdCheckpoint.c_str());
  std::remove(Campaign.CheckpointPath.c_str());
  std::remove(Opts.Service.StorePath.c_str());
  std::remove(Opts.SocketPath.c_str());
}

TEST(ServiceTest, DaemonJoinsFinishedConnectionThreads) {
  if (!unixSocketsAvailable())
    GTEST_SKIP() << "no unix-domain sockets on this platform";
  DaemonOptions Opts;
  Opts.SocketPath = tempPath("d_reap.sock");
  Daemon D(Opts);
  std::string Error;
  ASSERT_TRUE(D.start(&Error)) << Error;
  std::thread Serving([&] { D.run(); });

  // Every client call is its own connection. Threads of finished
  // connections are joined on the next accept, so the count stays
  // bounded instead of growing by one per round trip.
  ServiceClient Client(Opts.SocketPath);
  for (int I = 0; I < 200; ++I)
    ASSERT_TRUE(Client.ping(&Error)) << Error;
  EXPECT_LE(D.unjoinedConnections(), 8u);

  EXPECT_TRUE(Client.shutdown(&Error)) << Error;
  Serving.join();
  EXPECT_EQ(D.unjoinedConnections(), 0u);
  std::remove(Opts.SocketPath.c_str());
}

TEST(ServiceTest, DaemonRejectsANestingBombAndKeepsServing) {
  if (!unixSocketsAvailable())
    GTEST_SKIP() << "no unix-domain sockets on this platform";
  DaemonOptions Opts;
  Opts.SocketPath = tempPath("d_bomb.sock");
  Daemon D(Opts);
  std::string Error;
  ASSERT_TRUE(D.start(&Error)) << Error;
  std::thread Serving([&] { D.run(); });

  // A 100 KB request frame nesting 100 000 arrays: well inside the
  // frame size limit, and deep enough to overflow the stack of a parser
  // that recursed without a cap.
  int Fd = unixConnect(Opts.SocketPath, &Error);
  ASSERT_GE(Fd, 0) << Error;
  std::string Bomb = encodeFrame(FrameType::Request, std::string(100000, '['));
  ASSERT_TRUE(writeAll(Fd, Bomb.data(), Bomb.size()));
  FrameDecoder Decoder;
  WireFrame Frame;
  FrameDecoder::Status S = FrameDecoder::Status::NeedMore;
  char Buf[4096];
  while (S == FrameDecoder::Status::NeedMore) {
    long N = readSome(Fd, Buf, sizeof(Buf));
    ASSERT_GT(N, 0) << "daemon closed the connection without replying";
    Decoder.feed(Buf, std::size_t(N));
    S = Decoder.next(Frame);
  }
  closeFd(Fd);
  ASSERT_EQ(S, FrameDecoder::Status::Frame);
  EXPECT_EQ(Frame.Type, FrameType::Reply);
  std::optional<JsonValue> V = JsonValue::parse(Frame.Payload);
  ASSERT_TRUE(V.has_value());
  ServiceReply Reply;
  ASSERT_TRUE(ServiceReply::fromJson(*V, Reply, &Error)) << Error;
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(Reply.Error, "malformed request JSON");

  // The same daemon still answers.
  ServiceClient Client(Opts.SocketPath);
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  EXPECT_TRUE(Client.shutdown(&Error)) << Error;
  Serving.join();
  EXPECT_EQ(D.service().metrics().counter("service.bad_requests"), 1u);
  std::remove(Opts.SocketPath.c_str());
}

#if !defined(_WIN32)
#if defined(__SANITIZE_THREAD__)
#define IGDT_SERVICE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IGDT_SERVICE_TEST_TSAN 1
#endif
#endif

namespace {

/// Forks an igdtd-equivalent child daemon; never returns in the child.
pid_t forkDaemon(const std::string &SocketPath, const std::string &StorePath) {
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;
  DaemonOptions Opts;
  Opts.SocketPath = SocketPath;
  Opts.Service.StorePath = StorePath;
  Daemon D(Opts);
  if (!D.start(nullptr))
    _exit(9);
  D.run();
  _exit(0);
}

bool pingWithRetry(ServiceClient &Client) {
  for (int I = 0; I < 200; ++I) {
    if (Client.ping())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

} // namespace

TEST(ServiceTest, SigkilledDaemonRestartsAndResumesFromTheCheckpoint) {
#if defined(IGDT_SERVICE_TEST_TSAN)
  GTEST_SKIP() << "fork of a threaded daemon is unsupported under TSan";
#endif
  if (!unixSocketsAvailable())
    GTEST_SKIP() << "no unix-domain sockets on this platform";
  std::string SocketPath = tempPath("d_kill.sock");
  std::string StorePath = tempPath("d_kill_store.jsonl");
  std::string CheckpointPath = tempPath("d_kill_ckpt.jsonl");

  pid_t First = forkDaemon(SocketPath, StorePath);
  ASSERT_GT(First, 0);
  ServiceClient Client(SocketPath);
  ASSERT_TRUE(pingWithRetry(Client));

  // A worklist long enough to be mid-flight when the axe falls.
  CampaignRequest Campaign;
  Campaign.MaxBytecodes = 60;
  Campaign.MaxNativeMethods = 1;
  Campaign.CheckpointPath = CheckpointPath;
  std::string SessionId, Error;
  ASSERT_TRUE(Client.submit(Campaign, false, SessionId, &Error)) << Error;

  // Wait for at least three checkpointed records, then SIGKILL — no
  // shutdown handshake, no flush courtesy.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (readLines(CheckpointPath).size() < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "campaign produced no checkpoint rows";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(kill(First, SIGKILL), 0);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(First, &WaitStatus, 0), First);
  ASSERT_TRUE(WIFSIGNALED(WaitStatus));

  // Reconnect-and-resume is just "start a daemon, call again": the new
  // process binds the same socket, the resubmitted request picks the
  // checkpoint up where the murdered session left it.
  pid_t Second = forkDaemon(SocketPath, StorePath);
  ASSERT_GT(Second, 0);
  ASSERT_TRUE(pingWithRetry(Client));
  StatusReply Final;
  ASSERT_TRUE(Client.submit(Campaign, false, SessionId, &Error)) << Error;
  ASSERT_TRUE(Client.wait(SessionId, Final, &Error)) << Error;
  EXPECT_EQ(Final.State, "done");
  EXPECT_GE(Final.Resumed, 3u);
  // Completed counts this run's work; with the checkpointed records
  // restored, nothing is lost and nothing is done twice.
  EXPECT_EQ(Final.Completed + Final.Resumed, Final.Total);
  // Every record ends up checkpointed exactly once; a line the SIGKILL
  // tore mid-append is unparseable and its record was re-run.
  std::size_t ParsedRows = 0;
  for (const std::string &Line : readLines(CheckpointPath))
    if (JsonValue::parse(Line))
      ++ParsedRows;
  EXPECT_EQ(std::size_t(Final.Total), ParsedRows);

  EXPECT_TRUE(Client.shutdown(&Error)) << Error;
  ASSERT_EQ(waitpid(Second, &WaitStatus, 0), Second);
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0);
  std::remove(SocketPath.c_str());
  std::remove(StorePath.c_str());
  std::remove(CheckpointPath.c_str());
}
#endif // !_WIN32
