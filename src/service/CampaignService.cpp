//===- service/CampaignService.cpp - Daemon-side campaign sessions -----------===//

#include "service/CampaignService.h"

#include "api/Session.h"
#include "observe/TraceBus.h"
#include "service/ResultStore.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

using namespace igdt;

namespace {

/// Captures the campaign's merged trace stream for subscribers: one
/// serialised JSONL line per event, cursor-addressable. The runner's
/// merge thread is the only emitter, but subscribers read concurrently,
/// hence the lock.
class EventLog final : public TraceSink {
public:
  void emit(TraceEvent Event) override {
    std::string Line = Event.toJson();
    {
      std::lock_guard<std::mutex> Lock(M);
      Lines.push_back(std::move(Line));
    }
    Changed.notify_all();
  }

  /// Marks the stream complete and wakes blocked subscribers.
  void finish() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Finished = true;
    }
    Changed.notify_all();
  }

  /// Blocks up to \p WaitMillis for events at/after \p Cursor, then
  /// returns them (possibly none on timeout). \p Done reports whether
  /// the stream is complete and fully consumed by this batch.
  std::vector<std::string> read(std::uint64_t Cursor, unsigned WaitMillis,
                                bool &Done) {
    std::unique_lock<std::mutex> Lock(M);
    Changed.wait_for(Lock, std::chrono::milliseconds(WaitMillis),
                     [&] { return Finished || Lines.size() > Cursor; });
    std::vector<std::string> Batch;
    for (std::size_t I = Cursor; I < Lines.size(); ++I)
      Batch.push_back(Lines[I]);
    Done = Finished && Cursor + Batch.size() >= Lines.size();
    return Batch;
  }

private:
  std::mutex M;
  std::condition_variable Changed;
  std::vector<std::string> Lines;
  bool Finished = false;
};

ServiceReply makeError(const std::string &Verb, std::string Error) {
  ServiceReply Reply;
  Reply.Verb = Verb;
  Reply.Ok = false;
  Reply.Error = std::move(Error);
  return Reply;
}

ServiceReply makeOk(const std::string &Verb, std::string Body = "") {
  ServiceReply Reply;
  Reply.Verb = Verb;
  Reply.Ok = true;
  Reply.Body = std::move(Body);
  return Reply;
}

} // namespace

/// One submitted campaign session.
struct CampaignService::SessionState {
  std::string Id;
  CampaignRequest Request;
  bool WantProfile = false;
  EventLog Events;
  std::thread Worker;
  /// Set by the worker as its last action, so a join cannot block.
  std::atomic<bool> WorkerDone{false};

  std::mutex SM;
  StatusReply Status;

  StatusReply snapshot() {
    std::lock_guard<std::mutex> Lock(SM);
    return Status;
  }
};

CampaignService::CampaignService(ServiceOptions OptsArg)
    : Opts(std::move(OptsArg)) {}

CampaignService::~CampaignService() {
  std::vector<SessionState *> All;
  {
    std::lock_guard<std::mutex> Lock(M);
    All.swap(Unjoined);
  }
  for (SessionState *S : All)
    S->Worker.join();
}

void CampaignService::reapWorkers() {
  std::vector<SessionState *> Finished;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto Running = std::partition(
        Unjoined.begin(), Unjoined.end(),
        [](SessionState *S) { return !S->WorkerDone.load(); });
    Finished.assign(Running, Unjoined.end());
    Unjoined.erase(Running, Unjoined.end());
  }
  for (SessionState *S : Finished)
    S->Worker.join();
}

std::size_t CampaignService::unjoinedWorkers() const {
  std::lock_guard<std::mutex> Lock(M);
  return Unjoined.size();
}

ResultStore *CampaignService::storeFor(const std::string &Path) {
  if (Path.empty())
    return nullptr;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Stores.find(Path);
  if (It == Stores.end()) {
    It = Stores.emplace(Path, std::make_unique<ResultStore>(Path)).first;
    Metrics.add("service.stores_opened");
  }
  return It->second.get();
}

CampaignService::SessionState *
CampaignService::findSession(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second.get();
}

ServiceReply CampaignService::submit(const ServiceRequest &Request) {
  reapWorkers();
  auto State = std::make_unique<SessionState>();
  SessionState *S = State.get();
  S->Request = Request.Campaign;
  S->WantProfile = Request.WantProfile || Request.Campaign.Profile;
  {
    std::lock_guard<std::mutex> Lock(M);
    S->Id = formatString("s%u", NextSessionId++);
    S->Status.State = "queued";
    Sessions.emplace(S->Id, std::move(State));
  }
  Metrics.add("service.submits");

  if (S->Request.StorePath.empty())
    S->Request.StorePath = Opts.StorePath;
  ResultStore *Store = storeFor(S->Request.StorePath);

  S->Worker = std::thread([this, S, Store] {
    {
      std::lock_guard<std::mutex> Lock(S->SM);
      S->Status.State = "running";
    }
    StatusReply Final;
    try {
      Session Sess(S->Request.toSessionConfig());
      Sess.config().Campaign.Store = Store;
      Sess.config().Campaign.ExtraTraceSink = &S->Events;
      if (S->WantProfile)
        Sess.config().Profile = true;
      CampaignSummary Summary = Sess.runCampaign();
      Final.State = "done";
      Final.Done = true;
      Final.Completed = Summary.CompletedInstructions;
      Final.Total = unsigned(Summary.Records.size());
      Final.Resumed = Summary.ResumedInstructions;
      Final.StoreServed = Summary.StoreServed;
      Final.Quarantined = unsigned(Summary.Quarantined.size());
      for (const InstructionRecord &R : Summary.Records)
        Final.Paths += R.Paths;
      Final.LiveSolverQueries = Summary.LiveSolver.Queries;
      Final.ExitCode = Summary.exitCode();
      if (const ProfileReport *Profile = Sess.profile())
        Final.ProfileJson = Profile->toJson().dump();
    } catch (const std::exception &E) {
      Final.State = "failed";
      Final.Done = true;
      Final.ExitCode = 3;
      Final.Error = E.what();
      Metrics.add("service.session_failures");
    }
    {
      std::lock_guard<std::mutex> Lock(S->SM);
      Final.Version = S->Status.Version;
      S->Status = std::move(Final);
    }
    S->Events.finish();
    SessionEvent.notify_all();
    S->WorkerDone.store(true);
  });
  {
    std::lock_guard<std::mutex> Lock(M);
    Unjoined.push_back(S);
  }

  JsonValue Body = JsonValue::object();
  Body.set("session", JsonValue::string(S->Id));
  Body.set("store_attached", JsonValue::boolean(Store != nullptr));
  return makeOk("submit", Body.dump());
}

ServiceReply CampaignService::status(const ServiceRequest &Request) {
  SessionState *S = findSession(Request.SessionId);
  if (!S)
    return makeError("status", "unknown session: " + Request.SessionId);
  return makeOk("status", S->snapshot().toJson().dump());
}

ServiceReply CampaignService::subscribe(const ServiceRequest &Request) {
  SessionState *S = findSession(Request.SessionId);
  if (!S)
    return makeError("subscribe", "unknown session: " + Request.SessionId);
  bool Done = false;
  std::vector<std::string> Batch =
      S->Events.read(Request.Cursor, Opts.SubscribeWaitMillis, Done);
  JsonValue Body = JsonValue::object();
  JsonValue Events = JsonValue::array();
  for (std::string &Line : Batch)
    Events.push(JsonValue::string(std::move(Line)));
  Body.set("events", std::move(Events));
  Body.set("next", JsonValue::number(double(Request.Cursor + Batch.size())));
  Body.set("done", JsonValue::boolean(Done));
  return makeOk("subscribe", Body.dump());
}

ServiceReply CampaignService::invalidate(const ServiceRequest &Request) {
  std::string Path =
      Request.StorePath.empty() ? Opts.StorePath : Request.StorePath;
  ResultStore *Store = storeFor(Path);
  if (!Store)
    return makeError("invalidate", "no store configured");
  std::size_t Removed = Store->invalidate(Request.Instruction);
  Metrics.add("service.invalidations", Removed);
  JsonValue Body = JsonValue::object();
  Body.set("removed", JsonValue::number(double(Removed)));
  Body.set("live", JsonValue::number(double(Store->size())));
  return makeOk("invalidate", Body.dump());
}

ServiceReply CampaignService::gc(const ServiceRequest &Request) {
  std::string Path =
      Request.StorePath.empty() ? Opts.StorePath : Request.StorePath;
  ResultStore *Store = storeFor(Path);
  if (!Store)
    return makeError("gc", "no store configured");
  ResultStore::GcStats Stats = Store->gc();
  if (!Stats.Error.empty())
    return makeError("gc", Stats.Error);
  Metrics.add("service.gc_runs");
  JsonValue Body = JsonValue::object();
  Body.set("kept", JsonValue::number(double(Stats.Kept)));
  Body.set("dropped", JsonValue::number(double(Stats.Dropped)));
  return makeOk("gc", Body.dump());
}

ServiceReply CampaignService::handle(const ServiceRequest &Request) {
  Metrics.add("service.requests");
  if (Request.Verb == "ping")
    return makeOk("ping");
  if (Request.Verb == "submit")
    return submit(Request);
  if (Request.Verb == "status")
    return status(Request);
  if (Request.Verb == "subscribe")
    return subscribe(Request);
  if (Request.Verb == "invalidate")
    return invalidate(Request);
  if (Request.Verb == "gc")
    return gc(Request);
  if (Request.Verb == "shutdown") {
    {
      std::lock_guard<std::mutex> Lock(M);
      Shutdown = true;
    }
    Metrics.add("service.shutdowns");
    return makeOk("shutdown");
  }
  Metrics.add("service.bad_requests");
  return makeError(Request.Verb, "unknown verb: " + Request.Verb);
}

std::string CampaignService::handleJson(const std::string &RequestJson) {
  std::optional<JsonValue> V = JsonValue::parse(RequestJson);
  ServiceRequest Request;
  std::string Error;
  if (!V || !ServiceRequest::fromJson(*V, Request, &Error)) {
    Metrics.add("service.bad_requests");
    return makeError("", Error.empty() ? "malformed request JSON" : Error)
        .toJson()
        .dump();
  }
  return handle(Request).toJson().dump();
}

bool CampaignService::shutdownRequested() const {
  std::lock_guard<std::mutex> Lock(M);
  return Shutdown;
}
