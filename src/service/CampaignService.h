//===- service/CampaignService.h - Daemon-side campaign sessions -------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-free heart of the campaign daemon: accepts
/// ServiceRequest messages (api/Requests.h), multiplexes submitted
/// campaigns onto background session threads, streams each session's
/// merged trace events to subscribers via cursor-based long-polls, and
/// backs every campaign with a shared content-addressed ResultStore so
/// a re-submitted request re-explores only what changed. Daemon (the
/// socket front-end) and the in-process tests drive the same handle()
/// entry point, so every verb is unit-testable without a socket.
///
/// Verbs: submit, status, subscribe, invalidate, gc, ping, shutdown.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SERVICE_CAMPAIGNSERVICE_H
#define IGDT_SERVICE_CAMPAIGNSERVICE_H

#include "api/Requests.h"
#include "observe/MetricsRegistry.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace igdt {

class ResultStore;

/// Daemon-side policy knobs.
struct ServiceOptions {
  /// Store backing submits whose request names none; empty = no
  /// default store (such submits run uncached).
  std::string StorePath;
  /// Longest a subscribe long-poll blocks waiting for new events.
  unsigned SubscribeWaitMillis = 2000;
};

/// One daemon instance's session table + store registry. Thread-safe.
class CampaignService {
public:
  explicit CampaignService(ServiceOptions Opts = ServiceOptions());
  /// Joins every session thread (campaigns run to completion; the
  /// checkpoint makes abandoned work resumable, not lost).
  ~CampaignService();

  /// Dispatches one request to its verb handler. Never throws; errors
  /// come back as Ok=false replies.
  ServiceReply handle(const ServiceRequest &Request);

  /// JSON-in/JSON-out convenience for transports: parses a
  /// ServiceRequest, dispatches, serialises the reply.
  std::string handleJson(const std::string &RequestJson);

  /// True once a shutdown request was accepted; the transport loop
  /// polls this.
  bool shutdownRequested() const;

  /// Service-lifetime counters (service.* namespace).
  MetricsRegistry &metrics() { return Metrics; }

  /// Session worker threads started and not yet joined. A finished
  /// worker is joined on the next submit; its session's final status
  /// and events stay served.
  std::size_t unjoinedWorkers() const;

private:
  /// One submitted campaign: the worker thread, its progress snapshot,
  /// and the trace events captured for subscribers.
  struct SessionState;

  ServiceReply submit(const ServiceRequest &Request);
  ServiceReply status(const ServiceRequest &Request);
  ServiceReply subscribe(const ServiceRequest &Request);
  ServiceReply invalidate(const ServiceRequest &Request);
  ServiceReply gc(const ServiceRequest &Request);

  /// The shared store for \p Path, opening it on first use. Null for
  /// an empty path.
  ResultStore *storeFor(const std::string &Path);

  SessionState *findSession(const std::string &Id);

  /// Joins the worker of every session that has finished.
  void reapWorkers();

  ServiceOptions Opts;
  mutable std::mutex M;
  std::condition_variable SessionEvent;
  std::map<std::string, std::unique_ptr<SessionState>> Sessions;
  /// Sessions whose worker thread has not been joined yet.
  std::vector<SessionState *> Unjoined;
  std::map<std::string, std::unique_ptr<ResultStore>> Stores;
  unsigned NextSessionId = 1;
  bool Shutdown = false;
  MetricsRegistry Metrics;
};

} // namespace igdt

#endif // IGDT_SERVICE_CAMPAIGNSERVICE_H
