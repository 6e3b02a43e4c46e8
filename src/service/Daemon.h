//===- service/Daemon.h - Unix-socket front-end for CampaignService ----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The igdtd transport loop: listens on a Unix-domain socket, speaks
/// the length-prefixed CRC-framed protocol (service/WireProtocol —
/// Request/Reply frames carrying api/Requests JSON), and hands every
/// request to a CampaignService. One thread per connection; a
/// connection whose stream fails a frame check is dropped, never
/// guessed at (the decoder's sticky-corruption contract). The accept
/// loop polls so a shutdown verb — or stop() from a signal handler's
/// flag — is noticed within one poll interval.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SERVICE_DAEMON_H
#define IGDT_SERVICE_DAEMON_H

#include "service/CampaignService.h"

#include <atomic>
#include <list>
#include <string>
#include <thread>

namespace igdt {

struct DaemonOptions {
  /// Unix-domain socket path to listen on.
  std::string SocketPath;
  ServiceOptions Service;
  /// Accept-poll interval: the latency bound on noticing shutdown.
  unsigned PollMillis = 200;
};

/// Owns the listening socket and the connection threads.
class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();

  /// Binds the socket. False (with \p Error set) when that fails.
  bool start(std::string *Error = nullptr);

  /// Serves until a shutdown request arrives or stop() is called.
  /// Joins every connection thread before returning.
  void run();

  /// Asynchronous stop (safe from another thread).
  void stop() { Stopping.store(true); }

  CampaignService &service() { return Service; }

  /// Connection threads started and not yet joined, as of the last
  /// accept. Finished threads are joined on every accept, so this stays
  /// small however many connections the daemon has served.
  std::size_t unjoinedConnections() const { return Unjoined.load(); }

private:
  /// One connection thread; Done is set as its last action.
  struct Connection {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };

  void serveConnection(int Fd);
  /// Joins and forgets every connection thread that has finished.
  void reapConnections();

  DaemonOptions Opts;
  CampaignService Service;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  /// Touched only by the thread running run() (and the destructor).
  std::list<Connection> Connections;
  std::atomic<std::size_t> Unjoined{0};
};

} // namespace igdt

#endif // IGDT_SERVICE_DAEMON_H
