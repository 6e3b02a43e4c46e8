//===- service/Client.h - Daemon client ---------------------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The igdt-client side of the daemon protocol: one connection per
/// call (so a daemon restart between calls needs no session repair —
/// the reconnect-and-resume story after a SIGKILL is just "call
/// again"), frames the request, waits for the reply frame, rejects
/// anything corrupt. Typed helpers wrap the common verbs; everything
/// returns false with a human-readable error instead of throwing, so
/// the CLI can turn failures into exit codes.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SERVICE_CLIENT_H
#define IGDT_SERVICE_CLIENT_H

#include "api/Requests.h"

#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

/// Blocking request/reply client for a running igdtd.
class ServiceClient {
public:
  explicit ServiceClient(std::string SocketPath)
      : SocketPath(std::move(SocketPath)) {}

  /// One round trip: connect, send \p Request, decode the reply.
  /// False (with \p Error) on transport failure or a corrupt stream;
  /// an Ok=false reply is still a successful call.
  bool call(const ServiceRequest &Request, ServiceReply &Reply,
            std::string *Error = nullptr);

  /// \name Typed verb helpers
  /// @{
  bool ping(std::string *Error = nullptr);
  /// Submits \p Campaign; \p SessionId receives the daemon's handle.
  bool submit(const CampaignRequest &Campaign, bool WantProfile,
              std::string &SessionId, std::string *Error = nullptr);
  bool status(const std::string &SessionId, StatusReply &Out,
              std::string *Error = nullptr);
  /// One subscribe long-poll from \p Cursor. On success appends the
  /// batch to \p Events, advances \p Cursor, and sets \p Done when the
  /// stream is complete.
  bool subscribe(const std::string &SessionId, std::uint64_t &Cursor,
                 std::vector<std::string> &Events, bool &Done,
                 std::string *Error = nullptr);
  /// Blocks until the session is done, following its event stream with
  /// subscribe long-polls. Returns the final status in \p Out.
  bool wait(const std::string &SessionId, StatusReply &Out,
            std::string *Error = nullptr);
  /// Invalidates \p Instruction (empty = all) in \p StorePath (empty =
  /// daemon default). \p Removed receives the entry count.
  bool invalidate(const std::string &StorePath, const std::string &Instruction,
                  std::size_t &Removed, std::string *Error = nullptr);
  bool gc(const std::string &StorePath, std::size_t &Kept,
          std::size_t &Dropped, std::string *Error = nullptr);
  bool shutdown(std::string *Error = nullptr);
  /// @}

  const std::string &socketPath() const { return SocketPath; }

private:
  std::string SocketPath;
};

} // namespace igdt

#endif // IGDT_SERVICE_CLIENT_H
