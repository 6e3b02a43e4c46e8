//===- support/Socket.h - Unix-domain socket helpers ------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin POSIX Unix-domain stream socket helpers for the campaign
/// daemon and its client: listen/accept/connect plus EINTR-safe whole-
/// buffer writes and chunk reads. Deliberately minimal — framing,
/// integrity and schema live in service/WireProtocol and api/Requests;
/// this layer only moves bytes. On platforms without AF_UNIX support
/// every call fails cleanly and unixSocketsAvailable() returns false,
/// so callers can gate features instead of failing to build.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_SOCKET_H
#define IGDT_SUPPORT_SOCKET_H

#include <cstddef>
#include <string>

namespace igdt {

/// True when this build can create AF_UNIX stream sockets.
bool unixSocketsAvailable();

/// Binds and listens on \p Path (unlinking a stale socket file first).
/// Returns the listening descriptor, or -1 with \p Error set.
int unixListen(const std::string &Path, std::string *Error = nullptr);

/// Waits up to \p TimeoutMillis for a pending connection on \p ListenFd
/// and accepts it. Returns the connection descriptor, or -1 on timeout
/// or error (callers poll in a loop, so the two need no distinction).
int unixAccept(int ListenFd, int TimeoutMillis);

/// Connects to the daemon socket at \p Path. Returns the descriptor,
/// or -1 with \p Error set.
int unixConnect(const std::string &Path, std::string *Error = nullptr);

/// True when \p Fd has bytes (or EOF) to read within \p TimeoutMillis.
/// Lets a serving loop block in bounded slices so it can notice a stop
/// flag between them.
bool waitReadable(int Fd, int TimeoutMillis);

/// Writes all \p Size bytes (restarting on EINTR / partial writes).
bool writeAll(int Fd, const void *Data, std::size_t Size);

/// Reads up to \p Size bytes; returns the count, 0 on orderly EOF, or
/// -1 on error. Restarts on EINTR.
long readSome(int Fd, void *Buf, std::size_t Size);

/// Closes \p Fd if non-negative (EINTR-tolerant).
void closeFd(int Fd);

} // namespace igdt

#endif // IGDT_SUPPORT_SOCKET_H
