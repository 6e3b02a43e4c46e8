//===- service/WireProtocol.h - Daemon/client frame protocol ------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small length-prefixed binary protocol igdt-client and igdtd speak
/// over a Unix-domain socket (see Daemon.h). One frame is:
///
///   magic  u32le  'IGDT' (0x49474454)
///   type   u8     FrameType
///   length u32le  payload byte count
///   crc    u32le  CRC-32 of the payload
///   payload      length bytes
///
/// A local socket delivers bytes reliably, so the CRC and the bounds
/// checks are not there for line noise: they catch a peer that is not
/// speaking this protocol, or one that lost framing. A frame that fails
/// any check marks the decoder Corrupt and the owner drops the
/// connection instead of guessing at anything else on it. The codec is
/// pure (no file descriptors), so the corruption paths are
/// unit-testable without a socket.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SERVICE_WIREPROTOCOL_H
#define IGDT_SERVICE_WIREPROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace igdt {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of \p Size bytes.
std::uint32_t crc32(const void *Data, std::size_t Size);

/// Frame discriminator. Values 1-3 are retired and decode as corrupt.
enum class FrameType : std::uint8_t {
  /// Client -> daemon: one JSON service request (api/Requests.h).
  Request = 4,
  /// Daemon -> client: the request's JSON reply.
  Reply = 5,
};

/// 'IGDT' — rejects a stream that lost framing entirely.
constexpr std::uint32_t WireMagic = 0x49474454u;
/// Upper bound on one payload; anything larger is corruption, not data.
constexpr std::uint32_t WireMaxPayload = 64u << 20;

/// One decoded frame.
struct WireFrame {
  FrameType Type = FrameType::Request;
  std::string Payload;
};

/// Encodes one frame.
std::string encodeFrame(FrameType Type, const std::string &Payload);

/// Incremental frame parser over a byte stream. Corruption is sticky:
/// once a frame fails validation nothing later in the stream can be
/// trusted (framing may be lost), so the owner must discard the stream
/// — for the daemon, that means dropping the connection.
class FrameDecoder {
public:
  enum class Status : std::uint8_t {
    /// No complete frame buffered yet.
    NeedMore,
    /// \p Out holds the next frame.
    Frame,
    /// Validation failed; the stream is poisoned.
    Corrupt,
  };

  /// Appends \p Size raw bytes from the stream.
  void feed(const char *Data, std::size_t Size);

  /// Extracts the next frame if one is fully buffered and valid.
  Status next(WireFrame &Out);

  /// Forgets buffered bytes and the poison flag (fresh stream).
  void reset();

private:
  std::string Buffer;
  bool Poisoned = false;
};

} // namespace igdt

#endif // IGDT_SERVICE_WIREPROTOCOL_H
