//===- service/WireProtocol.cpp - Daemon/client frame protocol ----------------===//

#include "service/WireProtocol.h"

#include <array>

using namespace igdt;

namespace {

constexpr std::size_t HeaderSize = 4 + 1 + 4 + 4;

std::array<std::uint32_t, 256> buildCrcTable() {
  std::array<std::uint32_t, 256> Table{};
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
    Table[I] = C;
  }
  return Table;
}

void putU32(std::string &Out, std::uint32_t Value) {
  Out.push_back(char(Value & 0xFF));
  Out.push_back(char((Value >> 8) & 0xFF));
  Out.push_back(char((Value >> 16) & 0xFF));
  Out.push_back(char((Value >> 24) & 0xFF));
}

std::uint32_t getU32(const char *Data) {
  const unsigned char *B = reinterpret_cast<const unsigned char *>(Data);
  return std::uint32_t(B[0]) | (std::uint32_t(B[1]) << 8) |
         (std::uint32_t(B[2]) << 16) | (std::uint32_t(B[3]) << 24);
}

bool validFrameType(std::uint8_t Type) {
  return Type >= std::uint8_t(FrameType::Request) &&
         Type <= std::uint8_t(FrameType::Reply);
}

} // namespace

std::uint32_t igdt::crc32(const void *Data, std::size_t Size) {
  static const std::array<std::uint32_t, 256> Table = buildCrcTable();
  std::uint32_t C = 0xFFFFFFFFu;
  const unsigned char *B = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Size; ++I)
    C = Table[(C ^ B[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string igdt::encodeFrame(FrameType Type, const std::string &Payload) {
  std::string Out;
  Out.reserve(HeaderSize + Payload.size());
  putU32(Out, WireMagic);
  Out.push_back(char(Type));
  putU32(Out, std::uint32_t(Payload.size()));
  putU32(Out, crc32(Payload.data(), Payload.size()));
  Out += Payload;
  return Out;
}

void FrameDecoder::feed(const char *Data, std::size_t Size) {
  if (!Poisoned)
    Buffer.append(Data, Size);
}

FrameDecoder::Status FrameDecoder::next(WireFrame &Out) {
  if (Poisoned)
    return Status::Corrupt;
  if (Buffer.size() < HeaderSize)
    return Status::NeedMore;
  if (getU32(Buffer.data()) != WireMagic) {
    Poisoned = true;
    return Status::Corrupt;
  }
  std::uint8_t Type = std::uint8_t(Buffer[4]);
  std::uint32_t Length = getU32(Buffer.data() + 5);
  if (!validFrameType(Type) || Length > WireMaxPayload) {
    Poisoned = true;
    return Status::Corrupt;
  }
  if (Buffer.size() < HeaderSize + Length)
    return Status::NeedMore;
  std::uint32_t Crc = getU32(Buffer.data() + 9);
  if (crc32(Buffer.data() + HeaderSize, Length) != Crc) {
    Poisoned = true;
    return Status::Corrupt;
  }
  Out.Type = FrameType(Type);
  Out.Payload.assign(Buffer.data() + HeaderSize, Length);
  Buffer.erase(0, HeaderSize + Length);
  return Status::Frame;
}

void FrameDecoder::reset() {
  Buffer.clear();
  Poisoned = false;
}
