//===- tests/service/WireProtocolTest.cpp --------------------------------------===//
//
// The daemon/client frame codec: the CRC matches the reference vector,
// frames reassemble whatever the read boundaries, and a damaged stream
// is rejected and stays rejected until reset.
//
//===----------------------------------------------------------------------===//

#include "service/WireProtocol.h"

#include <gtest/gtest.h>
#include <vector>

using namespace igdt;

namespace {

TEST(WireProtocolTest, Crc32MatchesTheReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(WireProtocolTest, FramesRoundTripThroughTheDecoder) {
  std::string Payload = "{\"verb\":\"ping\"}";
  std::string Bytes = encodeFrame(FrameType::Request, Payload);
  Bytes += encodeFrame(FrameType::Reply, std::string("x\0y", 3));
  Bytes += encodeFrame(FrameType::Reply, "");

  FrameDecoder Decoder;
  // Feed byte-by-byte: reassembly must not depend on read boundaries.
  WireFrame Frame;
  std::vector<WireFrame> Frames;
  for (char C : Bytes) {
    Decoder.feed(&C, 1);
    while (Decoder.next(Frame) == FrameDecoder::Status::Frame)
      Frames.push_back(Frame);
  }
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0].Type, FrameType::Request);
  EXPECT_EQ(Frames[0].Payload, Payload);
  EXPECT_EQ(Frames[1].Type, FrameType::Reply);
  EXPECT_EQ(Frames[1].Payload, std::string("x\0y", 3));
  EXPECT_EQ(Frames[2].Type, FrameType::Reply);
  EXPECT_EQ(Frames[2].Payload, "");
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::NeedMore);
}

TEST(WireProtocolTest, DecoderRejectsDamageAndStaysPoisoned) {
  // A payload byte damaged after encoding fails the frame's CRC.
  std::string Good = encodeFrame(FrameType::Reply, "payload");
  std::string Bad = Good;
  Bad.back() ^= 0x5A;
  FrameDecoder Decoder;
  Decoder.feed(Bad.data(), Bad.size());
  WireFrame Frame;
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);

  // Corruption is sticky until reset: even a pristine frame after it
  // is distrusted (the stream lost synchronisation).
  Decoder.feed(Good.data(), Good.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);
  Decoder.reset();
  Decoder.feed(Good.data(), Good.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Frame);
  EXPECT_EQ(Frame.Payload, "payload");

  // Wrong magic and a retired frame type are rejected; a truncated tail
  // is held back.
  std::string Magic = Good;
  Magic[0] ^= 0xFF;
  Decoder.reset();
  Decoder.feed(Magic.data(), Magic.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);

  std::string Retired = Good;
  Retired[4] = 2; // the type byte, after the 4-byte magic
  Decoder.reset();
  Decoder.feed(Retired.data(), Retired.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);

  Decoder.reset();
  Decoder.feed(Good.data(), Good.size() - 1);
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::NeedMore);
}

TEST(WireProtocolTest, OnlyRequestAndReplyFramesDecode) {
  // The CRC covers the payload only, so each frame below is intact but
  // for its type byte. Every type other than Request and Reply (the
  // retired pool types 1-3 included) is refused from the header alone,
  // before any payload byte arrives.
  const std::string Good = encodeFrame(FrameType::Request, "{}");
  const std::size_t HeaderSize = Good.size() - 2;
  for (unsigned Type = 0; Type <= 0xFF; ++Type) {
    std::string Bytes = Good;
    Bytes[4] = char(Type); // the type byte, after the 4-byte magic
    FrameDecoder Decoder;
    WireFrame Frame;
    Decoder.feed(Bytes.data(), HeaderSize);
    bool Known = Type == unsigned(FrameType::Request) ||
                 Type == unsigned(FrameType::Reply);
    EXPECT_EQ(Decoder.next(Frame), Known ? FrameDecoder::Status::NeedMore
                                         : FrameDecoder::Status::Corrupt)
        << "type " << Type;
    Decoder.feed(Bytes.data() + HeaderSize, Bytes.size() - HeaderSize);
    EXPECT_EQ(Decoder.next(Frame), Known ? FrameDecoder::Status::Frame
                                         : FrameDecoder::Status::Corrupt)
        << "type " << Type;
  }
}

} // namespace
