#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/wire.hpp"

namespace csm::net {
namespace {

Frame sample_frame() {
  Frame frame;
  frame.type = FrameType::kSampleBatch;
  frame.node = "node17";
  frame.payload = {0x01, 0x02, 0x03, 0xfe, 0x00, 0xff};
  return frame;
}

std::vector<Frame> drain_all(FrameReader& reader) {
  std::vector<Frame> frames;
  while (std::optional<Frame> frame = reader.next()) {
    frames.push_back(*std::move(frame));
  }
  return frames;
}

TEST(FrameCodec, RoundTripsOneFrame) {
  const Frame frame = sample_frame();
  const std::vector<std::uint8_t> wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + frame.node.size() +
                             frame.payload.size() + kFrameTrailerSize);

  FrameReader reader;
  reader.feed(wire);
  const auto got = drain_all(reader);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], frame);
  EXPECT_TRUE(reader.at_frame_boundary());
  EXPECT_EQ(reader.stream_offset(), wire.size());
}

TEST(FrameCodec, RoundTripsEmptyNodeAndPayload) {
  Frame frame;
  frame.type = FrameType::kStatsRequest;
  FrameReader reader;
  reader.feed(encode_frame(frame));
  const auto got = drain_all(reader);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], frame);
}

TEST(FrameCodec, EncodeRejectsOversizedIdAndPayload) {
  Frame frame;
  frame.node.assign(kMaxNodeIdBytes + 1, 'x');
  EXPECT_THROW(encode_frame(frame), std::invalid_argument);

  frame.node.clear();
  frame.payload.assign(kMaxFramePayload + 1, 0);
  EXPECT_THROW(encode_frame(frame), std::invalid_argument);
}

// The reassembly-fixpoint property (same one the fuzzer checks): the frame
// sequence must not depend on the read boundaries the transport happened
// to deliver.
TEST(FrameReader, ByteAtATimeMatchesOneShot) {
  FrameWriter writer;
  writer.write(sample_frame());
  Frame second;
  second.type = FrameType::kDrainRequest;
  second.node = "other";
  writer.write(second);
  Frame third;
  third.type = FrameType::kOk;
  third.payload = {0x01, 0x2a, 0, 0, 0, 0, 0, 0, 0};
  writer.write(third);
  const std::vector<std::uint8_t> wire = writer.buffer();

  FrameReader one_shot;
  one_shot.feed(wire);
  const auto expected = drain_all(one_shot);
  ASSERT_EQ(expected.size(), 3u);

  FrameReader trickle;
  std::vector<Frame> got;
  for (const std::uint8_t byte : wire) {
    trickle.feed({&byte, 1});
    for (Frame& frame : drain_all(trickle)) got.push_back(std::move(frame));
  }
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(trickle.at_frame_boundary());
  EXPECT_EQ(trickle.stream_offset(), one_shot.stream_offset());
}

TEST(FrameReader, PartialFrameIsNotAFrameBoundary) {
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  FrameReader reader;
  reader.feed({wire.data(), wire.size() - 1});
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_FALSE(reader.at_frame_boundary());
  reader.feed({wire.data() + wire.size() - 1, 1});
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.at_frame_boundary());
}

TEST(FrameReader, RejectsBadMagicNamingOffset) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[2] = 'X';
  FrameReader reader;
  reader.feed(wire);
  try {
    reader.next();
    FAIL() << "expected FrameError";
  } catch (const FrameError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("offset 2"), std::string::npos)
        << e.what();
    // 'X' is byte 0x58, printed in hex.
    EXPECT_NE(std::string(e.what()).find("got byte 0x58"), std::string::npos)
        << e.what();
  }
}

TEST(FrameReader, RejectsBadVersionAndUnknownType) {
  {
    std::vector<std::uint8_t> wire = encode_frame(sample_frame());
    wire[4] = kFrameVersion + 1;
    FrameReader reader;
    reader.feed(wire);
    EXPECT_THROW(reader.next(), FrameError);
  }
  {
    std::vector<std::uint8_t> wire = encode_frame(sample_frame());
    wire[5] = 0xee;  // Not a FrameType.
    FrameReader reader;
    reader.feed(wire);
    EXPECT_THROW(reader.next(), FrameError);
  }
  EXPECT_FALSE(is_known_frame_type(0));
  EXPECT_FALSE(is_known_frame_type(0xee));
  EXPECT_TRUE(is_known_frame_type(
      static_cast<std::uint8_t>(FrameType::kSampleBatch)));
}

// A poisoned length field must fail as soon as its bytes are present —
// before any allocation and without waiting for the promised bytes.
TEST(FrameReader, RejectsOversizedLengthsFromHeaderAlone) {
  {
    std::vector<std::uint8_t> wire = encode_frame(sample_frame());
    wire[6] = 0xff;  // id_len = 0xffff > kMaxNodeIdBytes.
    wire[7] = 0xff;
    FrameReader reader;
    reader.feed({wire.data(), kFrameHeaderSize});
    EXPECT_THROW(reader.next(), FrameError);
  }
  {
    std::vector<std::uint8_t> wire = encode_frame(sample_frame());
    wire[8] = 0xff;  // payload_len = 0xffffffff > max_payload.
    wire[9] = 0xff;
    wire[10] = 0xff;
    wire[11] = 0xff;
    FrameReader reader;
    reader.feed({wire.data(), kFrameHeaderSize});
    EXPECT_THROW(reader.next(), FrameError);
  }
}

TEST(FrameReader, HonoursLoweredPayloadCap) {
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  FrameReader reader(/*max_payload=*/2);
  reader.feed(wire);
  EXPECT_THROW(reader.next(), FrameError);
}

TEST(FrameReader, RejectsCorruptCrc) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[wire.size() - 1] ^= 0x40;
  const std::size_t crc_at = wire.size() - kFrameTrailerSize;
  const std::uint32_t stored = common::wire::load_u32(&wire[crc_at]);
  const std::uint32_t computed = common::wire::crc32({wire.data(), crc_at});
  char expected[64];
  std::snprintf(expected, sizeof expected, "stored 0x%08x != computed 0x%08x",
                static_cast<unsigned>(stored), static_cast<unsigned>(computed));
  FrameReader reader;
  reader.feed(wire);
  try {
    reader.next();
    FAIL() << "expected FrameError";
  } catch (const FrameError& e) {
    EXPECT_NE(std::string(e.what()).find("bad crc at stream offset " +
                                         std::to_string(crc_at)),
              std::string::npos)
        << e.what();
    // Both checksums print as eight hex digits.
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(FrameReader, FlippedPayloadBitFailsTheCrc) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[kFrameHeaderSize + 7] ^= 0x01;  // Inside the payload bytes.
  FrameReader reader;
  reader.feed(wire);
  EXPECT_THROW(reader.next(), FrameError);
}

TEST(FrameReader, ErrorOffsetsAreAbsoluteAcrossFrames) {
  const std::vector<std::uint8_t> good = encode_frame(sample_frame());
  std::vector<std::uint8_t> wire = good;
  std::vector<std::uint8_t> bad = good;
  bad[0] = 'Z';
  wire.insert(wire.end(), bad.begin(), bad.end());

  FrameReader reader;
  reader.feed(wire);
  EXPECT_TRUE(reader.next().has_value());
  try {
    reader.next();
    FAIL() << "expected FrameError";
  } catch (const FrameError& e) {
    // The second frame's bad magic byte sits at stream offset good.size().
    const std::string expect = "offset " + std::to_string(good.size());
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
}

TEST(FrameWriter, TakeMovesBytesOutAndResets) {
  FrameWriter writer;
  writer.write(sample_frame());
  EXPECT_FALSE(writer.empty());
  const std::vector<std::uint8_t> taken = writer.take();
  EXPECT_EQ(taken, encode_frame(sample_frame()));
  EXPECT_TRUE(writer.empty());
  EXPECT_EQ(writer.size(), 0u);
}

TEST(FrameCodec, TypeNamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::kSampleBatch), "sample-batch");
  EXPECT_STREQ(frame_type_name(FrameType::kError), "error");
}

}  // namespace
}  // namespace csm::net
