#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

// Three frames back to back: a sample batch, a drain request with no
// payload and an ok with no node id.
std::vector<std::uint8_t> three_frame_stream() {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  append_frame(wire, FrameType::kDrainRequest, "other", {});
  const std::vector<std::uint8_t> ok = {0x01, 0x2a, 0, 0, 0, 0, 0, 0, 0};
  append_frame(wire, FrameType::kOk, "", ok);
  return wire;
}

Frame copy_of(const FrameView& view) {
  return Frame{view.type, std::string(view.node),
               {view.payload.begin(), view.payload.end()}};
}

std::vector<Frame> drain_views(FrameReader& reader) {
  std::vector<Frame> frames;
  while (std::optional<FrameView> view = reader.next_view()) {
    frames.push_back(copy_of(*view));
  }
  return frames;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
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
  const std::vector<std::uint8_t> wire = three_frame_stream();
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

TEST(AppendFrame, AfterExistingBytesMatchesEncodeFrame) {
  const std::vector<std::uint8_t> prefix = {'j', 'u', 'n', 'k', 0x00, 0xff};
  std::vector<std::uint8_t> out = prefix;
  const Frame frame = sample_frame();
  append_frame(out, frame.type, frame.node, frame.payload);

  const std::vector<std::uint8_t> alone = encode_frame(frame);
  ASSERT_EQ(out.size(), prefix.size() + alone.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
  EXPECT_TRUE(std::equal(alone.begin(), alone.end(),
                         out.begin() + static_cast<std::ptrdiff_t>(
                                           prefix.size())));
  // The trailer covers the appended frame only, never the bytes before it.
  const std::size_t crc_at = out.size() - kFrameTrailerSize;
  const std::uint32_t stored = common::wire::load_u32(&out[crc_at]);
  EXPECT_EQ(stored, common::wire::crc32(
                        {out.data() + prefix.size(), crc_at - prefix.size()}));
  EXPECT_NE(stored, common::wire::crc32({out.data(), crc_at}));

  FrameReader reader;
  reader.feed({out.data() + prefix.size(), alone.size()});
  const auto got = drain_all(reader);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], frame);
}

TEST(AppendFrame, RejectedFrameAppendsNothing) {
  std::vector<std::uint8_t> out = {1, 2, 3};
  const std::string long_id(kMaxNodeIdBytes + 1, 'x');
  EXPECT_THROW(append_frame(out, FrameType::kOk, long_id, {}),
               std::invalid_argument);
  EXPECT_THROW(append_frame(out, static_cast<FrameType>(0xee), "", {}),
               std::invalid_argument);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3}));
}

// The bytes of one drain-response frame, pinned so a change to the frame
// writer cannot change the wire.
TEST(AppendFrame, MatchesPinnedWireBytes) {
  const std::vector<std::uint8_t> payload =
      from_hex("0100000000000000" "01000000" "02000000"
               "000000000000d03f" "00000000000000c0");
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::kDrainResponse, "n7", payload);
  EXPECT_EQ(out, from_hex("43534d4601050200200000006e37010000000000000001000000"
                          "02000000000000000000d03f00000000000000c07c8f9b69"));
}

// next_view() parses the same frames next() copies out, wherever the
// stream is cut into three feeds.
TEST(FrameReader, NextViewMatchesNextForEverySplit) {
  const std::vector<std::uint8_t> wire = three_frame_stream();
  FrameReader whole;
  whole.feed(wire);
  const auto expected = drain_all(whole);
  ASSERT_EQ(expected.size(), 3u);

  const std::span<const std::uint8_t> bytes(wire);
  for (std::size_t i = 0; i <= wire.size(); ++i) {
    for (std::size_t j = i; j <= wire.size(); ++j) {
      FrameReader by_copy;
      FrameReader by_view;
      std::vector<Frame> copied;
      std::vector<Frame> viewed;
      for (const auto piece : {bytes.subspan(0, i), bytes.subspan(i, j - i),
                               bytes.subspan(j)}) {
        by_copy.feed(piece);
        by_view.feed(piece);
        for (Frame& f : drain_all(by_copy)) copied.push_back(std::move(f));
        for (Frame& f : drain_views(by_view)) viewed.push_back(std::move(f));
      }
      ASSERT_EQ(copied, expected) << "split at " << i << ", " << j;
      ASSERT_EQ(viewed, expected) << "split at " << i << ", " << j;
      EXPECT_EQ(by_view.stream_offset(), by_copy.stream_offset());
      EXPECT_TRUE(by_view.at_frame_boundary());
    }
  }
}

// A reader a transport reads straight into (prepare, short reads, commit)
// yields what feed() does, including when a partial frame is held while the
// consumed prefix passes the compaction threshold.
TEST(FrameReader, PrepareCommitMatchesFeed) {
  Frame big;
  big.type = FrameType::kSampleBatch;
  big.node = "big";
  big.payload.resize(kFrameHeaderSize + kMaxNodeIdBytes + 500);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> wire = encode_frame(big);
  const std::vector<std::uint8_t> tail = three_frame_stream();
  wire.insert(wire.end(), tail.begin(), tail.end());

  FrameReader fed;
  fed.feed(wire);
  const auto expected = drain_all(fed);
  ASSERT_EQ(expected.size(), 4u);

  for (const std::size_t read_size : {1u, 7u, 64u, 4096u}) {
    FrameReader direct;
    std::vector<Frame> got;
    std::size_t at = 0;
    while (at < wire.size()) {
      // Room for more than the read delivers: a short read commits less.
      const std::span<std::uint8_t> room = direct.prepare(read_size + 3);
      ASSERT_GE(room.size(), read_size + 3);
      const std::size_t n = std::min(read_size, wire.size() - at);
      std::copy_n(wire.begin() + static_cast<std::ptrdiff_t>(at), n,
                  room.begin());
      direct.commit(n);
      at += n;
      for (Frame& f : drain_views(direct)) got.push_back(std::move(f));
    }
    EXPECT_EQ(got, expected) << "read size " << read_size;
    EXPECT_EQ(direct.stream_offset(), wire.size());
    EXPECT_TRUE(direct.at_frame_boundary());
  }

  // The big frame and part of the next one arrive together: consuming the
  // big frame moves the head past the compaction threshold while the
  // partial frame waits, and the next prepare() must keep its bytes.
  const std::size_t split = encode_frame(big).size() + 5;
  FrameReader held;
  const std::span<std::uint8_t> first = held.prepare(split);
  std::copy_n(wire.begin(), split, first.begin());
  held.commit(split);
  std::vector<Frame> got = drain_views(held);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(held.buffered(), 5u);
  const std::size_t rest = wire.size() - split;
  const std::span<std::uint8_t> second = held.prepare(rest);
  EXPECT_EQ(held.buffered(), 5u);
  std::copy_n(wire.begin() + static_cast<std::ptrdiff_t>(split), rest,
              second.begin());
  held.commit(rest);
  for (Frame& f : drain_views(held)) got.push_back(std::move(f));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(held.stream_offset(), wire.size());
}

TEST(FrameReader, CommitBeyondPreparedThrows) {
  FrameReader reader;
  const std::span<std::uint8_t> room = reader.prepare(8);
  EXPECT_THROW(reader.commit(room.size() + 1), std::invalid_argument);
  reader.commit(0);
  EXPECT_TRUE(reader.at_frame_boundary());
}

TEST(FrameCodec, TypeNamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::kSampleBatch), "sample-batch");
  EXPECT_STREQ(frame_type_name(FrameType::kError), "error");
}

}  // namespace
}  // namespace csm::net
