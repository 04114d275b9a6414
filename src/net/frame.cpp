#include "net/frame.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "core/model_codec.hpp"

namespace csm::net {

namespace {

using core::codec::append_u16;
using core::codec::append_u32;
using core::codec::crc32;
using core::codec::load_u16;
using core::codec::load_u32;

// "0x" and `digits` lower-case hex digits of v, for bytes and checksums in
// FrameError messages.
std::string hex(std::uint32_t v, int digits) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%0*x", digits, static_cast<unsigned>(v));
  return buf;
}

}  // namespace

bool is_known_frame_type(std::uint8_t type) noexcept {
  // The type space is contiguous from kSampleBatch through the most
  // recently appended type — keep this bound on the LAST enumerator.
  return type >= static_cast<std::uint8_t>(FrameType::kSampleBatch) &&
         type <= static_cast<std::uint8_t>(FrameType::kNodeStatsResponse);
}

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kSampleBatch:
      return "sample-batch";
    case FrameType::kNodeAdd:
      return "node-add";
    case FrameType::kNodeRemove:
      return "node-remove";
    case FrameType::kDrainRequest:
      return "drain-request";
    case FrameType::kDrainResponse:
      return "drain-response";
    case FrameType::kStatsRequest:
      return "stats-request";
    case FrameType::kStatsResponse:
      return "stats-response";
    case FrameType::kOk:
      return "ok";
    case FrameType::kError:
      return "error";
    case FrameType::kNodeStatsRequest:
      return "node-stats-request";
    case FrameType::kNodeStatsResponse:
      return "node-stats-response";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (!is_known_frame_type(static_cast<std::uint8_t>(frame.type))) {
    throw std::invalid_argument("encode_frame: unknown frame type " +
                                std::to_string(static_cast<unsigned>(
                                    frame.type)));
  }
  if (frame.node.size() > kMaxNodeIdBytes) {
    throw std::invalid_argument(
        "encode_frame: node id of " + std::to_string(frame.node.size()) +
        " bytes exceeds the cap of " + std::to_string(kMaxNodeIdBytes));
  }
  if (frame.payload.size() > kMaxFramePayload) {
    throw std::invalid_argument(
        "encode_frame: payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the cap of " + std::to_string(kMaxFramePayload));
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + frame.node.size() + frame.payload.size() +
              kFrameTrailerSize);
  // Element-wise instead of a range insert: GCC 12 misdiagnoses inserting
  // a constexpr array as a stringop-overflow under -Werror.
  for (std::uint8_t b : kFrameMagic) out.push_back(b);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  append_u16(out, static_cast<std::uint16_t>(frame.node.size()));
  append_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.node.begin(), frame.node.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  append_u32(out, crc32(out));
  return out;
}

void FrameWriter::write(const Frame& frame) {
  const std::vector<std::uint8_t> encoded = encode_frame(frame);
  buf_.insert(buf_.end(), encoded.begin(), encoded.end());
}

std::vector<std::uint8_t> FrameWriter::take() noexcept {
  return std::exchange(buf_, {});
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing: the buffer then never
  // holds more than one partial frame plus the new chunk.
  if (head_ > 0 && head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  } else if (head_ > kFrameHeaderSize + kMaxNodeIdBytes) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameReader::fail(const std::string& field, std::uint64_t rel_offset,
                       const std::string& detail) const {
  throw FrameError("CSMF frame: bad " + field + " at stream offset " +
                   std::to_string(stream_offset_ + rel_offset) + ": " +
                   detail);
}

std::optional<Frame> FrameReader::next() {
  const std::uint8_t* p = buf_.data() + head_;
  const std::uint64_t have = buffered();

  // Validate each header field as soon as its bytes are present: a corrupt
  // magic or a hostile length fails now, not after the peer streams the
  // rest of a frame that will never be accepted.
  const std::uint64_t magic_have =
      have < sizeof(kFrameMagic) ? have : sizeof(kFrameMagic);
  for (std::uint64_t i = 0; i < magic_have; ++i) {
    if (p[i] != kFrameMagic[i]) {
      fail("magic", i,
           "expected \"CSMF\", got byte " + hex(p[i], 2));
    }
  }
  if (have > 4 && p[4] != kFrameVersion) {
    fail("version", 4,
         "expected " + std::to_string(static_cast<unsigned>(kFrameVersion)) +
             ", got " + std::to_string(static_cast<unsigned>(p[4])));
  }
  if (have > 5 && !is_known_frame_type(p[5])) {
    fail("type", 5,
         "unknown frame type " + std::to_string(static_cast<unsigned>(p[5])));
  }
  std::uint64_t id_len = 0;
  if (have >= 8) {
    id_len = load_u16(p + 6);
    if (id_len > kMaxNodeIdBytes) {
      fail("id_len", 6,
           std::to_string(id_len) + " exceeds the cap of " +
               std::to_string(kMaxNodeIdBytes));
    }
  }
  std::uint64_t payload_len = 0;
  if (have >= kFrameHeaderSize) {
    payload_len = load_u32(p + 8);
    if (payload_len > max_payload_) {
      fail("payload_len", 8,
           std::to_string(payload_len) + " exceeds the cap of " +
               std::to_string(max_payload_));
    }
  }
  if (have < kFrameHeaderSize) return std::nullopt;

  // Both lengths are cap-checked, so total fits comfortably in 64 bits.
  const std::uint64_t total =
      kFrameHeaderSize + id_len + payload_len + kFrameTrailerSize;
  if (have < total) return std::nullopt;

  const std::uint64_t crc_offset = total - kFrameTrailerSize;
  const std::uint32_t stored = load_u32(p + crc_offset);
  const std::uint32_t computed =
      core::codec::crc32({p, static_cast<std::size_t>(crc_offset)});
  if (stored != computed) {
    fail("crc", crc_offset,
         "stored " + hex(stored, 8) + " != computed " + hex(computed, 8));
  }

  Frame frame;
  frame.type = static_cast<FrameType>(p[5]);
  frame.node.assign(reinterpret_cast<const char*>(p + kFrameHeaderSize),
                    static_cast<std::size_t>(id_len));
  const std::uint8_t* payload = p + kFrameHeaderSize + id_len;
  frame.payload.assign(payload, payload + payload_len);
  head_ += static_cast<std::size_t>(total);
  stream_offset_ += total;
  return frame;
}

}  // namespace csm::net
