#include "net/frame.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "common/wire.hpp"

namespace csm::net {

namespace {

using common::wire::append_u16;
using common::wire::append_u32;
using common::wire::crc32;
using common::wire::load_u16;
using common::wire::load_u32;

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

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::string_view node,
                  std::span<const std::uint8_t> payload) {
  if (!is_known_frame_type(static_cast<std::uint8_t>(type))) {
    throw std::invalid_argument(
        "append_frame: unknown frame type " +
        std::to_string(static_cast<unsigned>(type)));
  }
  if (node.size() > kMaxNodeIdBytes) {
    throw std::invalid_argument(
        "append_frame: node id of " + std::to_string(node.size()) +
        " bytes exceeds the cap of " + std::to_string(kMaxNodeIdBytes));
  }
  if (payload.size() > kMaxFramePayload) {
    throw std::invalid_argument(
        "append_frame: payload of " + std::to_string(payload.size()) +
        " bytes exceeds the cap of " + std::to_string(kMaxFramePayload));
  }
  // Appends grow `out` geometrically, never to the exact size: an exact
  // reserve here would reallocate on every append.
  const std::size_t at = out.size();
  // Element-wise instead of a range insert: GCC 12 misdiagnoses inserting
  // a constexpr array as a stringop-overflow under -Werror.
  for (std::uint8_t b : kFrameMagic) out.push_back(b);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  append_u16(out, static_cast<std::uint16_t>(node.size()));
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), node.begin(), node.end());
  out.insert(out.end(), payload.begin(), payload.end());
  append_u32(out, crc32({out.data() + at, out.size() - at}));
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  // A fresh buffer: one exact allocation, then append_frame fills it.
  out.reserve(kFrameHeaderSize + frame.node.size() + frame.payload.size() +
              kFrameTrailerSize);
  append_frame(out, frame.type, frame.node, frame.payload);
  return out;
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  const std::span<std::uint8_t> room = prepare(bytes.size());
  if (!bytes.empty()) std::memcpy(room.data(), bytes.data(), bytes.size());
  commit(bytes.size());
}

std::span<std::uint8_t> FrameReader::prepare(std::size_t n) {
  // Compact the consumed prefix before growing: the buffer then never
  // holds more than one partial frame plus the new chunk.
  if (head_ == end_) {
    head_ = end_ = 0;
  } else if (head_ > kFrameHeaderSize + kMaxNodeIdBytes) {
    std::memmove(buf_.data(), buf_.data() + head_, end_ - head_);
    end_ -= head_;
    head_ = 0;
  }
  if (buf_.size() - end_ < n) buf_.resize(end_ + n);
  return std::span(buf_).subspan(end_, n);
}

void FrameReader::commit(std::size_t n) {
  if (n > buf_.size() - end_) {
    throw std::invalid_argument(
        "FrameReader::commit: " + std::to_string(n) +
        " bytes exceed the " + std::to_string(buf_.size() - end_) +
        " prepared");
  }
  end_ += n;
}

void FrameReader::fail(const std::string& field, std::uint64_t rel_offset,
                       const std::string& detail) const {
  throw FrameError("CSMF frame: bad " + field + " at stream offset " +
                   std::to_string(stream_offset_ + rel_offset) + ": " +
                   detail);
}

std::optional<FrameView> FrameReader::next_view() {
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
      crc32({p, static_cast<std::size_t>(crc_offset)});
  if (stored != computed) {
    fail("crc", crc_offset,
         "stored " + hex(stored, 8) + " != computed " + hex(computed, 8));
  }

  FrameView frame;
  frame.type = static_cast<FrameType>(p[5]);
  frame.node = {reinterpret_cast<const char*>(p + kFrameHeaderSize),
                static_cast<std::size_t>(id_len)};
  frame.payload = {p + kFrameHeaderSize + id_len,
                   static_cast<std::size_t>(payload_len)};
  head_ += static_cast<std::size_t>(total);
  stream_offset_ += total;
  return frame;
}

std::optional<Frame> FrameReader::next() {
  const std::optional<FrameView> view = next_view();
  if (!view) return std::nullopt;
  return Frame{view->type, std::string(view->node),
               {view->payload.begin(), view->payload.end()}};
}

}  // namespace csm::net
