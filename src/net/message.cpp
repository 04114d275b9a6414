#include "net/message.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "common/wire.hpp"

namespace csm::net {

namespace {

using common::wire::append_f64;
using common::wire::append_u16;
using common::wire::append_u32;
using common::wire::append_u64;
using common::wire::load_u16;
using common::wire::load_u32;
using common::wire::load_u64;

// Shared histogram wire form: f64 lo | f64 hi | u64 underflow |
// u64 overflow | u32 bins | u64 x bins (stats-response ingest + retrain
// histograms and every node-stats row use it).
void append_histogram(std::vector<std::uint8_t>& out,
                      const stats::Histogram& h) {
  if (h.bins() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "encode_stats_response: histogram bin count exceeds u32");
  }
  append_f64(out, h.lo());
  append_f64(out, h.hi());
  append_u64(out, h.underflow());
  append_u64(out, h.overflow());
  append_u32(out, static_cast<std::uint32_t>(h.bins()));
  for (std::size_t i = 0; i < h.bins(); ++i) append_u64(out, h.count(i));
}

stats::Histogram read_histogram(PayloadReader& in, const char* what) {
  const double lo = in.f64("hist_lo");
  const double hi = in.f64("hist_hi");
  const std::uint64_t underflow = in.u64("hist_underflow");
  const std::uint64_t overflow = in.u64("hist_overflow");
  const std::uint64_t bins = in.u32("hist_bins");
  std::vector<std::uint64_t> counts = in.u64_array("hist_counts", bins);
  if (counts.empty() || hi < lo) {
    throw MessageError("CSMF payload: bad histogram shape in " +
                       std::string(what) + " (bins=" + std::to_string(bins) +
                       ", lo=" + std::to_string(lo) +
                       ", hi=" + std::to_string(hi) + ")");
  }
  return stats::Histogram(lo, hi, std::move(counts), underflow, overflow);
}

}  // namespace

// ---------------------------------------------------------------------------
// PayloadReader
// ---------------------------------------------------------------------------

void PayloadReader::fail(const char* field, const std::string& detail) const {
  throw MessageError("CSMF payload: bad " + std::string(field) +
                     " at payload offset " + std::to_string(cursor_) + ": " +
                     detail);
}

void PayloadReader::need(const char* field, std::uint64_t n) const {
  if (n > remaining()) {
    fail(field, "needs " + std::to_string(n) + " bytes, " +
                    std::to_string(remaining()) + " remain");
  }
}

std::uint8_t PayloadReader::u8(const char* field) {
  need(field, 1);
  return payload_[cursor_++];
}

std::uint16_t PayloadReader::u16(const char* field) {
  need(field, 2);
  const std::uint16_t v = load_u16(payload_.data() + cursor_);
  cursor_ += 2;
  return v;
}

std::uint32_t PayloadReader::u32(const char* field) {
  need(field, 4);
  const std::uint32_t v = load_u32(payload_.data() + cursor_);
  cursor_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64(const char* field) {
  need(field, 8);
  const std::uint64_t v = load_u64(payload_.data() + cursor_);
  cursor_ += 8;
  return v;
}

double PayloadReader::f64(const char* field) {
  return std::bit_cast<double>(u64(field));
}

std::vector<std::uint8_t> PayloadReader::bytes(const char* field,
                                               std::uint64_t count) {
  need(field, count);
  std::vector<std::uint8_t> out(payload_.begin() +
                                    static_cast<std::ptrdiff_t>(cursor_),
                                payload_.begin() +
                                    static_cast<std::ptrdiff_t>(cursor_ +
                                                                count));
  cursor_ += static_cast<std::size_t>(count);
  return out;
}

std::string PayloadReader::text(const char* field, std::uint64_t count) {
  need(field, count);
  std::string out(reinterpret_cast<const char*>(payload_.data() + cursor_),
                  static_cast<std::size_t>(count));
  cursor_ += static_cast<std::size_t>(count);
  return out;
}

void PayloadReader::f64_array(const char* field, std::uint64_t count,
                              std::vector<double>& out) {
  // The count is bounded by the bytes actually present before the vector
  // is sized — the no-allocation-from-unvalidated-length rule.
  if (count > remaining() / sizeof(double)) {
    fail(field, std::to_string(count) + " doubles need " +
                    std::to_string(count * sizeof(double)) + " bytes, " +
                    std::to_string(remaining()) + " remain");
  }
  out.resize(static_cast<std::size_t>(count));
  common::wire::load_f64s(payload_.data() + cursor_, out);
  cursor_ += out.size() * sizeof(double);
}

std::vector<std::uint64_t> PayloadReader::u64_array(const char* field,
                                                    std::uint64_t count) {
  if (count > remaining() / sizeof(std::uint64_t)) {
    fail(field, std::to_string(count) + " u64s need " +
                    std::to_string(count * sizeof(std::uint64_t)) +
                    " bytes, " + std::to_string(remaining()) + " remain");
  }
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(u64(field));
  return out;
}

std::span<const std::uint8_t> PayloadReader::rest() noexcept {
  std::span<const std::uint8_t> tail = payload_.subspan(cursor_);
  cursor_ = payload_.size();
  return tail;
}

void PayloadReader::finish(const char* what) const {
  if (remaining() != 0) {
    throw MessageError("CSMF payload: " + std::string(what) + " has " +
                       std::to_string(remaining()) +
                       " trailing bytes after the last field");
  }
}

// ---------------------------------------------------------------------------
// kSampleBatch
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_sample_batch(
    const common::MatrixView& columns) {
  constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  if (columns.rows() > kU32Max || columns.cols() > kU32Max) {
    throw std::invalid_argument(
        "encode_sample_batch: matrix dimensions exceed u32");
  }
  std::vector<std::uint8_t> out;
  out.reserve(8 + columns.size() * sizeof(double));
  append_u32(out, static_cast<std::uint32_t>(columns.rows()));
  append_u32(out, static_cast<std::uint32_t>(columns.cols()));
  common::wire::append_f64_columns(out, columns);
  return out;
}

common::MatrixView decode_sample_columns(std::span<const std::uint8_t> payload,
                                         std::vector<double>& values) {
  PayloadReader in(payload);
  const std::uint64_t n_sensors = in.u32("n_sensors");
  const std::uint64_t n_cols = in.u32("n_cols");
  // 64-bit product of two u32s cannot wrap; f64_array bounds it against the
  // payload before allocating.
  in.f64_array("samples", n_sensors * n_cols, values);
  in.finish("sample-batch");
  return common::MatrixView::column_major(
      values.data(), static_cast<std::size_t>(n_sensors),
      static_cast<std::size_t>(n_cols));
}

common::Matrix decode_sample_batch(std::span<const std::uint8_t> payload) {
  std::vector<double> values;
  return common::Matrix(decode_sample_columns(payload, values));
}

// ---------------------------------------------------------------------------
// kNodeAdd
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_node_add(const NodeAdd& msg) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(msg.source));
  append_u32(out, msg.n_sensors);
  if (msg.source == NodeAddSource::kInlineRecord) {
    out.insert(out.end(), msg.record.begin(), msg.record.end());
  } else {
    out.insert(out.end(), msg.pack_id.begin(), msg.pack_id.end());
  }
  return out;
}

NodeAdd decode_node_add(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  NodeAdd msg;
  const std::uint8_t source = in.u8("source");
  if (source > static_cast<std::uint8_t>(NodeAddSource::kPackId)) {
    throw MessageError("CSMF payload: bad source at payload offset 0: " +
                       std::to_string(static_cast<unsigned>(source)) +
                       " is not a NodeAddSource");
  }
  msg.source = static_cast<NodeAddSource>(source);
  msg.n_sensors = in.u32("n_sensors");
  const std::span<const std::uint8_t> body = in.rest();
  if (msg.source == NodeAddSource::kInlineRecord) {
    msg.record.assign(body.begin(), body.end());
  } else {
    msg.pack_id.assign(reinterpret_cast<const char*>(body.data()),
                       body.size());
  }
  return msg;
}

// ---------------------------------------------------------------------------
// kDrainResponse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_drain_response(const DrainResponse& msg) {
  constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  if (msg.signatures.size() > kU32Max) {
    throw std::invalid_argument(
        "encode_drain_response: too many signatures for one frame");
  }
  std::size_t bytes = 8 + 4;
  for (const std::vector<double>& sig : msg.signatures) {
    if (sig.size() > kU32Max) {
      throw std::invalid_argument(
          "encode_drain_response: signature too long for one frame");
    }
    bytes += 4 + sig.size() * sizeof(double);
  }
  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  append_u64(out, msg.dropped);
  append_u32(out, static_cast<std::uint32_t>(msg.signatures.size()));
  for (const std::vector<double>& sig : msg.signatures) {
    append_u32(out, static_cast<std::uint32_t>(sig.size()));
    common::wire::append_f64s(out, sig);
  }
  return out;
}

DrainResponse decode_drain_response(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  DrainResponse msg;
  msg.dropped = in.u64("dropped");
  const std::uint64_t count = in.u32("count");
  // Each signature costs at least its 4-byte length prefix, so `count` is
  // bounded by the payload before the outer vector is sized.
  if (count > in.remaining() / 4) {
    throw MessageError(
        "CSMF payload: bad count: " + std::to_string(count) +
        " signatures cannot fit in " + std::to_string(in.remaining()) +
        " remaining bytes");
  }
  msg.signatures.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = in.u32("signature_len");
    in.f64_array("signature", len, msg.signatures.emplace_back());
  }
  in.finish("drain-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kStatsResponse
// ---------------------------------------------------------------------------

StatsResponse make_stats_response(const core::EngineStats& stats,
                                  std::string server_version) {
  StatsResponse msg;
  msg.samples = stats.samples;
  msg.signatures = stats.signatures;
  msg.retrains = stats.retrains;
  msg.dropped = stats.dropped;
  msg.nodes = stats.nodes;
  msg.ingest_seconds = stats.ingest_seconds;
  msg.server_version = std::move(server_version);
  msg.ingest_latency_us = stats.ingest_latency_us;
  msg.retrain_aborts = stats.retrain_aborts;
  msg.retrain_latency_us = stats.retrain_latency_us;
  msg.drift_windows = stats.drift_windows;
  msg.drift_flags = stats.drift_flags;
  msg.drift_retrains = stats.drift_retrains;
  return msg;
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& msg) {
  constexpr std::size_t kU16Max = std::numeric_limits<std::uint16_t>::max();
  if (msg.server_version.size() > kU16Max) {
    throw std::invalid_argument(
        "encode_stats_response: server version string too long");
  }
  std::vector<std::uint8_t> out;
  append_u64(out, msg.samples);
  append_u64(out, msg.signatures);
  append_u64(out, msg.retrains);
  append_u64(out, msg.dropped);
  append_u64(out, msg.nodes);
  append_f64(out, msg.ingest_seconds);
  append_u16(out, static_cast<std::uint16_t>(msg.server_version.size()));
  out.insert(out.end(), msg.server_version.begin(),
             msg.server_version.end());
  append_histogram(out, msg.ingest_latency_us);
  // Retrain-pressure fields, appended (never renumbered): a pre-retrain
  // decoder stops at the ingest histogram and ignores these bytes' absence.
  append_u64(out, msg.retrain_aborts);
  append_histogram(out, msg.retrain_latency_us);
  // Drift-detector fields, appended after the retrain block under the same
  // rule: a pre-drift decoder stops at the retrain histogram.
  append_u64(out, msg.drift_windows);
  append_u64(out, msg.drift_flags);
  append_u64(out, msg.drift_retrains);
  return out;
}

StatsResponse decode_stats_response(std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  StatsResponse msg;
  msg.samples = in.u64("samples");
  msg.signatures = in.u64("signatures");
  msg.retrains = in.u64("retrains");
  msg.dropped = in.u64("dropped");
  msg.nodes = in.u64("nodes");
  msg.ingest_seconds = in.f64("ingest_seconds");
  const std::uint64_t version_len = in.u16("version_len");
  msg.server_version = in.text("server_version", version_len);
  msg.ingest_latency_us = read_histogram(in, "stats-response");
  // A payload ending here came from a peer that predates the appended
  // retrain fields: keep their zero-valued defaults.
  if (in.remaining() == 0) return msg;
  msg.retrain_aborts = in.u64("retrain_aborts");
  msg.retrain_latency_us = read_histogram(in, "stats-response retrain");
  // A payload ending here came from a peer that predates the appended
  // drift-detector fields: keep their zero-valued defaults.
  if (in.remaining() == 0) return msg;
  msg.drift_windows = in.u64("drift_windows");
  msg.drift_flags = in.u64("drift_flags");
  msg.drift_retrains = in.u64("drift_retrains");
  in.finish("stats-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kNodeStatsResponse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_node_stats_response(
    const NodeStatsResponse& msg) {
  constexpr std::size_t kU16Max = std::numeric_limits<std::uint16_t>::max();
  if (msg.nodes.size() > kMaxNodeStatsRows) {
    throw std::invalid_argument(
        "encode_node_stats_response: too many node rows for one frame "
        "(shard the engine)");
  }
  std::vector<std::uint8_t> out;
  append_u32(out, static_cast<std::uint32_t>(msg.nodes.size()));
  for (const core::NodeStats& row : msg.nodes) {
    if (row.name.size() > kU16Max) {
      throw std::invalid_argument(
          "encode_node_stats_response: node name too long");
    }
    append_u16(out, static_cast<std::uint16_t>(row.name.size()));
    out.insert(out.end(), row.name.begin(), row.name.end());
    append_u64(out, row.samples);
    append_u64(out, row.signatures);
    append_u64(out, row.retrains);
    append_u64(out, row.retrain_aborts);
    append_u64(out, row.dropped);
    append_histogram(out, row.ingest_latency_us);
    append_histogram(out, row.retrain_latency_us);
  }
  return out;
}

NodeStatsResponse decode_node_stats_response(
    std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  NodeStatsResponse msg;
  const std::uint64_t count = in.u32("node_count");
  if (count > kMaxNodeStatsRows) {
    throw MessageError("CSMF payload: bad node_count: " +
                       std::to_string(count) + " rows exceed the cap of " +
                       std::to_string(kMaxNodeStatsRows));
  }
  // Each row costs at least its 2-byte name length, so the count is bounded
  // by the bytes present before the vector is sized.
  if (count > in.remaining() / 2) {
    throw MessageError("CSMF payload: bad node_count: " +
                       std::to_string(count) + " rows cannot fit in " +
                       std::to_string(in.remaining()) + " remaining bytes");
  }
  msg.nodes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    core::NodeStats row;
    const std::uint64_t name_len = in.u16("node_name_len");
    row.name = in.text("node_name", name_len);
    row.samples = in.u64("node_samples");
    row.signatures = in.u64("node_signatures");
    row.retrains = in.u64("node_retrains");
    row.retrain_aborts = in.u64("node_retrain_aborts");
    row.dropped = in.u64("node_dropped");
    row.ingest_latency_us = read_histogram(in, "node-stats ingest");
    row.retrain_latency_us = read_histogram(in, "node-stats retrain");
    msg.nodes.push_back(std::move(row));
  }
  in.finish("node-stats-response");
  return msg;
}

// ---------------------------------------------------------------------------
// kOk / kError
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_ok(std::optional<std::uint64_t> value) {
  std::vector<std::uint8_t> out;
  out.push_back(value.has_value() ? 1 : 0);
  append_u64(out, value.value_or(0));
  return out;
}

std::optional<std::uint64_t> decode_ok(
    std::span<const std::uint8_t> payload) {
  PayloadReader in(payload);
  const std::uint8_t has_value = in.u8("has_value");
  if (has_value > 1) {
    throw MessageError(
        "CSMF payload: bad has_value at payload offset 0: expected 0 or 1, "
        "got " +
        std::to_string(static_cast<unsigned>(has_value)));
  }
  const std::uint64_t value = in.u64("value");
  in.finish("ok");
  if (has_value == 0) return std::nullopt;
  return value;
}

std::vector<std::uint8_t> encode_error_text(std::string_view text) {
  if (text.size() > kMaxErrorTextBytes) {
    text = text.substr(0, kMaxErrorTextBytes);
  }
  return {text.begin(), text.end()};
}

std::string decode_error_text(std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxErrorTextBytes) {
    throw MessageError("CSMF payload: error text of " +
                       std::to_string(payload.size()) +
                       " bytes exceeds the cap of " +
                       std::to_string(kMaxErrorTextBytes));
  }
  return {reinterpret_cast<const char*>(payload.data()), payload.size()};
}

}  // namespace csm::net
