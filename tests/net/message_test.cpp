#include "net/message.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "common/wire.hpp"

namespace csm::net {
namespace {

TEST(PayloadReader, ReadsScalarsInOrder) {
  const std::vector<std::uint8_t> bytes = {
      0x2a,                    // u8 = 42
      0x01, 0x02,              // u16 = 0x0201
      0x04, 0x03, 0x02, 0x01,  // u32 = 0x01020304
  };
  PayloadReader in(bytes);
  EXPECT_EQ(in.u8("a"), 42u);
  EXPECT_EQ(in.u16("b"), 0x0201u);
  EXPECT_EQ(in.u32("c"), 0x01020304u);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_NO_THROW(in.finish("scalars"));
}

TEST(PayloadReader, TruncationNamesTheField) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  PayloadReader in(bytes);
  try {
    in.u32("n_sensors");
    FAIL() << "expected MessageError";
  } catch (const MessageError& e) {
    EXPECT_NE(std::string(e.what()).find("n_sensors"), std::string::npos)
        << e.what();
  }
}

// The no-allocation-from-unvalidated-length rule: a count far beyond the
// bytes present must be rejected up front, not used to size a vector.
TEST(PayloadReader, HugeArrayCountIsRejectedBeforeAllocation) {
  const std::vector<std::uint8_t> bytes(16, 0);
  PayloadReader in(bytes);
  std::vector<double> values;
  EXPECT_THROW(in.f64_array("values", UINT64_C(0x2000000000000000), values),
               MessageError);
  EXPECT_TRUE(values.empty());
  PayloadReader in2(bytes);
  EXPECT_THROW(in2.u64_array("values", UINT64_C(0x2000000000000000)),
               MessageError);
  PayloadReader in3(bytes);
  EXPECT_THROW(in3.bytes("record", UINT64_C(0xffffffffffffffff)),
               MessageError);
}

TEST(PayloadReader, F64ArrayKeepsEveryBitAndResizesTheBuffer) {
  // The bulk copy must carry signed zero, infinities, subnormals and NaN
  // payloads bit for bit, and leave `out` exactly `count` long however
  // large it was before.
  const std::vector<double> want = {
      -0.0, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(UINT64_C(0x7ff8dead0000beef)), 1.0 / 3.0};
  std::vector<std::uint8_t> bytes = {0x07};
  for (const double v : want) common::wire::append_f64(bytes, v);
  PayloadReader in(bytes);
  EXPECT_EQ(in.u8("tag"), 7u);
  std::vector<double> out(32, 9.0);
  in.f64_array("values", want.size(), out);
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "value " << i;
  }
  EXPECT_NO_THROW(in.finish("f64s"));
}

TEST(PayloadReader, FinishRejectsTrailingBytes) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  PayloadReader in(bytes);
  in.u8("a");
  EXPECT_THROW(in.finish("message"), MessageError);
}

// The MessageError text a decode of `payload` throws ("" when it decodes).
template <typename Decode>
std::string decode_error(Decode decode) {
  try {
    decode();
  } catch (const MessageError& e) {
    return e.what();
  }
  return "";
}

// Both kSampleBatch decoders must reject `payload` with one and the same
// MessageError text; returns it.
std::string sample_batch_error(const std::vector<std::uint8_t>& payload) {
  std::vector<double> values;
  const std::string owning =
      decode_error([&] { (void)decode_sample_batch(payload); });
  const std::string view =
      decode_error([&] { (void)decode_sample_columns(payload, values); });
  EXPECT_EQ(owning, view);
  return view;
}

TEST(SampleBatch, RoundTripsColumnMajor) {
  common::Matrix m(3, 4);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<double>(10 * r) + static_cast<double>(c) + 0.25;
    }
  }
  const std::vector<std::uint8_t> payload = encode_sample_batch(m);
  EXPECT_EQ(payload.size(), 8u + 3u * 4u * sizeof(double));
  const common::Matrix back = decode_sample_batch(payload);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  std::vector<double> values;
  const common::MatrixView view = decode_sample_columns(payload, values);
  ASSERT_EQ(view.rows(), m.rows());
  ASSERT_EQ(view.cols(), m.cols());
  EXPECT_TRUE(view.contiguous_cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(back(r, c), m(r, c)) << r << "," << c;
      EXPECT_EQ(view(r, c), m(r, c)) << r << "," << c;
    }
  }
  // A column-major view of the same values encodes to the same bytes.
  EXPECT_EQ(encode_sample_batch(view), payload);
}

TEST(SampleBatch, EveryLayoutEncodesToTheSameBytes) {
  // A row-major Matrix, a one-segment column-major view and a two-segment
  // (wrapped ring) view of the same values are one and the same frame.
  common::Matrix m(3, 5);
  std::vector<double> colmajor;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      m(r, c) = static_cast<double>(r) * 10.0 - static_cast<double>(c);
      colmajor.push_back(m(r, c));
    }
  }
  const std::vector<std::uint8_t> payload = encode_sample_batch(m);
  EXPECT_EQ(encode_sample_batch(
                common::MatrixView::column_major(colmajor.data(), 3, 5)),
            payload);
  const std::span<const double> all(colmajor);
  EXPECT_EQ(encode_sample_batch(common::MatrixView::column_segments(
                all.first(2 * 3), all.subspan(2 * 3), 3)),
            payload);
  EXPECT_EQ(decode_sample_batch(payload), m);
}

TEST(SampleBatch, RejectsTruncatedData) {
  common::Matrix m(2, 3);
  std::vector<std::uint8_t> payload = encode_sample_batch(m);
  payload.resize(payload.size() - 1);
  EXPECT_THROW(decode_sample_batch(payload), MessageError);
  EXPECT_EQ(sample_batch_error(payload),
            "CSMF payload: bad samples at payload offset 8: 6 doubles need "
            "48 bytes, 47 remain");
}

TEST(SampleBatch, RejectsTrailingBytes) {
  common::Matrix m(2, 3);
  std::vector<std::uint8_t> payload = encode_sample_batch(m);
  payload.push_back(0);
  EXPECT_THROW(decode_sample_batch(payload), MessageError);
  EXPECT_EQ(sample_batch_error(payload),
            "CSMF payload: sample-batch has 1 trailing bytes after the last "
            "field");
}

TEST(SampleBatch, BothDecodersRejectAlike) {
  // Short header, and a count whose byte size would overflow a naive
  // bound: both fail on the bytes present, before any allocation.
  EXPECT_EQ(sample_batch_error({1, 0, 0}),
            "CSMF payload: bad n_sensors at payload offset 0: needs 4 bytes, "
            "3 remain");
  EXPECT_EQ(sample_batch_error({1, 0, 0, 0, 2, 0}),
            "CSMF payload: bad n_cols at payload offset 4: needs 4 bytes, 2 "
            "remain");
  EXPECT_NE(sample_batch_error({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                0xff, 0, 0, 0, 0, 0, 0, 0, 0}),
            "");
}

TEST(SampleBatch, ColumnsReuseOneBufferAcrossFrames) {
  std::vector<double> values;
  const common::Matrix big(4, 5, 1.5);
  const common::Matrix small(2, 1, -2.0);
  EXPECT_EQ(common::Matrix(decode_sample_columns(encode_sample_batch(big),
                                                 values)),
            big);
  EXPECT_EQ(common::Matrix(decode_sample_columns(encode_sample_batch(small),
                                                 values)),
            small);
  EXPECT_EQ(values.size(), 2u);
  // A zero-sensor batch keeps its declared column count.
  const common::MatrixView empty =
      decode_sample_columns(encode_sample_batch(common::Matrix(0, 3)), values);
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 3u);
  EXPECT_EQ(decode_sample_batch(encode_sample_batch(common::Matrix(0, 3))),
            common::Matrix(0, 3));
}

TEST(NodeAdd, RoundTripsInlineRecord) {
  NodeAdd msg;
  msg.source = NodeAddSource::kInlineRecord;
  msg.n_sensors = 12;
  msg.record = {0xca, 0xfe, 0x00, 0x01};
  const NodeAdd back = decode_node_add(encode_node_add(msg));
  EXPECT_EQ(back.source, msg.source);
  EXPECT_EQ(back.n_sensors, msg.n_sensors);
  EXPECT_EQ(back.record, msg.record);
  EXPECT_TRUE(back.pack_id.empty());
}

TEST(NodeAdd, RoundTripsPackId) {
  NodeAdd msg;
  msg.source = NodeAddSource::kPackId;
  msg.n_sensors = 0;
  msg.pack_id = "rack3/node07";
  const NodeAdd back = decode_node_add(encode_node_add(msg));
  EXPECT_EQ(back.source, msg.source);
  EXPECT_EQ(back.pack_id, msg.pack_id);
  EXPECT_TRUE(back.record.empty());
}

TEST(NodeAdd, RejectsUnknownSource) {
  NodeAdd msg;
  std::vector<std::uint8_t> payload = encode_node_add(msg);
  payload[0] = 7;  // Not a NodeAddSource.
  EXPECT_THROW(decode_node_add(payload), MessageError);
}

TEST(DrainResponse, RoundTripsSignaturesAndDropCounter) {
  DrainResponse msg;
  msg.dropped = 1234567890123ULL;
  msg.signatures = {{1.0, -2.5, 3.25}, {}, {0.0}};
  const DrainResponse back =
      decode_drain_response(encode_drain_response(msg));
  EXPECT_EQ(back, msg);
}

TEST(DrainResponse, RejectsCountBeyondPayload) {
  DrainResponse msg;
  msg.signatures = {{1.0}};
  std::vector<std::uint8_t> payload = encode_drain_response(msg);
  payload[8] = 0xff;  // count u32 at offset 8: claim 255+ vectors.
  EXPECT_THROW(decode_drain_response(payload), MessageError);
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// Wire bytes pinned from the value-at-a-time encoder the bulk copy
// replaced: every bit of every double survives, signs of zero and NaN
// payloads included.
TEST(DrainResponse, EmptyListMatchesPinnedBytes) {
  EXPECT_EQ(hex_of(encode_drain_response(DrainResponse{})),
            "0000000000000000" "00000000");
}

TEST(DrainResponse, EmptySignatureMatchesPinnedBytes) {
  DrainResponse msg;
  msg.dropped = 0x0102030405060708ULL;
  msg.signatures = {{}};
  EXPECT_EQ(hex_of(encode_drain_response(msg)),
            "0807060504030201" "01000000" "00000000");
}

TEST(DrainResponse, SpecialValuesMatchPinnedBytes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DrainResponse msg;
  msg.dropped = 3;
  msg.signatures = {
      {-0.0, std::bit_cast<double>(0x7ff8000000000001ULL),
       std::bit_cast<double>(0xfff0000000000abcULL)},
      {kInf, -kInf, std::numeric_limits<double>::denorm_min(),
       -std::bit_cast<double>(0x000fffffffffffffULL)},
      {},
      {1.5}};
  EXPECT_EQ(hex_of(encode_drain_response(msg)),
            "0300000000000000" "04000000"
            "03000000" "0000000000000080" "010000000000f87f"
            "bc0a00000000f0ff"
            "04000000" "000000000000f07f" "000000000000f0ff"
            "0100000000000000" "ffffffffffff0f80"
            "00000000"
            "01000000" "000000000000f83f");
  const DrainResponse back = decode_drain_response(encode_drain_response(msg));
  ASSERT_EQ(back.signatures.size(), msg.signatures.size());
  for (std::size_t i = 0; i < msg.signatures.size(); ++i) {
    ASSERT_EQ(back.signatures[i].size(), msg.signatures[i].size());
    for (std::size_t j = 0; j < msg.signatures[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.signatures[i][j]),
                std::bit_cast<std::uint64_t>(msg.signatures[i][j]));
    }
  }
}

TEST(StatsResponse, RoundTripsCountersVersionAndHistogram) {
  core::EngineStats stats;
  stats.samples = 1000;
  stats.signatures = 99;
  stats.retrains = 3;
  stats.dropped = 7;
  stats.nodes = 5;
  stats.ingest_seconds = 1.5;
  stats.ingest_latency_us.add(12.0);
  stats.ingest_latency_us.add(90000.0);  // Overflow sample.
  const StatsResponse msg = make_stats_response(stats, "abc123");

  const StatsResponse back =
      decode_stats_response(encode_stats_response(msg));
  EXPECT_EQ(back.samples, stats.samples);
  EXPECT_EQ(back.signatures, stats.signatures);
  EXPECT_EQ(back.retrains, stats.retrains);
  EXPECT_EQ(back.dropped, stats.dropped);
  EXPECT_EQ(back.nodes, stats.nodes);
  EXPECT_EQ(back.ingest_seconds, stats.ingest_seconds);
  EXPECT_EQ(back.server_version, "abc123");
  ASSERT_EQ(back.ingest_latency_us.bins(), stats.ingest_latency_us.bins());
  EXPECT_EQ(back.ingest_latency_us.lo(), stats.ingest_latency_us.lo());
  EXPECT_EQ(back.ingest_latency_us.hi(), stats.ingest_latency_us.hi());
  EXPECT_EQ(back.ingest_latency_us.total(),
            stats.ingest_latency_us.total());
  EXPECT_EQ(back.ingest_latency_us.overflow(),
            stats.ingest_latency_us.overflow());
  for (std::size_t b = 0; b < back.ingest_latency_us.bins(); ++b) {
    EXPECT_EQ(back.ingest_latency_us.count(b),
              stats.ingest_latency_us.count(b))
        << "bin " << b;
  }
}

TEST(StatsResponse, RejectsTruncatedHistogram) {
  const StatsResponse msg = make_stats_response(core::EngineStats{}, "v");
  std::vector<std::uint8_t> payload = encode_stats_response(msg);
  payload.resize(payload.size() - 4);
  EXPECT_THROW(decode_stats_response(payload), MessageError);
}

TEST(StatsResponse, RoundTripsAppendedRetrainFields) {
  core::EngineStats stats;
  stats.retrains = 4;
  stats.retrain_aborts = 2;
  stats.retrain_latency_us.add(1500.0);
  stats.retrain_latency_us.add(2.0e7);  // Overflow sample.
  const StatsResponse back = decode_stats_response(
      encode_stats_response(make_stats_response(stats, "v")));
  EXPECT_EQ(back.retrains, 4u);
  EXPECT_EQ(back.retrain_aborts, 2u);
  EXPECT_EQ(back.retrain_latency_us.total(),
            stats.retrain_latency_us.total());
  EXPECT_EQ(back.retrain_latency_us.overflow(), 1u);
  ASSERT_EQ(back.retrain_latency_us.bins(),
            stats.retrain_latency_us.bins());
  for (std::size_t b = 0; b < back.retrain_latency_us.bins(); ++b) {
    EXPECT_EQ(back.retrain_latency_us.count(b),
              stats.retrain_latency_us.count(b))
        << "bin " << b;
  }
}

TEST(StatsResponse, DecodesPreRetrainPayloadWithZeroDefaults) {
  // A pre-retrain-pressure peer's payload simply ends after the ingest
  // histogram; the appended fields decode to zero-valued defaults instead
  // of a MessageError (fields are appended, never renumbered).
  core::EngineStats stats;
  stats.retrains = 9;
  stats.retrain_aborts = 5;
  stats.retrain_latency_us.add(100.0);
  const StatsResponse msg = make_stats_response(stats, "old");
  std::vector<std::uint8_t> payload = encode_stats_response(msg);
  const std::size_t appended =
      8 +                                         // u64 retrain_aborts
      (8 + 8 + 8 + 8 + 4) +                       // histogram header
      8 * msg.retrain_latency_us.bins() +         // histogram counts
      3 * 8;                                      // drift counter block
  ASSERT_GT(payload.size(), appended);
  payload.resize(payload.size() - appended);

  const StatsResponse back = decode_stats_response(payload);
  EXPECT_EQ(back.retrains, 9u);  // Pre-existing field still carried.
  EXPECT_EQ(back.retrain_aborts, 0u);
  EXPECT_EQ(back.retrain_latency_us.total(), 0u);
  EXPECT_EQ(back.drift_windows, 0u);
  EXPECT_EQ(back.drift_flags, 0u);
  EXPECT_EQ(back.drift_retrains, 0u);
}

TEST(StatsResponse, DecodesPreDriftPayloadWithZeroDefaults) {
  // A peer from before the kOnDrift counters ends after the retrain
  // histogram; the drift block decodes to zeros, the retrain fields survive.
  core::EngineStats stats;
  stats.retrains = 9;
  stats.retrain_aborts = 5;
  stats.retrain_latency_us.add(100.0);
  stats.drift_windows = 40;
  stats.drift_flags = 4;
  stats.drift_retrains = 2;
  const StatsResponse msg = make_stats_response(stats, "old");
  std::vector<std::uint8_t> payload = encode_stats_response(msg);
  payload.resize(payload.size() - 3 * 8);  // Strip only the drift block.

  const StatsResponse back = decode_stats_response(payload);
  EXPECT_EQ(back.retrains, 9u);
  EXPECT_EQ(back.retrain_aborts, 5u);
  EXPECT_EQ(back.retrain_latency_us.total(), 1u);
  EXPECT_EQ(back.drift_windows, 0u);
  EXPECT_EQ(back.drift_flags, 0u);
  EXPECT_EQ(back.drift_retrains, 0u);
}

TEST(StatsResponse, RoundTripsDriftCounters) {
  core::EngineStats stats;
  stats.drift_windows = 1234;
  stats.drift_flags = 56;
  stats.drift_retrains = 7;
  const StatsResponse msg = make_stats_response(stats, "drifty");
  const StatsResponse back =
      decode_stats_response(encode_stats_response(msg));
  EXPECT_EQ(back.drift_windows, 1234u);
  EXPECT_EQ(back.drift_flags, 56u);
  EXPECT_EQ(back.drift_retrains, 7u);
}

TEST(NodeStatsResponse, RoundTripsRows) {
  NodeStatsResponse msg;
  core::NodeStats a;
  a.name = "rack3/node07";
  a.samples = 123456;
  a.signatures = 789;
  a.retrains = 11;
  a.retrain_aborts = 3;
  a.dropped = 2;
  a.ingest_latency_us.add(42.0);
  a.retrain_latency_us.add(90000.0);
  core::NodeStats b;  // All-default row (empty name is legal on the wire).
  msg.nodes = {a, b};

  const NodeStatsResponse back =
      decode_node_stats_response(encode_node_stats_response(msg));
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_EQ(back.nodes[0].name, a.name);
  EXPECT_EQ(back.nodes[0].samples, a.samples);
  EXPECT_EQ(back.nodes[0].signatures, a.signatures);
  EXPECT_EQ(back.nodes[0].retrains, a.retrains);
  EXPECT_EQ(back.nodes[0].retrain_aborts, a.retrain_aborts);
  EXPECT_EQ(back.nodes[0].dropped, a.dropped);
  EXPECT_EQ(back.nodes[0].ingest_latency_us.total(), 1u);
  EXPECT_EQ(back.nodes[0].retrain_latency_us.total(), 1u);
  EXPECT_EQ(back.nodes[0].retrain_latency_us.bins(),
            a.retrain_latency_us.bins());
  EXPECT_EQ(back.nodes[1].name, "");
  EXPECT_EQ(back.nodes[1].samples, 0u);
}

TEST(NodeStatsResponse, RejectsCountBeyondPayload) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload[0] = 0xff;  // count u32 at offset 0: claim 255+ rows.
  payload[1] = 0xff;
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(NodeStatsResponse, RejectsTruncatedRow) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  msg.nodes.back().name = "n0";
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload.resize(payload.size() - 3);
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(NodeStatsResponse, RejectsTrailingGarbage) {
  NodeStatsResponse msg;
  msg.nodes.emplace_back();
  std::vector<std::uint8_t> payload = encode_node_stats_response(msg);
  payload.push_back(0);
  EXPECT_THROW(decode_node_stats_response(payload), MessageError);
}

TEST(OkMessage, RoundTripsWithAndWithoutValue) {
  EXPECT_EQ(decode_ok(encode_ok(42)), std::optional<std::uint64_t>(42));
  EXPECT_EQ(decode_ok(encode_ok(std::nullopt)), std::nullopt);
}

TEST(ErrorMessage, RoundTripsAndTruncatesAtCap) {
  EXPECT_EQ(decode_error_text(encode_error_text("bad node")), "bad node");
  const std::string huge(2 * kMaxErrorTextBytes, 'e');
  const std::string back = decode_error_text(encode_error_text(huge));
  EXPECT_EQ(back.size(), kMaxErrorTextBytes);
}

}  // namespace
}  // namespace csm::net
