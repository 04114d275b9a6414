// The traced run: the workload's fixed trace input re-driven in-process
// through each module's public functions, in the order csmd calls them
// (replay -> net -> core -> stats). The same pass runs untraced and traced,
// twice each; the spans of the last traced pass give the per-layer numbers
// and the ratio of the faster wall time of each kind is the tracing
// overhead.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "baselines/registry.hpp"
#include "common/matrix_view.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "daemon.hpp"
#include "net/message.hpp"
#include "replay/recording.hpp"
#include "stats/correlation.hpp"
#include "stats/drift.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

using csm::net::FrameType;

/// Work counted during one pass (the denominators of the per-layer rates).
struct Tally {
  std::uint64_t samples = 0;     ///< Node-columns ingested.
  std::uint64_t sigs = 0;        ///< Signatures drained.
  std::uint64_t frames = 0;      ///< Frames reassembled or encoded.
  std::uint64_t read_bytes = 0;  ///< Bytes fed to the FrameReader.
  std::uint64_t wire_bytes = 0;  ///< read_bytes + drain-response bytes.
  std::uint64_t windows = 0;     ///< Windows emitted / drift-scored.
  double corr_coefs = 0.0;       ///< Correlation entries computed.
  double corr_bytes = 0.0;       ///< Bytes the kernel moves (computed).
  std::size_t nodes = 0;
  csm::core::EngineStats stats;
  double sink = 0.0;  ///< Keeps results observable.
};

double pass(const RedriveInput& in, const std::filesystem::path& pack_file,
            Tracer& tr, Tally& t) {
  const Clock::time_point t0 = Clock::now();
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();

  std::optional<csm::replay::ReplayReader> reader;
  {
    auto s = tr.scope("replay.open");
    reader.emplace(csm::replay::ReplayReader::open(in.capture));
  }
  const std::size_t n = reader->n_nodes();
  t.nodes = n;

  // Registration: every way a node's model can reach the engine is timed
  // on this workload's models; the engine takes the workload's own path.
  std::vector<std::shared_ptr<const csm::core::SignatureMethod>> fitted(n);
  std::vector<std::shared_ptr<const csm::core::SignatureMethod>> decoded(n);
  for (std::size_t i = 0; i < n; ++i) {
    {
      auto s = tr.scope("core.fit");
      fitted[i] = registry.create(kMethodSpec)->fit(in.train[i]);
    }
    {
      auto s = tr.scope("stats.corr");
      const csm::common::Matrix c =
          csm::stats::shifted_correlation_matrix(in.train[i]);
      t.sink += c(0, c.cols() - 1);
    }
    const double rows = static_cast<double>(in.train[i].rows());
    const double cols = static_cast<double>(in.train[i].cols());
    t.corr_coefs += rows * rows;
    // Input read, centred copy written, output written: 8 bytes each.
    t.corr_bytes += 8.0 * (2.0 * rows * cols + rows * rows);
  }
  std::vector<std::vector<std::uint8_t>> records(n);
  {
    auto s = tr.scope("harness.pack_write");
    csm::core::ModelPackWriter writer(pack_file);
    for (std::size_t i = 0; i < n; ++i) {
      records[i] = csm::core::codec::encode_binary(*fitted[i]);
      writer.add_record(reader->node(i).id, records[i]);
    }
    writer.finish();
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto s = tr.scope("core.codec_decode");
    decoded[i] = registry.decode(records[i]);
  }
  std::optional<csm::core::ModelPack> pack;
  {
    auto s = tr.scope("core.pack_open");
    pack.emplace(csm::core::ModelPack::open(pack_file));
  }
  csm::core::StreamEngine engine(in.stream);
  for (std::size_t i = 0; i < n; ++i) {
    const csm::replay::RecordedNode& node = reader->node(i);
    auto s = tr.scope("core.add_node");
    switch (in.registration) {
      case Registration::kPackId:
        engine.add_node(*pack, node.id, registry, node.n_sensors);
        break;
      case Registration::kInlineRecord:
        engine.add_node(node.id, decoded[i], node.n_sensors);
        break;
      case Registration::kRefit:
        engine.add_node(node.id, fitted[i], node.n_sensors);
        break;
    }
  }

  // Ingest: each batch as csmd sees it — frame reassembly, batch decode,
  // ingest, then the drain request it is followed by.
  csm::net::FrameReader frames;
  for (std::int64_t id = 0;; ++id) {
    auto root = tr.scope("batch", id);
    std::optional<csm::replay::RecordedBatch> batch;
    {
      auto s = tr.scope("replay.next", id);
      batch = reader->next();
    }
    if (!batch) break;
    const std::string& name = reader->node(batch->node).id;
    std::vector<std::uint8_t> wire;
    {
      auto s = tr.scope("harness.encode", id);
      wire = frame_bytes(FrameType::kSampleBatch, name,
                         csm::net::encode_sample_batch(batch->columns));
      const std::vector<std::uint8_t> drain =
          frame_bytes(FrameType::kDrainRequest, name);
      wire.insert(wire.end(), drain.begin(), drain.end());
    }
    std::optional<csm::net::Frame> push;
    std::optional<csm::net::Frame> drain;
    {
      auto s = tr.scope("net.frame_read", id);
      frames.feed(wire);
      push = frames.next();
      drain = frames.next();
    }
    csm::common::Matrix columns;
    {
      auto s = tr.scope("net.batch_decode", id);
      columns = csm::net::decode_sample_batch(push->payload);
    }
    {
      auto s = tr.scope("core.ingest", id);
      engine.ingest(batch->node, columns);
    }
    csm::net::DrainResponse response;
    {
      auto s = tr.scope("core.drain", id);
      response.signatures = engine.drain(batch->node);
      response.dropped = engine.dropped(batch->node);
    }
    std::vector<std::uint8_t> reply;
    {
      auto s = tr.scope("net.drain_encode", id);
      reply = frame_bytes(FrameType::kDrainResponse, drain->node,
                          csm::net::encode_drain_response(response));
    }
    t.samples += columns.cols();
    t.sigs += response.signatures.size();
    t.frames += 3;
    t.read_bytes += wire.size();
    t.wire_bytes += wire.size() + reply.size();
  }
  t.stats = engine.stats();

  // Kernels inside ingest, called directly on the trace input's windows:
  // the emit (compute_streaming) and the drift score of every window.
  std::vector<std::vector<double>> colmajor(n);
  {
    auto s = tr.scope("harness.assemble");
    reader->rewind();
    while (auto batch = reader->next()) {
      append_column_major(batch->columns, colmajor[batch->node]);
    }
  }
  const std::size_t wl = in.stream.window_length;
  const std::size_t ws = in.stream.window_step;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rows = reader->node(i).n_sensors;
    const std::size_t cols = colmajor[i].size() / rows;
    if (cols < wl) continue;
    const double* data = colmajor[i].data();
    const auto window = [&](std::size_t start) {
      return csm::common::MatrixView::column_segments(
          {data + start * rows, wl * rows}, {}, rows);
    };
    {
      auto s = tr.scope("core.emit");
      for (std::size_t start = 0; start + wl <= cols; start += ws) {
        const std::span<const double> seed(
            data + (start == 0 ? 0 : start - 1) * rows, rows);
        t.sink += fitted[i]->compute_streaming(window(start),
                                               start == 0 ? nullptr : &seed)[0];
      }
    }
    csm::stats::DriftReference ref;
    {
      auto s = tr.scope("stats.drift_reference");
      ref = csm::stats::make_drift_reference(window(0), in.stream.drift_pairs);
    }
    {
      auto s = tr.scope("stats.drift_score");
      for (std::size_t start = 0; start + wl <= cols; start += ws) {
        t.sink += csm::stats::drift_score(window(start), ref);
        ++t.windows;
      }
    }
  }
  return seconds_between(t0, Clock::now());
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void redrive(const Options& opts, const RedriveInput& input, Report& report) {
  const std::filesystem::path pack_file = opts.run_dir / "redrive.pack";
  // Untraced and traced passes alternate; the overhead compares the faster
  // pass of each kind, and the metrics come from the last traced pass.
  Tally plain, t;
  double untraced_s = 1e300, traced_s = 1e300, last_traced_s = 0.0;
  std::optional<Tracer> traced;
  for (int round = 0; round < 2; ++round) {
    Tracer off(false);
    plain = Tally{};
    untraced_s = std::min(untraced_s, pass(input, pack_file, off, plain));
    traced.emplace(true);
    t = Tally{};
    last_traced_s = pass(input, pack_file, *traced, t);
    traced_s = std::min(traced_s, last_traced_s);
  }
  const Tracer& tracer = *traced;

  std::map<std::string, double> self = tracer.self_ns_by_name();
  const auto nodes = static_cast<double>(t.nodes);
  const auto samples = static_cast<double>(t.samples);
  const auto sigs = static_cast<double>(t.sigs);
  const auto windows = static_cast<double>(t.windows);

  report.layer("net.frame_read_ns_per_byte",
               per(self["net.frame_read"], static_cast<double>(t.read_bytes)),
               "ns/byte");
  report.layer("net.batch_decode_ns_per_sample",
               per(self["net.batch_decode"], samples), "ns/sample");
  report.layer("net.drain_encode_ns_per_sig",
               per(self["net.drain_encode"], sigs), "ns/sig");
  report.layer("net.frames", static_cast<double>(t.frames), "count");
  report.layer("net.wire_bytes", static_cast<double>(t.wire_bytes), "bytes");
  report.layer("core.ingest_ns_per_sample", per(self["core.ingest"], samples),
               "ns/sample");
  report.layer("core.ingest_call_p99_us",
               quantile(tracer.durations_ns("core.ingest"), 0.99) / 1e3, "us");
  report.layer("core.drain_ns_per_sig", per(self["core.drain"], sigs),
               "ns/sig");
  report.layer("core.emit_us_per_sig", per(self["core.emit"], windows) / 1e3,
               "us/sig");
  report.layer("core.fit_ms_per_node", per(self["core.fit"], nodes) / 1e6,
               "ms/node");
  report.layer("core.add_node_us", per(self["core.add_node"], nodes) / 1e3,
               "us/node");
  report.layer("core.pack_open_ms", self["core.pack_open"] / 1e6, "ms");
  report.layer("core.codec_decode_us_per_node",
               per(self["core.codec_decode"], nodes) / 1e3, "us/node");
  report.layer("core.signatures", static_cast<double>(t.stats.signatures),
               "count");
  report.layer("core.retrains", static_cast<double>(t.stats.retrains),
               "count");
  report.layer("core.drift_windows",
               static_cast<double>(t.stats.drift_windows), "count");
  report.layer("core.drift_flags", static_cast<double>(t.stats.drift_flags),
               "count");
  report.layer("core.dropped", static_cast<double>(t.stats.dropped), "count");
  report.layer("stats.corr_coef_per_s",
               per(t.corr_coefs, self["stats.corr"] / 1e9), "1/s");
  report.layer("stats.corr_bytes_computed", t.corr_bytes, "bytes");
  report.layer("stats.drift_score_ns_per_window",
               per(self["stats.drift_score"], windows), "ns/window");
  report.layer("replay.open_ms", self["replay.open"] / 1e6, "ms");
  report.layer("replay.next_ns_per_sample", per(self["replay.next"], samples),
               "ns/sample");
  report.layer("trace.overhead_ratio", per(traced_s, untraced_s), "ratio");

  // Self times partition the traced pass: their sum cannot exceed its wall
  // time (the gap is loop overhead outside any span).
  std::map<std::string, double> by_layer;
  double total = 0.0;
  for (const auto& [name, ns] : self) {
    by_layer[name.substr(0, name.find('.'))] += ns;
    total += ns;
  }
  std::printf("trace: %zu spans; self time by layer:", tracer.spans().size());
  for (const auto& [layer, ns] : by_layer) {
    std::printf(" %s %.3f ms", layer.c_str(), ns / 1e6);
  }
  std::printf("; sum %.3f ms of %.3f ms traced wall\n", total / 1e6,
              last_traced_s * 1e3);
  if (total > last_traced_s * 1e9) {
    report.mismatch("span self times exceed the traced wall time");
  }
  if (plain.stats.signatures != t.stats.signatures ||
      plain.stats.retrains != t.stats.retrains) {
    report.mismatch("traced and untraced re-drives disagree on counts");
  }

  std::filesystem::create_directories(opts.trace_dir);
  const std::filesystem::path file =
      opts.trace_dir /
      (opts.workload + "-seed" + std::to_string(opts.seed) + ".trace.json");
  tracer.write_chrome_json(file);
  std::printf("trace: span file %s\n", file.string().c_str());
}

}  // namespace fleetbench
