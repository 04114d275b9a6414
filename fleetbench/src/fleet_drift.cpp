// fleet-drift: open loop, few wide nodes, drift-triggered inline retrains.
//
// 8 nodes x 128 sensors under kOnDrift (threshold 0.5, patience 3, the
// tuning of bench/scenario_robustness.cpp) on its two-factor stationary
// stream, with seeded replay::Scenario drift onsets staggered across the
// nodes. One thread pushes 20-column batches on a fixed schedule, each
// followed by its drain request; a second thread reads the replies on the
// same connection. Every window is drift-scored and every onset costs an
// inline fit, so a retrain stall is charged to every batch queued behind
// it. Node models ship inline as CSMB records.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hpp"
#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/stream_engine.hpp"
#include "daemon.hpp"
#include "net/message.hpp"
#include "replay/recording.hpp"
#include "replay/scenario.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

using csm::net::FrameType;

struct Shape {
  std::size_t nodes;
  std::size_t sensors;
  std::size_t batch;     ///< Columns per pushed batch.
  double rate;           ///< Offered node-columns per second.
  std::size_t period;    ///< Samples between a node's drift onsets.
  std::size_t setups;    ///< Timed daemon set-ups per run.
};

// The offered rate sits well below this shape's capacity on a 4-core host
// (csmd is about 20% busy at it on a quiet host), so the backlog grows only
// during a retrain stall even when host contention halves the daemon's
// speed; at twice the rate a contended host pushed csmd near saturation
// and the median latency tripled. 400 batches/s give a 10 s run 4000
// latency samples.
Shape shape_for(bool tiny) {
  return tiny ? Shape{2, 16, 20, 4000.0, 400, 2}
              : Shape{8, 128, 20, 8000.0, 2500, 11};
}

/// Node `i`'s scenario: drift onsets every `period` samples from a seeded,
/// node-staggered first onset, alternately scaling up and back down so the
/// stream stays in range.
std::string drift_spec(const Shape& sh, std::size_t i, std::uint64_t seed,
                       std::size_t total_cols) {
  csm::common::Rng rng(derive_seed(seed, 7000));
  const std::vector<std::size_t> slot = rng.permutation(sh.nodes);
  const std::size_t stride = sh.period / 2 / sh.nodes;
  std::size_t at = sh.period / 4 + slot[i] * stride;
  std::string spec;
  for (std::size_t k = 0; at < total_cols; at += sh.period, ++k) {
    if (k > 0) spec += "+";
    spec += "drift:at=" + std::to_string(at) + ",mix=0.6,gain=" +
            (k % 2 == 0 ? "1.6" : "0.625");
  }
  return spec;
}

/// Node `i`'s pushed stream: the factor stream mutated by its scenario.
class NodeInput {
 public:
  NodeInput(const Shape& sh, std::size_t i, std::uint64_t seed,
            std::size_t total_cols)
      : gen_(sh.sensors, derive_seed(seed, i)), batch_(sh.batch) {
    const std::string spec = drift_spec(sh, i, seed, total_cols);
    if (!spec.empty()) {
      scenario_ =
          csm::replay::Scenario::parse(spec, derive_seed(seed, 8000 + i));
    }
  }
  csm::common::Matrix next() {
    csm::common::Matrix cols = gen_.next(batch_);
    scenario_.apply(0, offset_, cols);
    offset_ += batch_;
    return cols;
  }

 private:
  FactorStream gen_;
  csm::replay::Scenario scenario_;
  std::size_t batch_;
  std::uint64_t offset_ = 0;
};

struct Pending {
  Clock::time_point due;
  std::size_t node = 0;
};

}  // namespace

void run_fleet_drift(const Options& opts, Report& report) {
  const Shape sh = shape_for(opts.tiny);
  csm::core::StreamOptions stream = base_stream_options();
  stream.retrain_policy = csm::core::RetrainPolicy::kOnDrift;
  stream.drift_threshold = 0.5;
  stream.drift_patience = 3;
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();

  const auto per_node = static_cast<std::size_t>(
      opts.seconds * sh.rate / static_cast<double>(sh.batch * sh.nodes));
  const std::size_t total_batches = per_node * sh.nodes;
  const std::size_t total_cols = per_node * sh.batch;
  const std::chrono::duration<double> interval(
      static_cast<double>(sh.batch) / sh.rate);
  std::printf("run: shape %zu nodes x %zu sensors, %zu-column batches, "
              "open loop at %.0f samples/s offered, %zu batches, drift "
              "onsets every %zu samples per node\n",
              sh.nodes, sh.sensors, sh.batch, sh.rate, total_batches,
              sh.period);
  if (per_node == 0) throw std::invalid_argument("run too short for a batch");

  std::vector<csm::common::Matrix> train(sh.nodes);
  std::vector<std::vector<std::uint8_t>> records(sh.nodes);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    train[i] = FactorStream(sh.sensors, derive_seed(opts.seed, 5000 + i))
                   .next(stream.history_length);
    records[i] = csm::core::codec::encode_binary(
        *registry.create(kMethodSpec)->fit(train[i]));
  }

  // Set-up: spawn -> every inline node-add acked, several times.
  const std::string socket = (opts.run_dir / "csmd.sock").string();
  const std::vector<std::string> args = {
      "--window", "60", "--step", "10", "--history", "1024",
      "--drift-threshold", "0.5", "--drift-patience", "3"};
  const int omp = csmd_omp_threads(2);
  std::printf("run: csmd OpenMP threads %d\n", omp);
  std::vector<double> setup_s;
  std::unique_ptr<Csmd> daemon;
  std::unique_ptr<Client> client;
  for (std::size_t k = 0; k < sh.setups; ++k) {
    if (daemon) {
      client.reset();
      ++report.attempted;
      if (daemon->stop() != 0) ++report.failed;
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Csmd>(opts.csmd, socket, args,
                                    opts.run_dir / "csmd.log", omp);
    client = std::make_unique<Client>(socket, *daemon);
    std::vector<std::uint8_t> wire;
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      csm::net::NodeAdd add;
      add.source = csm::net::NodeAddSource::kInlineRecord;
      add.n_sensors = static_cast<std::uint32_t>(sh.sensors);
      add.record = records[i];
      const auto frame = frame_bytes(FrameType::kNodeAdd, node_name("d", i),
                                     csm::net::encode_node_add(add));
      wire.insert(wire.end(), frame.begin(), frame.end());
    }
    client->send(wire);
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      ++report.attempted;
      const auto ack = client->receive(10000);
      if (!ack || ack->type != FrameType::kOk) ++report.failed;
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Measured run: the pusher keeps to the schedule whatever the daemon
  // does; latency runs from each batch's due time.
  std::vector<NodeInput> inputs;
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    inputs.emplace_back(sh, i, opts.seed, total_cols);
  }
  std::mutex mutex;
  std::deque<Pending> pending;  // Guarded by mutex.
  std::vector<double> lag_ms, latency_ms;
  std::vector<SigDigest> digest(sh.nodes);
  std::vector<std::uint64_t> dropped(sh.nodes);
  std::uint64_t read_errors = 0, push_errors = 0, received = 0;
  Clock::time_point last_reply;
  const int pid = daemon->pid();
  const double cpu0 = main_thread_cpu_seconds(pid);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);

  std::thread reader([&] {
    const Clock::time_point give_up =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 interval * static_cast<double>(total_batches)) +
        std::chrono::seconds(30);
    try {
      while (received < total_batches && Clock::now() < give_up) {
        std::optional<csm::net::Frame> frame = client->receive(1000);
        if (!frame) continue;
        if (frame->type != FrameType::kDrainResponse) {
          ++read_errors;
          continue;
        }
        const Clock::time_point now = Clock::now();
        Pending p;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (pending.empty()) throw std::runtime_error("unsolicited reply");
          p = pending.front();
          pending.pop_front();
        }
        const csm::net::DrainResponse reply =
            csm::net::decode_drain_response(frame->payload);
        if (frame->node != node_name("d", p.node)) ++read_errors;
        latency_ms.push_back(ms_between(p.due, now));
        digest[p.node].add(reply.signatures);
        dropped[p.node] = reply.dropped;
        last_reply = now;
        ++received;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetbench: reader: %s\n", e.what());
      ++read_errors;
    }
  });
  // The pusher never waits for replies; a write blocks only while a
  // stalled daemon leaves the socket buffer full, and latency still runs
  // from each batch's due time.
  try {
    for (std::size_t b = 0; b < total_batches; ++b) {
      const std::size_t i = b % sh.nodes;
      std::vector<std::uint8_t> wire =
          frame_bytes(FrameType::kSampleBatch, node_name("d", i),
                      csm::net::encode_sample_batch(inputs[i].next()));
      const auto drain =
          frame_bytes(FrameType::kDrainRequest, node_name("d", i));
      wire.insert(wire.end(), drain.begin(), drain.end());
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   interval * static_cast<double>(b));
      std::this_thread::sleep_until(due);
      lag_ms.push_back(ms_between(due, Clock::now()));
      {
        const std::lock_guard<std::mutex> lock(mutex);
        pending.push_back({due, i});
      }
      client->send(wire);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: pusher: %s\n", e.what());
    ++push_errors;
  }
  reader.join();
  if (received == 0) last_reply = Clock::now();
  const double busy = (main_thread_cpu_seconds(pid) - cpu0) /
                      seconds_between(t0, last_reply);

  ++report.attempted;
  const csm::net::StatsResponse scraped = scrape_stats(*client);
  const double peak_rss = vm_hwm_mb(std::to_string(pid));
  client.reset();
  ++report.attempted;
  if (daemon->stop() != 0) {
    ++report.failed;
    report.mismatch("csmd exited non-zero");
  }
  report.attempted += 2 * total_batches;
  report.failed += read_errors + push_errors + (total_batches - received);
  for (std::uint64_t d : dropped) report.failed += d;
  std::printf("run: %zu signature-latency samples, %llu retrains, csmd "
              "ingest call p99 %.1f ms, csmd %s\n",
              latency_ms.size(),
              static_cast<unsigned long long>(scraped.retrains),
              scraped.ingest_latency_us.quantile(0.99) / 1e3,
              scraped.server_version.c_str());

  // Correctness: regenerate every node's stream into an in-process engine.
  csm::core::StreamEngine ref(stream);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    ref.add_node(node_name("d", i), registry.decode(records[i]), sh.sensors);
    NodeInput input(sh, i, opts.seed, total_cols);
    SigDigest d;
    for (std::size_t b = 0; b < per_node; ++b) {
      csm::common::Matrix cols = input.next();
      if (opts.perturb_reference && i == 0 && b == 0) cols(0, 0) += 1.0;
      ref.ingest(i, cols);
      d.add(ref.drain(i));
    }
    if (!(d == digest[i])) {
      report.mismatch("node " + node_name("d", i) + " drained " +
                      std::to_string(digest[i].count) +
                      " signatures that differ from the reference's " +
                      std::to_string(d.count));
    }
  }
  check_counters(scraped, ref.stats(), report);

  const double job = seconds_between(t0, last_reply);
  report.e2e("samples_per_s",
             static_cast<double>(received * sh.batch) / job, "1/s");
  // Parts of 1000 samples: ten beyond each part's p99.
  const std::size_t parts = std::max<std::size_t>(1, latency_ms.size() / 1000);
  report.e2e("sig_latency_p50_ms", part_quantile(latency_ms, 0.5, parts),
             "ms");
  report.e2e("sig_latency_p99_ms",
             quietest_part_quantile(latency_ms, 0.99, parts), "ms");
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("job_s", job, "s");
  report.e2e("peak_rss_mb", peak_rss, "MB");
  if (!opts.trace) return;

  report.layer("csmd.cpu_busy_ratio", busy, "ratio");
  report.layer("gen.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  // Trace input: the first drift period of every node, in push order, so
  // each node crosses at least one onset.
  const std::size_t trace_per_node =
      std::min(per_node, (sh.period + sh.batch - 1) / sh.batch);
  RedriveInput in{opts.run_dir / "trace.csmr", train,
                  Registration::kInlineRecord, stream};
  {
    std::vector<NodeInput> fresh;
    csm::replay::Recorder recorder(in.capture);
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      fresh.emplace_back(sh, i, opts.seed, total_cols);
      recorder.add_node(node_name("d", i),
                        static_cast<std::uint32_t>(sh.sensors));
    }
    for (std::size_t b = 0; b < trace_per_node * sh.nodes; ++b) {
      recorder.record(static_cast<std::uint32_t>(b % sh.nodes),
                      fresh[b % sh.nodes].next());
    }
    recorder.finish();
  }
  redrive(opts, in, report);
}

}  // namespace fleetbench
