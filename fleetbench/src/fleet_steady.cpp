// fleet-steady: closed loop, many small nodes, no retraining.
//
// 64 nodes x 32 sensors, cs:blocks=8, wl=60, ws=10, history 1024. Two
// client threads each own one connection and half the nodes; a round
// pushes one 20-column batch per owned node, then drains those nodes, and
// the next round starts when every connection has its last drain reply
// (a fleet-wide collection round). Nodes are registered by pack id from a
// ModelPack written at setup. Small frames and many nodes put the time in
// the net frame path and in core ring push and window emit; no fit and no
// drift score runs. csmd's server thread and each client thread run on a
// CPU of their own, and the placement shifts by one CPU every pass, so a
// run samples every core of a shared host instead of wherever the
// scheduler first put the three.
#include <barrier>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hpp"
#include "core/method_registry.hpp"
#include "core/model_pack.hpp"
#include "core/stream_engine.hpp"
#include "daemon.hpp"
#include "net/message.hpp"
#include "replay/recording.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

using csm::net::FrameType;

struct Shape {
  std::size_t nodes;
  std::size_t sensors;
  std::size_t batch;   ///< Columns per pushed batch.
  std::size_t rounds;  ///< Rounds per pass over the generated input.
  std::size_t conns;   ///< Client threads, one connection each.
  std::size_t setups;  ///< Timed daemon set-ups per run.
};

Shape shape_for(bool tiny) {
  return tiny ? Shape{4, 8, 20, 5, 2, 2} : Shape{64, 32, 20, 25, 2, 11};
}

/// One client thread's view of the run.
struct Conn {
  std::vector<std::size_t> nodes;               ///< Owned node indices.
  std::vector<std::vector<std::uint8_t>> wire;  ///< Encoded round r.
  std::unique_ptr<Client> client;
  std::size_t rounds = 0;
  std::vector<double> latency_ms;  ///< Per batch: write -> drain reply.
  std::vector<double> lag_ms;      ///< Per round: round due -> write.
  std::vector<SigDigest> digest;   ///< Per owned node.
  std::vector<std::uint64_t> dropped;
  std::uint64_t errors = 0;
  std::uint64_t missing = 0;
};

/// The fleet's collection rounds, in lockstep: a round starts when every
/// connection has all drain replies of the previous one. Free-running
/// connections fall into a phase relation with each other that persists for
/// a whole run and moves latency by a quarter, so runs would not compare.
class Rounds {
 public:
  Rounds(std::size_t conns, Clock::time_point deadline,
         std::size_t rounds_per_pass, int csmd_pid)
      : deadline_(deadline),
        rounds_per_pass_(rounds_per_pass),
        csmd_pid_(csmd_pid),
        sync_(static_cast<std::ptrdiff_t>(conns), End{this}) {}
  /// Waits for the next round; false once the run's time is spent. At the
  /// start of a pass, pins the calling client thread (slot 1, 2, ...) to
  /// its CPU for the pass; the last arrival has pinned csmd (slot 0).
  bool next(std::size_t slot) {
    sync_.arrive_and_wait();
    if (round_ % rounds_per_pass_ == 0) pin_task(0, cpu(slot));
    return !stop_;
  }
  /// When the current round became due (the previous one completed).
  Clock::time_point due() const { return due_; }
  /// Seconds each completed round took, due to due; read after the run.
  const std::vector<double>& round_s() const { return round_s_; }
  /// Leaves the run early (a failed connection) without stalling the rest.
  void leave() { sync_.arrive_and_drop(); }

 private:
  struct End {
    Rounds* rounds;
    void operator()() noexcept {
      if (++rounds->round_ % rounds->rounds_per_pass_ == 0) {
        pin_task(rounds->csmd_pid_, rounds->cpu(0));
      }
      const Clock::time_point now = Clock::now();
      if (rounds->round_ > 0) {
        rounds->round_s_.push_back(seconds_between(rounds->due_, now));
      }
      rounds->due_ = now;
      rounds->stop_ = now >= rounds->deadline_;
    }
  };
  int cpu(std::size_t slot) const {
    const std::size_t pass = round_ / rounds_per_pass_;
    return cpus_[(pass + slot) % cpus_.size()];
  }
  Clock::time_point deadline_;
  std::size_t rounds_per_pass_;
  int csmd_pid_;
  std::vector<int> cpus_ = allowed_cpus();
  // Written by the phase completion only, read after the barrier releases.
  Clock::time_point due_;
  std::size_t round_ = std::size_t(-1);  ///< Current round, from 0.
  std::vector<double> round_s_;
  bool stop_ = false;
  std::barrier<End> sync_;
};

void closed_loop(Conn& c, std::size_t slot, std::size_t rounds_per_pass,
                 Rounds& rounds) {
  const std::size_t owned = c.nodes.size();
  try {
    while (rounds.next(slot)) {
      const Clock::time_point start = Clock::now();
      c.lag_ms.push_back(ms_between(rounds.due(), start));
      c.client->send(c.wire[c.rounds % rounds_per_pass]);
      for (std::size_t got = 0; got < owned;) {
        std::optional<csm::net::Frame> frame = c.client->receive(10000);
        if (!frame) {
          c.missing += owned - got;
          rounds.leave();
          return;
        }
        if (frame->type != FrameType::kDrainResponse ||
            frame->node != node_name("n", c.nodes[got])) {
          ++c.errors;  // Error frame, or an answer out of order.
          continue;
        }
        const csm::net::DrainResponse reply =
            csm::net::decode_drain_response(frame->payload);
        c.latency_ms.push_back(ms_between(start, Clock::now()));
        c.digest[got].add(reply.signatures);
        c.dropped[got] = reply.dropped;
        ++got;
      }
      ++c.rounds;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: client thread: %s\n", e.what());
    ++c.errors;
    rounds.leave();
  }
}

}  // namespace

void run_fleet_steady(const Options& opts, Report& report) {
  const Shape sh = shape_for(opts.tiny);
  const csm::core::StreamOptions stream = base_stream_options();
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  std::printf("run: shape %zu nodes x %zu sensors, %zu-column batches, "
              "%zu connections, closed loop, %zu rounds per pass\n",
              sh.nodes, sh.sensors, sh.batch, sh.conns, sh.rounds);

  // Inputs: each node's training prefix and one pass of pushed columns.
  std::vector<csm::common::Matrix> train(sh.nodes), input(sh.nodes);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    FactorStream gen(sh.sensors, derive_seed(opts.seed, i));
    train[i] = gen.next(stream.history_length);
    input[i] = gen.next(sh.rounds * sh.batch);
  }
  const std::filesystem::path pack_file = opts.run_dir / "fleet.pack";
  {
    csm::core::ModelPackWriter writer(pack_file);
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      writer.add(node_name("n", i),
                 *registry.create(kMethodSpec)->fit(train[i]));
    }
    writer.finish();
  }
  std::vector<Conn> conns(sh.conns);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    conns[i * sh.conns / sh.nodes].nodes.push_back(i);
  }
  for (Conn& c : conns) {
    c.digest.resize(c.nodes.size());
    c.dropped.resize(c.nodes.size());
    for (std::size_t r = 0; r < sh.rounds; ++r) {
      std::vector<std::uint8_t> wire;
      for (std::size_t i : c.nodes) {
        const auto frame = frame_bytes(
            FrameType::kSampleBatch, node_name("n", i),
            csm::net::encode_sample_batch(
                input[i].sub_cols(r * sh.batch, sh.batch)));
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      for (std::size_t i : c.nodes) {
        const auto frame =
            frame_bytes(FrameType::kDrainRequest, node_name("n", i));
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      c.wire.push_back(std::move(wire));
    }
  }

  // Set-up: spawn -> every node-add acked, several times; the last daemon
  // serves the measured run.
  const std::string socket = (opts.run_dir / "csmd.sock").string();
  const std::vector<std::string> args = {
      "--window", "60", "--step", "10", "--history", "1024",
      "--pack", pack_file.string()};
  const int omp = csmd_omp_threads(sh.conns);
  std::printf("run: csmd OpenMP threads %d\n", omp);
  std::vector<double> setup_s;
  std::unique_ptr<Csmd> daemon;
  for (std::size_t k = 0; k < sh.setups; ++k) {
    if (daemon) {
      for (Conn& c : conns) c.client.reset();
      ++report.attempted;
      if (daemon->stop() != 0) ++report.failed;
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Csmd>(opts.csmd, socket, args,
                                    opts.run_dir / "csmd.log", omp);
    for (Conn& c : conns) {
      c.client = std::make_unique<Client>(socket, *daemon);
      std::vector<std::uint8_t> wire;
      for (std::size_t i : c.nodes) {
        csm::net::NodeAdd add;
        add.source = csm::net::NodeAddSource::kPackId;
        add.pack_id = node_name("n", i);
        const auto frame = frame_bytes(FrameType::kNodeAdd, node_name("n", i),
                                       csm::net::encode_node_add(add));
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      c.client->send(wire);
    }
    for (Conn& c : conns) {
      for (std::size_t n = 0; n < c.nodes.size(); ++n) {
        ++report.attempted;
        const auto ack = c.client->receive(10000);
        if (!ack || ack->type != FrameType::kOk) ++report.failed;
      }
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Measured run.
  const int pid = daemon->pid();
  const double cpu0 = main_thread_cpu_seconds(pid);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  std::vector<double> round_s;
  {
    Rounds rounds(conns.size(), deadline, sh.rounds, pid);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < conns.size(); ++k) {
      threads.emplace_back(closed_loop, std::ref(conns[k]), k + 1, sh.rounds,
                           std::ref(rounds));
    }
    for (std::thread& t : threads) t.join();
    round_s = rounds.round_s();
  }
  const Clock::time_point end = Clock::now();
  const double busy = (main_thread_cpu_seconds(pid) - cpu0) /
                      seconds_between(start, end);
  ++report.attempted;
  const csm::net::StatsResponse scraped = scrape_stats(*conns[0].client);
  const double peak_rss = vm_hwm_mb(std::to_string(pid));
  for (Conn& c : conns) c.client.reset();
  ++report.attempted;
  if (daemon->stop() != 0) {
    ++report.failed;
    report.mismatch("csmd exited non-zero");
  }

  std::vector<double> latency, lag;
  double samples = 0.0;
  for (const Conn& c : conns) {
    latency.insert(latency.end(), c.latency_ms.begin(), c.latency_ms.end());
    lag.insert(lag.end(), c.lag_ms.begin(), c.lag_ms.end());
    const auto owned = static_cast<double>(c.nodes.size());
    samples += static_cast<double>(c.rounds * sh.batch) * owned;
    report.attempted += 2 * c.rounds * c.nodes.size();
    report.failed += c.errors + c.missing;
    for (std::uint64_t d : c.dropped) report.failed += d;
  }
  std::printf("run: %zu signature-latency samples, %zu rounds, csmd %s\n",
              latency.size(), round_s.size(), scraped.server_version.c_str());

  // Correctness: the same batches through an in-process engine must drain
  // bit-identical signatures, and the daemon's counters must match.
  csm::core::StreamEngine ref(stream);
  const csm::core::ModelPack pack = csm::core::ModelPack::open(pack_file);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    ref.add_node(pack, node_name("n", i), registry);
  }
  for (const Conn& c : conns) {
    for (std::size_t k = 0; k < c.nodes.size(); ++k) {
      const std::size_t i = c.nodes[k];
      SigDigest digest;
      for (std::size_t r = 0; r < c.rounds; ++r) {
        csm::common::Matrix cols =
            input[i].sub_cols((r % sh.rounds) * sh.batch, sh.batch);
        if (opts.perturb_reference && i == 0 && r == 0) cols(0, 0) += 1.0;
        ref.ingest(i, cols);
        digest.add(ref.drain(i));
      }
      if (!(digest == c.digest[k])) {
        report.mismatch("node " + node_name("n", i) + " drained " +
                        std::to_string(c.digest[k].count) +
                        " signatures that differ from the reference's " +
                        std::to_string(digest.count));
      }
    }
  }
  check_counters(scraped, ref.stats(), report);

  // Rounds run in lockstep, so a round moves one batch of every node. The
  // median round keeps the vCPU steal of a shared host, which comes in
  // bursts of milliseconds against a round of about 2 ms, from deciding the
  // run: a pass of 25 rounds is hit nearly always, a round mostly not.
  const double round = round_s.empty() ? 0.0 : median(round_s);
  const double job = round_s.empty() ? seconds_between(start, end)
                                     : static_cast<double>(sh.rounds) * round;
  report.e2e("samples_per_s",
             round_s.empty()
                 ? samples / job
                 : static_cast<double>(sh.nodes * sh.batch) / round,
             "1/s");
  // Latencies are in time order per connection. A connection's drain
  // replies arrive together and csmd serves one connection's round before
  // the other's, so the pooled latencies have one mode per connection and
  // their median would fall between the modes; p50 is the mean over
  // connections of each connection's median of its 20 part medians. The
  // p99 is that of the quietest of 60 parts per connection, each about
  // 250 rounds at a 30 s run.
  double p50 = 0.0;
  for (const Conn& c : conns) p50 += part_quantile(c.latency_ms, 0.5, 20);
  report.e2e("sig_latency_p50_ms", p50 / static_cast<double>(conns.size()),
             "ms");
  report.e2e("sig_latency_p99_ms",
             quietest_part_quantile(latency, 0.99, 60 * conns.size()), "ms");
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("job_s", job, "s");
  report.e2e("peak_rss_mb", peak_rss, "MB");
  if (!opts.trace) return;

  report.layer("csmd.cpu_busy_ratio", busy, "ratio");
  report.layer("gen.lag_p99_ms", quantile(lag, 0.99), "ms");
  // Trace input: one pass, round-major, in each round node order.
  RedriveInput in{opts.run_dir / "trace.csmr", train, Registration::kPackId,
                  stream};
  {
    csm::replay::Recorder recorder(in.capture);
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      recorder.add_node(node_name("n", i),
                        static_cast<std::uint32_t>(sh.sensors));
    }
    for (std::size_t r = 0; r < sh.rounds; ++r) {
      for (std::size_t i = 0; i < sh.nodes; ++i) {
        recorder.record(static_cast<std::uint32_t>(i),
                        input[i].sub_cols(r * sh.batch, sh.batch));
      }
    }
    recorder.finish();
  }
  redrive(opts, in, report);
}

}  // namespace fleetbench
