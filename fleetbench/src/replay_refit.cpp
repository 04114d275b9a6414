// replay-refit: a batch job with no daemon.
//
// A CSMR capture of 8 nodes x 512 sensors is written at setup. One job
// opens it with replay::ReplayReader, refits every node on its recorded
// samples (SignatureMethod::fit, as `csmcli replay` does), then re-drives
// every batch through StreamEngine::ingest and drains the node. The
// correlation kernel at a fleet-scale n dominates, with CSMR decode and CRC
// next; no net layer is involved and nodes register by direct add_node.
// Jobs repeat until the run's time is spent. Each job's re-drive is pinned
// to the next allowed CPU in turn, and every CPU drives as many jobs, so a
// run samples all cores of a shared host instead of whichever one the
// scheduler settled on.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "baselines/registry.hpp"
#include "core/method_registry.hpp"
#include "core/stream_engine.hpp"
#include "replay/recording.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

struct Shape {
  std::size_t nodes;
  std::size_t sensors;
  std::size_t cols;   ///< Recorded samples per node.
  std::size_t batch;  ///< Columns per recorded batch.
};

Shape shape_for(bool tiny) {
  return tiny ? Shape{2, 32, 256, 32} : Shape{8, 512, 2048, 32};
}

/// Each node's recorded samples, regenerated from the seed.
std::vector<csm::common::Matrix> node_data(const Shape& sh,
                                           std::uint64_t seed) {
  std::vector<csm::common::Matrix> data(sh.nodes);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    data[i] = FactorStream(sh.sensors, derive_seed(seed, i)).next(sh.cols);
  }
  return data;
}

/// One job's timings and outputs.
struct Job {
  double setup_s = 0.0;  ///< Open + assemble + refit every node.
  double total_s = 0.0;
  double drive_s = 0.0;  ///< Re-drive of every batch.
  std::vector<double> latency_ms;  ///< Per batch: ingest + drain.
  std::vector<double> lag_ms;      ///< Per batch: previous done -> ingest.
  std::vector<SigDigest> digest;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
};

Job run_job(const std::filesystem::path& capture,
            const csm::core::StreamOptions& stream, int drive_cpu) {
  Job job;
  const Clock::time_point t0 = Clock::now();
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  csm::replay::ReplayReader reader = csm::replay::ReplayReader::open(capture);
  const std::size_t n = reader.n_nodes();
  std::vector<std::vector<csm::common::Matrix>> parts(n);
  while (auto batch = reader.next()) {
    parts[batch->node].push_back(std::move(batch->columns));
  }
  csm::core::StreamEngine engine(stream);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t total = 0;
    for (const csm::common::Matrix& p : parts[i]) total += p.cols();
    csm::common::Matrix full(reader.node(i).n_sensors, total);
    std::size_t at = 0;
    for (const csm::common::Matrix& p : parts[i]) {
      for (std::size_t r = 0; r < p.rows(); ++r) {
        for (std::size_t c = 0; c < p.cols(); ++c) full(r, at + c) = p(r, c);
      }
      at += p.cols();
    }
    parts[i].clear();
    engine.add_node(reader.node(i).id, registry.create(kMethodSpec)->fit(full),
                    reader.node(i).n_sensors);
  }
  reader.rewind();
  const Clock::time_point setup_done = Clock::now();
  job.setup_s = seconds_between(t0, setup_done);
  job.digest.resize(n);
  // Pinned after the refits, so the OpenMP pool they use keeps every CPU.
  const ThreadPin pin(drive_cpu);
  Clock::time_point done = Clock::now();
  while (auto batch = reader.next()) {
    const Clock::time_point start = Clock::now();
    engine.ingest(batch->node, batch->columns);
    job.digest[batch->node].add(engine.drain(batch->node));
    const Clock::time_point end = Clock::now();
    job.lag_ms.push_back(ms_between(done, start));
    job.latency_ms.push_back(ms_between(start, end));
    done = end;
    ++job.batches;
    job.samples += batch->columns.cols();
  }
  job.total_s = seconds_between(t0, done);
  job.drive_s = seconds_between(setup_done, done);
  return job;
}

}  // namespace

void run_replay_refit(const Options& opts, Report& report) {
  const Shape sh = shape_for(opts.tiny);
  const csm::core::StreamOptions stream = base_stream_options();
  std::printf("run: shape %zu nodes x %zu sensors x %zu samples, "
              "%zu-column batches, batch job (no daemon)\n",
              sh.nodes, sh.sensors, sh.cols, sh.batch);

  const std::filesystem::path capture = opts.run_dir / "capture.csmr";
  {
    const std::vector<csm::common::Matrix> data = node_data(sh, opts.seed);
    csm::replay::Recorder recorder(capture);
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      recorder.add_node(node_name("r", i),
                        static_cast<std::uint32_t>(sh.sensors));
    }
    for (std::size_t start = 0; start < sh.cols; start += sh.batch) {
      for (std::size_t i = 0; i < sh.nodes; ++i) {
        recorder.record(static_cast<std::uint32_t>(i),
                        data[i].sub_cols(start, sh.batch));
      }
    }
    recorder.finish();
  }

  const std::vector<int> cpus = allowed_cpus();
  std::vector<Job> jobs;
  const double cpu0 = self_thread_cpu_seconds();
  const Clock::time_point start = Clock::now();
  while (jobs.size() < 2 || jobs.size() % cpus.size() != 0 ||
         seconds_between(start, Clock::now()) < opts.seconds) {
    report.attempted += sh.nodes;
    try {
      jobs.push_back(
          run_job(capture, stream, cpus[jobs.size() % cpus.size()]));
      report.attempted += jobs.back().batches;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetbench: job: %s\n", e.what());
      ++report.failed;
      break;
    }
  }
  const double busy = (self_thread_cpu_seconds() - cpu0) /
                      seconds_between(start, Clock::now());
  const double peak_rss = vm_hwm_mb("self");
  if (jobs.empty()) throw std::runtime_error("no replay job completed");

  std::vector<double> setup, total, rate, p50, p99, lag;
  std::size_t latencies = 0;
  for (const Job& job : jobs) {
    setup.push_back(job.setup_s);
    total.push_back(job.total_s);
    rate.push_back(static_cast<double>(job.samples) / job.drive_s);
    p50.push_back(quantile(job.latency_ms, 0.5));
    p99.push_back(quantile(job.latency_ms, 0.99));
    latencies += job.latency_ms.size();
    lag.insert(lag.end(), job.lag_ms.begin(), job.lag_ms.end());
  }
  std::printf("run: %zu jobs, %zu signature-latency samples\n", jobs.size(),
              latencies);

  // Correctness: fit on the generated samples directly and feed them to an
  // in-process engine; every replayed job must drain the same signatures.
  const csm::core::MethodRegistry& registry =
      csm::baselines::default_registry();
  std::vector<csm::common::Matrix> data = node_data(sh, opts.seed);
  csm::core::StreamEngine ref(stream);
  for (std::size_t i = 0; i < sh.nodes; ++i) {
    ref.add_node(node_name("r", i), registry.create(kMethodSpec)->fit(data[i]),
                 sh.sensors);
  }
  if (opts.perturb_reference) data[0](0, 0) += 1.0;
  std::vector<SigDigest> digest(sh.nodes);
  for (std::size_t start = 0; start < sh.cols; start += sh.batch) {
    for (std::size_t i = 0; i < sh.nodes; ++i) {
      ref.ingest(i, data[i].sub_cols(start, sh.batch));
      digest[i].add(ref.drain(i));
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].digest != digest) {
      report.mismatch("replay job " + std::to_string(j) +
                      " drained signatures that differ from the reference");
    }
  }

  report.e2e("samples_per_s", median(rate), "1/s");
  // The quantiles a typical job sees: each job's 512 latencies hold five
  // beyond its p99, and the median over jobs (every CPU drives as many)
  // leaves out the jobs a burst of host steal hit.
  report.e2e("sig_latency_p50_ms", median(p50), "ms");
  report.e2e("sig_latency_p99_ms", median(p99), "ms");
  report.e2e("setup_s", median(setup), "s");
  report.e2e("job_s", median(total), "s");
  report.e2e("peak_rss_mb", peak_rss, "MB");
  if (!opts.trace) return;

  report.layer("csmd.cpu_busy_ratio", busy, "ratio");
  report.layer("gen.lag_p99_ms", quantile(lag, 0.99), "ms");
  // The perturbation above touched only the reference's copy.
  if (opts.perturb_reference) data[0](0, 0) -= 1.0;
  redrive(opts, RedriveInput{capture, data, Registration::kRefit, stream},
          report);
}

}  // namespace fleetbench
