// fleetbench: the end-to-end csmd benchmark driver (see ../README.md).
//
// Shared declarations: run options, the report every workload fills, the
// seeded input generator, drained-signature digests and the small numeric
// helpers the workloads share.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/streaming.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string csmd;                    ///< csmd binary to spawn.
  std::filesystem::path run_dir;       ///< Private per-run scratch (socket,
                                       ///< pack, captures); relative paths
                                       ///< keep the socket path short.
  std::filesystem::path trace_dir;     ///< Where the span file goes.
  bool tiny = false;                   ///< Self-test shapes.
  bool perturb_reference = false;      ///< Self-test: the gate must trip.
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `correct` turns false on any mismatch
/// against the in-process reference; `failed` counts failed operations.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure (printed to stderr, never a number).
  void mismatch(const std::string& what);
};

/// Independent stream seed derived from the run seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Median over `parts` consecutive equal parts of `values` of each part's
/// q-quantile.
double part_quantile(const std::vector<double>& values, double q,
                     std::size_t parts);
/// The lowest q-quantile of any of `parts` consecutive equal parts: the
/// tail of the run's quietest stretch. Host preemption (steal) comes in
/// bursts that inflate whole stretches of a run; a stall the program causes
/// recurs in every part and still shows.
double quietest_part_quantile(const std::vector<double>& values, double q,
                              std::size_t parts);

/// Running digest of one node's drained signatures, in drain order: count
/// plus a CRC32 chain over the raw IEEE bytes, so two streams compare
/// bit-for-bit without keeping every vector.
struct SigDigest {
  std::uint64_t count = 0;
  std::uint32_t crc = 0;

  void add(const std::vector<std::vector<double>>& sigs);
  bool operator==(const SigDigest&) const = default;
};

/// Window-stationary two-factor stream (the generator of
/// bench/scenario_robustness.cpp): two shared white latents with
/// per-sensor loadings, idiosyncratic noise and a per-sensor level. Each
/// call continues the same stream.
class FactorStream {
 public:
  FactorStream(std::size_t sensors, std::uint64_t seed);
  /// The next `cols` samples as a sensors x cols matrix.
  csm::common::Matrix next(std::size_t cols);

 private:
  csm::common::Rng rng_;
  std::vector<double> w1_, w2_, level_;
};

/// Appends `columns` to a column-major buffer (one contiguous column of
/// rows() values per sample), the layout of the engine's ring.
void append_column_major(const csm::common::Matrix& columns,
                         std::vector<double>& out);

/// The engine configuration every workload shares (wl=60, ws=10, history
/// 1024, no retraining).
csm::core::StreamOptions base_stream_options();

/// Node id `prefix` + index, e.g. "n7".
std::string node_name(const char* prefix, std::size_t i);

/// The method every node runs.
inline constexpr const char* kMethodSpec = "cs:blocks=8";

/// OpenMP threads csmd gets beside a load generator running
/// `client_threads` threads: the two together never exceed the cores.
int csmd_omp_threads(std::size_t client_threads);

/// Peak resident set (VmHWM) of a process in MB; "self" for this one.
double vm_hwm_mb(const std::string& pid);
/// CPU seconds (user + system) the main thread of process `pid` has used.
double main_thread_cpu_seconds(int pid);
/// CPU seconds the calling thread has used.
double self_thread_cpu_seconds();

/// The CPUs this process may run on, ascending; never empty.
std::vector<int> allowed_cpus();

/// Pins thread `tid` (0: the calling thread) to one CPU; false on failure.
bool pin_task(int tid, int cpu);

/// Pins the calling thread to one CPU for its lifetime and restores the
/// thread's previous CPU mask on destruction. Threads it starts meanwhile
/// inherit the pin, so OpenMP pools must exist before.
class ThreadPin {
 public:
  explicit ThreadPin(int cpu);
  ~ThreadPin();
  ThreadPin(const ThreadPin&) = delete;
  ThreadPin& operator=(const ThreadPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace fleetbench
