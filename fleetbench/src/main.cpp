// fleetbench — the repository's end-to-end benchmark driver.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              --csmd PATH --run-dir DIR --trace-dir DIR
//              [--tiny] [--perturb-reference]
//
// Workloads: fleet-steady, fleet-drift, replay-refit (see ../README.md).
// Prints one "metric NAME VALUE UNIT" line per metric, then, as the last
// line of stdout, one JSON object with the keys correct, attempted, failed
// and metrics. --trace 0 reports the end-to-end metrics; --trace 1 the
// per-layer metrics of the traced re-drive. --tiny shrinks every shape for
// the benchmark's own tests, and --perturb-reference alters the reference
// input so the correctness gate must trip. Exit status: 0 when the outputs
// match the reference, 1 when they do not, 2 on a usage or runtime error.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "benchkit/benchkit.hpp"
#include "common/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace fleetbench;

Options parse(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      opts.trace = v == "1";
      have_trace = true;
    } else if (arg == "--csmd") {
      opts.csmd = value();
    } else if (arg == "--run-dir") {
      opts.run_dir = value();
    } else if (arg == "--trace-dir") {
      opts.trace_dir = value();
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--perturb-reference") {
      opts.perturb_reference = true;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (opts.workload.empty() || !have_seed || !have_trace ||
      opts.csmd.empty() || opts.run_dir.empty() || opts.trace_dir.empty() ||
      !(opts.seconds > 0.0)) {
    throw std::invalid_argument(
        "required: --workload --seed --seconds --trace --csmd --run-dir "
        "--trace-dir");
  }
  return opts;
}

void print_json(const Report& report, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  report.attempted, 1)),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: " << e.what() << '\n';
    return 2;
  }
#if defined(_OPENMP)
  // Never more OpenMP threads than cores.
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  omp_set_num_threads(std::max(1, std::min(omp_get_max_threads(), nproc)));
#endif
  std::printf("run: workload %s, seed %llu, %.3g s, trace %d, OpenMP threads "
              "%d, git %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0,
              csm::common::parallel_thread_count(),
              csm::benchkit::git_sha().c_str());

  Report report;
  try {
    if (opts.workload == "fleet-steady") {
      run_fleet_steady(opts, report);
    } else if (opts.workload == "fleet-drift") {
      run_fleet_drift(opts, report);
    } else if (opts.workload == "replay-refit") {
      run_replay_refit(opts, report);
    } else {
      std::cerr << "fleetbench: unknown workload " << opts.workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: " << e.what() << '\n';
    return 2;
  }

  const std::vector<Metric>& metrics =
      opts.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_ops_ratio %.6g ratio (%llu of %llu operations)\n",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      report.attempted, 1)),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  print_json(report, metrics);
  return report.correct ? 0 : 1;
}
