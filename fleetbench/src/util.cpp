#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/model_codec.hpp"

namespace fleetbench {

void Report::mismatch(const std::string& what) {
  correct = false;
  std::cerr << "fleetbench: MISMATCH: " << what << '\n';
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

std::vector<double> per_part_quantiles(const std::vector<double>& values,
                                       double q, std::size_t parts) {
  std::vector<double> out;
  const auto at = [&](std::size_t k) {
    return values.begin() +
           static_cast<std::ptrdiff_t>(k * values.size() / parts);
  };
  for (std::size_t k = 0; k < parts; ++k) {
    out.push_back(quantile({at(k), at(k + 1)}, q));
  }
  return out;
}

}  // namespace

double part_quantile(const std::vector<double>& values, double q,
                     std::size_t parts) {
  return median(per_part_quantiles(values, q, parts));
}

double quietest_part_quantile(const std::vector<double>& values, double q,
                              std::size_t parts) {
  const std::vector<double> tails = per_part_quantiles(values, q, parts);
  return *std::min_element(tails.begin(), tails.end());
}

void SigDigest::add(const std::vector<std::vector<double>>& sigs) {
  for (const std::vector<double>& sig : sigs) {
    ++count;
    crc = csm::core::codec::crc32(
        {reinterpret_cast<const std::uint8_t*>(sig.data()),
         sig.size() * sizeof(double)},
        crc);
  }
}

FactorStream::FactorStream(std::size_t sensors, std::uint64_t seed)
    : rng_(seed), w1_(sensors), w2_(sensors), level_(sensors) {
  for (std::size_t r = 0; r < sensors; ++r) {
    w1_[r] = std::cos(0.4 * static_cast<double>(r));
    w2_[r] = std::sin(0.4 * static_cast<double>(r));
    level_[r] = 1.0 + 0.25 * static_cast<double>(r);
  }
}

csm::common::Matrix FactorStream::next(std::size_t cols) {
  csm::common::Matrix s(level_.size(), cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const double z1 = rng_.gaussian();
    const double z2 = rng_.gaussian();
    for (std::size_t r = 0; r < level_.size(); ++r) {
      s(r, c) = level_[r] + w1_[r] * z1 + w2_[r] * z2 + 0.3 * rng_.gaussian();
    }
  }
  return s;
}

void append_column_major(const csm::common::Matrix& columns,
                         std::vector<double>& out) {
  for (std::size_t c = 0; c < columns.cols(); ++c) {
    for (std::size_t r = 0; r < columns.rows(); ++r) {
      out.push_back(columns(r, c));
    }
  }
}

std::string node_name(const char* prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

csm::core::StreamOptions base_stream_options() {
  csm::core::StreamOptions opts;
  opts.window_length = 60;
  opts.window_step = 10;
  opts.history_length = 1024;
  opts.cs.blocks = 8;
  return opts;
}

int csmd_omp_threads(std::size_t client_threads) {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(
      std::max<long>(1, cores - static_cast<long>(client_threads)));
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

double main_thread_cpu_seconds(int pid) {
  const std::string id = std::to_string(pid);
  std::ifstream in("/proc/" + id + "/task/" + id + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0.0, stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(::sched_getcpu());
  return cpus;
}

bool pin_task(int tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(tid, sizeof(one), &one) == 0;
}

ThreadPin::ThreadPin(int cpu) {
  pinned_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
            pin_task(0, cpu);
}

ThreadPin::~ThreadPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace fleetbench
