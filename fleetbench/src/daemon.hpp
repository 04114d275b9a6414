// The out-of-process side of the benchmark: a csmd child on a private unix
// socket, and the blocking CSMF client the load generator drives it with.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"

namespace fleetbench {

/// One csmd child process. The destructor kills and reaps a daemon that was
/// not stopped, so no exit path leaves a process behind.
class Csmd {
 public:
  /// Spawns `binary --socket <socket> <args...>` with stdout and stderr
  /// appended to `log` and at most `omp_threads` OpenMP threads. Throws
  /// std::runtime_error when the spawn fails.
  Csmd(const std::string& binary, const std::string& socket,
       const std::vector<std::string>& args, const std::filesystem::path& log,
       int omp_threads);
  ~Csmd();
  Csmd(const Csmd&) = delete;
  Csmd& operator=(const Csmd&) = delete;

  pid_t pid() const noexcept { return pid_; }
  /// False once the child has exited (reaps it and keeps its status).
  bool running();
  /// SIGTERM, wait up to `timeout_s`, then SIGKILL. Returns the exit code,
  /// or 128 + signal number when the child died of a signal.
  int stop(double timeout_s = 10.0);

 private:
  pid_t pid_ = -1;
  std::optional<int> status_;
};

/// Blocking unix-socket CSMF client. send() and receive() may run on two
/// different threads (one writer, one reader); each alone is not
/// re-entrant.
class Client {
 public:
  /// Connects to `socket`, retrying while the daemon starts. Throws
  /// std::runtime_error when `daemon` dies or `timeout_s` passes first.
  Client(const std::string& socket, Csmd& daemon, double timeout_s = 10.0);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes every byte. Throws std::runtime_error when the peer is gone.
  void send(std::span<const std::uint8_t> bytes);
  /// The next frame, or std::nullopt on timeout or EOF.
  std::optional<csm::net::Frame> receive(int timeout_ms);
  /// send() + receive() of one request that expects `expected` back.
  /// Throws std::runtime_error on any other answer.
  csm::net::Frame call(const csm::net::Frame& request,
                       csm::net::FrameType expected, int timeout_ms = 10000);

 private:
  int fd_ = -1;
  csm::net::FrameReader reader_;
  std::vector<std::uint8_t> chunk_;
};

/// Scrapes csmd's fleet-wide counters over `client`.
csm::net::StatsResponse scrape_stats(Client& client);

/// Records a mismatch unless csmd's signature, retrain and drift-flag
/// counters equal the reference engine's.
void check_counters(const csm::net::StatsResponse& scraped,
                    const csm::core::EngineStats& reference, Report& report);

/// The encoded bytes of one frame (type, node id, payload).
std::vector<std::uint8_t> frame_bytes(csm::net::FrameType type,
                                      const std::string& node,
                                      std::vector<std::uint8_t> payload = {});

}  // namespace fleetbench
