#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>


extern char** environ;

namespace fleetbench {

namespace {

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Csmd::Csmd(const std::string& binary, const std::string& socket,
           const std::vector<std::string>& args,
           const std::filesystem::path& log, int omp_threads) {
  std::vector<std::string> argv_s = {binary, "--socket", socket};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::string omp = "OMP_NUM_THREADS=" + std::to_string(omp_threads);
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_NUM_THREADS=", 16) != 0) env.push_back(*e);
  }
  env.push_back(omp.data());
  env.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), env.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
}

Csmd::~Csmd() {
  if (pid_ > 0 && !status_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool Csmd::running() {
  if (status_) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    status_ = decode_status(status);
    return false;
  }
  return true;
}

int Csmd::stop(double timeout_s) {
  if (!status_) {
    ::kill(pid_, SIGTERM);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    while (running() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!status_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      status_ = decode_status(status);
    }
  }
  return *status_;
}

Client::Client(const std::string& socket, Csmd& daemon, double timeout_s)
    : chunk_(64 * 1024) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket);
  }
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail_errno("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return;
    }
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    if (err != ENOENT && err != ECONNREFUSED) {
      errno = err;
      fail_errno("connect " + socket);
    }
    if (!daemon.running()) {
      throw std::runtime_error("csmd exited before accepting connections");
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error("csmd did not listen on " + socket);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

std::optional<csm::net::Frame> Client::receive(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (std::optional<csm::net::Frame> frame = reader_.next()) return frame;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() < 0) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (ready < 0 && errno != EINTR) fail_errno("poll");
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd_, chunk_.data(), chunk_.size(), 0);
    if (n == 0) return std::nullopt;  // Daemon hung up.
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      fail_errno("recv");
    }
    reader_.feed({chunk_.data(), static_cast<std::size_t>(n)});
  }
}

csm::net::Frame Client::call(const csm::net::Frame& request,
                             csm::net::FrameType expected, int timeout_ms) {
  send(csm::net::encode_frame(request));
  std::optional<csm::net::Frame> reply = receive(timeout_ms);
  if (!reply) {
    throw std::runtime_error(std::string("no answer to ") +
                             csm::net::frame_type_name(request.type));
  }
  if (reply->type != expected) {
    throw std::runtime_error(
        std::string("expected ") + csm::net::frame_type_name(expected) +
        ", got " + csm::net::frame_type_name(reply->type));
  }
  return *std::move(reply);
}

csm::net::StatsResponse scrape_stats(Client& client) {
  return csm::net::decode_stats_response(
      client
          .call(csm::net::Frame{csm::net::FrameType::kStatsRequest, "", {}},
                csm::net::FrameType::kStatsResponse)
          .payload);
}

void check_counters(const csm::net::StatsResponse& scraped,
                    const csm::core::EngineStats& reference, Report& report) {
  if (scraped.signatures != reference.signatures ||
      scraped.retrains != reference.retrains ||
      scraped.drift_flags != reference.drift_flags) {
    report.mismatch("csmd counters differ from the reference engine");
  }
}

std::vector<std::uint8_t> frame_bytes(csm::net::FrameType type,
                                      const std::string& node,
                                      std::vector<std::uint8_t> payload) {
  csm::net::Frame frame;
  frame.type = type;
  frame.node = node;
  frame.payload = std::move(payload);
  return csm::net::encode_frame(frame);
}

}  // namespace fleetbench
