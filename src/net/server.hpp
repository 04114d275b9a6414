// FleetServer: a core::StreamEngine behind a connection loop.
//
// This is the heart of csmd — the in-band ODA deployment of Fig. 1 turned
// into a long-running service. Collector clients connect over any
// net/transport.hpp Listener (unix socket in production, loopback in tests
// and benches), push CSMF frames at it, and the server drives one shared
// StreamEngine: sample batches are ingested into the addressed node, nodes
// are added and removed live, drain requests hand back a node's queued
// signature vectors, and stats requests scrape the fleet-wide counters
// (including the per-node ingest-latency histogram, merged).
//
// Threading: the server itself is single-threaded — one run() loop owns
// every connection, with per-connection read buffers reassembling frames
// across arbitrary read boundaries. Each connection reads straight into its
// FrameReader's buffer, frames are handled as views into it, and replies
// are appended straight onto the connection's output buffer. Clients are
// concurrent with each other only through the transport; the engine
// additionally tolerates external threads (the loopback soak test drains
// from one while the server ingests). stop() is safe from a signal handler
// or another thread.
//
// Per-node backpressure is the engine's StreamOptions::max_pending policy:
// a slow draining client costs the node its OLDEST queued signatures (and
// bumps its drop counter), never unbounded daemon memory.
//
// Error taxonomy per connection: a malformed frame (FrameError — the byte
// stream is desynchronised) gets one final kError frame and the connection
// is closed; a semantic error in a well-formed frame (unknown node, bad
// payload, codec failure) gets a kError answer and the connection lives
// on. Sample batches are NOT acked on success — pushes stay one-way for
// throughput — so a pusher that wants a sync point sends a drain or stats
// request.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/stream_engine.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace csm::core {
class MethodRegistry;
class ModelPack;
}  // namespace csm::core

namespace csm::net {

struct FleetServerOptions {
  /// Build identity reported in kStatsResponse (e.g. the git sha csmd was
  /// built from).
  std::string server_version;
  /// Decodes inline CSMB records in kNodeAdd frames. Required for node
  /// adds; a server without one rejects them.
  const core::MethodRegistry* registry = nullptr;
  /// Resolves kNodeAdd-by-pack-id requests. Optional.
  const core::ModelPack* pack = nullptr;
  /// run()'s wait granularity: how stale a stop() flag can go unnoticed.
  int poll_timeout_ms = 100;
  /// Per-frame payload cap handed to each connection's FrameReader.
  std::size_t max_frame_payload = kMaxFramePayload;
  /// Called after every successful kNodeAdd with the new node's engine
  /// index, name and sensor count — how a capture sink (replay::
  /// EngineRecorder) learns the node table without the net layer depending
  /// on it. Runs on the server thread; must not call back into the server.
  std::function<void(std::size_t index, const std::string& name,
                     std::uint32_t n_sensors)>
      on_node_add;
};

class FleetServer {
 public:
  /// The engine is borrowed, not owned: the caller configures it (and its
  /// max_pending backpressure) and may keep draining it after the server
  /// stops.
  FleetServer(std::unique_ptr<Listener> listener, core::StreamEngine& engine,
              FleetServerOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Serves until stop(). Connections and frames are processed inline on
  /// the calling thread.
  void run();

  /// Requests run() to return after the current iteration. Safe from
  /// another thread and from a signal handler (only an atomic store).
  void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// One service iteration: waits up to timeout_ms for activity, accepts
  /// pending connections, reads/handles/answers frames, drops dead
  /// connections. Returns true if any frame was handled or connection
  /// accepted/closed — the test-facing pump.
  bool poll_once(int timeout_ms);

  /// Live connections currently held by the loop.
  std::size_t n_connections() const noexcept { return clients_.size(); }

  /// Frames handled over the server's lifetime (any type, any client).
  std::uint64_t frames_handled() const noexcept { return frames_; }

  /// Engine index for a node name registered through this server (nodes
  /// added via kNodeAdd). Throws std::invalid_argument for unknown names.
  std::size_t node_index(const std::string& name) const;

 private:
  /// Bytes asked of each read_some: the room prepared in a connection's
  /// FrameReader per read.
  static constexpr std::size_t kReadSize = 16 * 1024;

  struct Client {
    std::unique_ptr<Connection> conn;
    FrameReader reader;
    std::vector<std::uint8_t> out;  ///< Unflushed response bytes.
    /// Decoded kSampleBatch values, reused frame to frame: the engine
    /// ingests the column-major view over them.
    std::vector<double> samples;
    std::size_t out_head = 0;       ///< Flushed prefix of out.
    bool closing = false;           ///< Close once out is flushed.

    Client(std::unique_ptr<Connection> c, std::size_t max_payload)
        : conn(std::move(c)), reader(max_payload) {}
  };

  void accept_pending();
  /// Reads everything a client has, handles complete frames, flushes.
  bool service(Client& client);
  void handle_frame(Client& client, const FrameView& frame);
  void handle_node_add(Client& client, const FrameView& frame);
  /// Appends one frame to the client's unflushed output.
  void reply(Client& client, FrameType type, std::string_view node,
             std::span<const std::uint8_t> payload);
  void flush(Client& client);
  /// Engine index for `node`, throwing std::invalid_argument (a semantic,
  /// connection-preserving error) when the name is unknown or removed.
  std::size_t lookup(std::string_view node) const;

  /// Lets nodes_ be searched by a string_view into the read buffer
  /// without building a std::string per frame.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unique_ptr<Listener> listener_;
  core::StreamEngine& engine_;
  FleetServerOptions options_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      nodes_;
  std::atomic<bool> stop_{false};
  std::uint64_t frames_ = 0;
};

}  // namespace csm::net
