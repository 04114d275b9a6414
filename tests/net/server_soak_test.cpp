// Daemon lifecycle under concurrency: a real FleetServer thread serving
// loopback clients that push, drain and add nodes at the same time. The
// whole exchange is bit-for-bit deterministic — every drained signature
// sequence must equal a single-threaded reference engine fed the same
// columns — and the test runs under ThreadSanitizer in the tsan preset,
// making it the data-race probe for the transport + server + engine stack.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/model_codec.hpp"
#include "core/stream_engine.hpp"
#include "net/loopback.hpp"
#include "net/message.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"

namespace csm::net {
namespace {

common::Matrix node_matrix(std::size_t n, std::size_t t,
                           std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.07 * static_cast<double>(c) +
                         0.4 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

core::StreamOptions engine_options() {
  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

std::shared_ptr<const core::SignatureMethod> fit_method(
    const common::Matrix& s) {
  return baselines::default_registry().create("cs:blocks=4")->fit(s);
}

Frame node_add_frame(const std::string& name,
                     const core::SignatureMethod& method) {
  NodeAdd add;
  add.source = NodeAddSource::kInlineRecord;
  add.record = core::codec::encode_binary(method);
  Frame frame;
  frame.type = FrameType::kNodeAdd;
  frame.node = name;
  frame.payload = encode_node_add(add);
  return frame;
}

Frame batch_frame(const std::string& name, const common::Matrix& cols) {
  Frame frame;
  frame.type = FrameType::kSampleBatch;
  frame.node = name;
  frame.payload = encode_sample_batch(cols);
  return frame;
}

DrainResponse drain_node(Connection& conn, FrameReader& reader,
                         const std::string& name) {
  Frame request;
  request.type = FrameType::kDrainRequest;
  request.node = name;
  const Frame response = call(conn, reader, request, 30000);
  EXPECT_EQ(response.type, FrameType::kDrainResponse);
  return decode_drain_response(response.payload);
}

TEST(FleetServerSoak, ConcurrentPushDrainAndLiveAddMatchReference) {
  constexpr std::size_t kSensors = 5;
  constexpr std::size_t kCols = 400;
  const std::array<common::Matrix, 3> data = {
      node_matrix(kSensors, kCols, 101),
      node_matrix(kSensors, kCols, 202),
      node_matrix(kSensors, kCols, 303),
  };
  const std::array<std::string, 3> names = {"node0", "node1", "late"};
  std::array<std::shared_ptr<const core::SignatureMethod>, 3> methods;
  for (std::size_t i = 0; i < 3; ++i) methods[i] = fit_method(data[i]);

  core::StreamEngine engine(engine_options());
  LoopbackHub hub;
  FleetServerOptions options;
  options.server_version = "soak";
  options.registry = &baselines::default_registry();
  options.poll_timeout_ms = 10;
  FleetServer server(hub.listen(), engine, std::move(options));
  std::thread server_thread([&] { server.run(); });

  // Shared drain ledger: the drainer thread and the final sweep both
  // append here, per node, in drain order (FIFO queues make the
  // concatenation equal to the uninterrupted sequence).
  std::mutex ledger_mutex;
  std::array<std::vector<std::vector<double>>, 3> drained;
  std::array<std::atomic<bool>, 3> registered = {false, false, false};
  std::atomic<bool> drainer_stop{false};

  // Pusher i registers its node, then streams its columns in awkward
  // chunk sizes. Pusher 0 additionally registers the third node halfway
  // through — a live fleet-grow while everyone else keeps pushing.
  const auto pusher = [&](std::size_t i) {
    auto conn = hub.connect();
    FrameReader reader;
    const Frame ack = call(*conn, reader, node_add_frame(names[i],
                                                        *methods[i]));
    ASSERT_EQ(ack.type, FrameType::kOk);
    registered[i].store(true);

    const std::array<std::size_t, 4> chunks = {13, 29, 7, 41};
    std::size_t at = 0;
    std::size_t round = 0;
    while (at < kCols) {
      const std::size_t take = std::min(chunks[round++ % chunks.size()],
                                        kCols - at);
      write_frame(*conn, batch_frame(names[i], data[i].sub_cols(at, take)));
      at += take;
      if (i == 0 && round == 8) {
        const Frame late_ack =
            call(*conn, reader, node_add_frame(names[2], *methods[2]));
        ASSERT_EQ(late_ack.type, FrameType::kOk);
        registered[2].store(true);
        std::size_t late_at = 0;
        while (late_at < kCols) {
          const std::size_t late_take = std::min<std::size_t>(
              37, kCols - late_at);
          write_frame(*conn, batch_frame(names[2],
                                         data[2].sub_cols(late_at,
                                                          late_take)));
          late_at += late_take;
        }
      }
    }
    // Sync point: a stats roundtrip proves the daemon has processed every
    // frame this connection sent. Draining stays single-consumer (the
    // drainer thread, then the final sweep) so the ledger's append order
    // matches the server's response order.
    Frame sync;
    sync.type = FrameType::kStatsRequest;
    EXPECT_EQ(call(*conn, reader, sync).type, FrameType::kStatsResponse);
  };

  // The draining client races the pushers, so signatures leave the daemon
  // while columns are still arriving.
  std::thread drainer([&] {
    auto conn = hub.connect();
    FrameReader reader;
    while (!drainer_stop.load()) {
      for (std::size_t i = 0; i < 3; ++i) {
        if (!registered[i].load()) continue;
        DrainResponse part = drain_node(*conn, reader, names[i]);
        EXPECT_EQ(part.dropped, 0u);
        std::lock_guard<std::mutex> lock(ledger_mutex);
        for (auto& sig : part.signatures) {
          drained[i].push_back(std::move(sig));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread pusher0([&] { pusher(0); });
  std::thread pusher1([&] { pusher(1); });
  pusher0.join();
  pusher1.join();
  drainer_stop.store(true);
  drainer.join();

  // Final sweep for anything queued after the drainer stopped; the
  // pushers' stats sync guarantees every column is already ingested.
  {
    auto conn = hub.connect();
    FrameReader reader;
    for (std::size_t i = 0; i < 3; ++i) {
      DrainResponse rest = drain_node(*conn, reader, names[i]);
      for (auto& sig : rest.signatures) {
        drained[i].push_back(std::move(sig));
      }
    }
  }

  server.stop();
  server_thread.join();

  // Bit-for-bit: the interleaved, multi-client run must equal one
  // single-threaded engine fed the same columns in one call each.
  core::StreamEngine reference(engine_options());
  for (std::size_t i = 0; i < 3; ++i) {
    reference.add_node(names[i], methods[i], kSensors);
    reference.ingest(i, data[i]);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const auto expected = reference.drain(i);
    ASSERT_EQ(drained[i].size(), expected.size()) << names[i];
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(drained[i][k], expected[k])
          << names[i] << " signature " << k;
    }
  }

  const core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.samples, 3 * kCols);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.nodes, 3u);
}

TEST(FleetServerSoak, DisconnectAndReconnectMidStreamLosesNothing) {
  constexpr std::size_t kSensors = 4;
  constexpr std::size_t kCols = 240;
  const common::Matrix s = node_matrix(kSensors, kCols, 77);
  const auto method = fit_method(s);

  core::StreamEngine engine(engine_options());
  LoopbackHub hub;
  FleetServerOptions options;
  options.server_version = "soak";
  options.registry = &baselines::default_registry();
  options.poll_timeout_ms = 10;
  FleetServer server(hub.listen(), engine, std::move(options));
  std::thread server_thread([&] { server.run(); });

  std::vector<std::vector<double>> drained;
  {
    auto conn = hub.connect();
    FrameReader reader;
    ASSERT_EQ(call(*conn, reader, node_add_frame("n0", *method)).type,
              FrameType::kOk);
    write_frame(*conn, batch_frame("n0", s.sub_cols(0, kCols / 2)));
    // Drain = sync point: the daemon has ingested everything this
    // connection sent before it goes away.
    DrainResponse half = drain_node(*conn, reader, "n0");
    drained = std::move(half.signatures);
    conn->close();
  }
  {
    // A brand-new connection picks the same node back up mid-stream.
    auto conn = hub.connect();
    FrameReader reader;
    write_frame(*conn, batch_frame("n0", s.sub_cols(kCols / 2,
                                                    kCols - kCols / 2)));
    DrainResponse rest = drain_node(*conn, reader, "n0");
    for (auto& sig : rest.signatures) drained.push_back(std::move(sig));
  }

  server.stop();
  server_thread.join();

  core::StreamEngine reference(engine_options());
  reference.add_node("n0", method, kSensors);
  reference.ingest(0, s);
  const auto expected = reference.drain(0);
  ASSERT_EQ(drained.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(drained[k], expected[k]) << "signature " << k;
  }
  EXPECT_EQ(engine.stats().samples, kCols);
}

// --------------------------------------------------------------------------
// Retrains racing the wire. The daemon ingests on its own thread, so a sync
// retrain stays deterministic whatever the client interleaving — drains,
// stats scrapes and node-stats scrapes race the pushes, and the result must
// still be bit-for-bit the single-threaded replay. The async variant pins
// the invariants that survive nondeterministic swap timing.
// --------------------------------------------------------------------------

core::StreamOptions retrain_engine_options(core::RetrainPolicy policy) {
  core::StreamOptions opts = engine_options();
  opts.retrain_interval = 150;
  opts.history_length = 128;
  opts.retrain_policy = policy;
  opts.retrain_threads = 2;
  return opts;
}

NodeStatsResponse scrape_node_stats(Connection& conn, FrameReader& reader) {
  Frame request;
  request.type = FrameType::kNodeStatsRequest;
  const Frame response = call(conn, reader, request, 30000);
  EXPECT_EQ(response.type, FrameType::kNodeStatsResponse);
  return decode_node_stats_response(response.payload);
}

TEST(FleetServerSoak, SyncRetrainsRaceScrapesBitIdenticalToReference) {
  constexpr std::size_t kSensors = 5;
  constexpr std::size_t kCols = 400;
  const std::array<common::Matrix, 2> data = {
      node_matrix(kSensors, kCols, 611),
      node_matrix(kSensors, kCols, 622),
  };
  const std::array<std::string, 2> names = {"node0", "node1"};
  std::array<std::shared_ptr<const core::SignatureMethod>, 2> methods;
  for (std::size_t i = 0; i < 2; ++i) methods[i] = fit_method(data[i]);

  core::StreamEngine engine(
      retrain_engine_options(core::RetrainPolicy::kSync));
  LoopbackHub hub;
  FleetServerOptions options;
  options.server_version = "soak";
  options.registry = &baselines::default_registry();
  options.poll_timeout_ms = 10;
  FleetServer server(hub.listen(), engine, std::move(options));
  std::thread server_thread([&] { server.run(); });

  std::mutex ledger_mutex;
  std::array<std::vector<std::vector<double>>, 2> drained;
  std::array<std::atomic<bool>, 2> registered = {false, false};
  std::atomic<bool> stop{false};

  const auto pusher = [&](std::size_t i) {
    auto conn = hub.connect();
    FrameReader reader;
    ASSERT_EQ(call(*conn, reader, node_add_frame(names[i], *methods[i])).type,
              FrameType::kOk);
    registered[i].store(true);
    const std::array<std::size_t, 4> chunks = {13, 29, 7, 41};
    std::size_t at = 0;
    std::size_t round = 0;
    while (at < kCols) {
      const std::size_t take = std::min(chunks[round++ % chunks.size()],
                                        kCols - at);
      write_frame(*conn, batch_frame(names[i], data[i].sub_cols(at, take)));
      at += take;
    }
    Frame sync;
    sync.type = FrameType::kStatsRequest;
    EXPECT_EQ(call(*conn, reader, sync).type, FrameType::kStatsResponse);
  };

  std::thread drainer([&] {
    auto conn = hub.connect();
    FrameReader reader;
    while (!stop.load()) {
      for (std::size_t i = 0; i < 2; ++i) {
        if (!registered[i].load()) continue;
        DrainResponse part = drain_node(*conn, reader, names[i]);
        std::lock_guard<std::mutex> lock(ledger_mutex);
        for (auto& sig : part.signatures) {
          drained[i].push_back(std::move(sig));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Scraper: hammers the per-node stats frame while retrains and ingest
  // are running, checking only well-formedness mid-race.
  std::thread scraper([&] {
    auto conn = hub.connect();
    FrameReader reader;
    while (!stop.load()) {
      const NodeStatsResponse rows = scrape_node_stats(*conn, reader);
      for (const core::NodeStats& row : rows.nodes) {
        EXPECT_FALSE(row.name.empty());
        EXPECT_GE(row.samples, row.signatures);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread pusher0([&] { pusher(0); });
  std::thread pusher1([&] { pusher(1); });
  pusher0.join();
  pusher1.join();
  stop.store(true);
  drainer.join();
  scraper.join();

  {
    auto conn = hub.connect();
    FrameReader reader;
    for (std::size_t i = 0; i < 2; ++i) {
      DrainResponse rest = drain_node(*conn, reader, names[i]);
      for (auto& sig : rest.signatures) drained[i].push_back(std::move(sig));
    }
    // Post-quiesce node rows: two sync retrains each (samples 150 and 300),
    // no aborts, and the retrain histogram carries one sample per swap.
    const NodeStatsResponse rows = scrape_node_stats(*conn, reader);
    ASSERT_EQ(rows.nodes.size(), 2u);
    for (const core::NodeStats& row : rows.nodes) {
      EXPECT_EQ(row.samples, kCols);
      EXPECT_EQ(row.retrains, 2u) << row.name;
      EXPECT_EQ(row.retrain_aborts, 0u);
      EXPECT_EQ(row.retrain_latency_us.total(), 2u);
    }
  }

  server.stop();
  server_thread.join();

  core::StreamEngine reference(
      retrain_engine_options(core::RetrainPolicy::kSync));
  for (std::size_t i = 0; i < 2; ++i) {
    reference.add_node(names[i], methods[i], kSensors);
    reference.ingest(i, data[i]);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const auto expected = reference.drain(i);
    ASSERT_EQ(drained[i].size(), expected.size()) << names[i];
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(drained[i][k], expected[k]) << names[i] << " signature " << k;
    }
  }
}

TEST(FleetServerSoak, AsyncRetrainDaemonKeepsCadenceAndCounts) {
  constexpr std::size_t kSensors = 5;
  constexpr std::size_t kCols = 400;
  const common::Matrix s = node_matrix(kSensors, kCols, 733);
  const auto method = fit_method(s);

  core::StreamEngine engine(
      retrain_engine_options(core::RetrainPolicy::kAsync));
  LoopbackHub hub;
  FleetServerOptions options;
  options.server_version = "soak";
  options.registry = &baselines::default_registry();
  options.poll_timeout_ms = 10;
  FleetServer server(hub.listen(), engine, std::move(options));
  std::thread server_thread([&] { server.run(); });

  auto conn = hub.connect();
  FrameReader reader;
  ASSERT_EQ(call(*conn, reader, node_add_frame("n0", *method)).type,
            FrameType::kOk);
  for (std::size_t at = 0; at < kCols; at += 23) {
    write_frame(*conn, batch_frame("n0", s.sub_cols(
                                             at, std::min<std::size_t>(
                                                     23, kCols - at))));
  }
  const DrainResponse drained = drain_node(*conn, reader, "n0");
  // Emission cadence is retrain-policy-independent: windows at 20..400.
  EXPECT_EQ(drained.signatures.size(), (kCols - 20) / 10 + 1);
  const std::size_t sig_len = method->signature_length(kSensors);
  for (const auto& sig : drained.signatures) {
    EXPECT_EQ(sig.size(), sig_len);
  }

  const NodeStatsResponse rows = scrape_node_stats(*conn, reader);
  ASSERT_EQ(rows.nodes.size(), 1u);
  // Two triggers (150, 300): each launched fit is swapped or aborted, or
  // still in flight at scrape time — never double-counted.
  EXPECT_LE(rows.nodes[0].retrains + rows.nodes[0].retrain_aborts, 2u);
  EXPECT_EQ(rows.nodes[0].retrain_latency_us.total(),
            rows.nodes[0].retrains);

  server.stop();
  server_thread.join();
}

}  // namespace
}  // namespace csm::net
