// Fleet-wide online ingestion: one MethodStream per monitored node.
//
// A production ODA deployment (Fig. 1) monitors hundreds of compute nodes at
// once; each node has its own trained signature method (CS with a per-node
// model, a PCA basis, or a stateless baseline) and its own signature stream.
// StreamEngine owns one MethodStream per node — any SignatureMethod can be
// driven online, CS keeping its derivative-seeding specialisation — fans
// batched ingestion across nodes with common::parallel_for (nodes are
// independent, so the loop is embarrassingly parallel), buffers emitted
// feature vectors in per-node queues for downstream consumers (classifiers,
// dashboards), and keeps aggregate throughput counters so operators can see
// samples/sec across the whole fleet. Memory stays bounded: each node holds
// n_sensors x history_length doubles of history when it can retrain, and
// n_sensors x (window_length + 1) when it cannot (retrain_interval == 0
// under any policy but kOnDrift), plus its undrained queue. A CS node adds
// its emit cache: window_length + 1 normalised columns of about n_sensors
// doubles each (block-overlap rows appear twice, and a lane group pads its
// shorter blocks to its longest), and the block layout that indexes it,
// four values per cached row.
//
// Concurrency contract: ingest(), ingest_batch(), drain(), pending(),
// stats(), remove_node() and every add_node() overload may be called
// concurrently from multiple threads (the soak test in
// tests/core/stream_engine_soak_test.cpp runs exactly that mix under
// ThreadSanitizer). Each node carries its own mutex — ingest and drain on
// the same node serialise, different nodes proceed in parallel — and the
// node table is guarded by a shared_mutex so add_node can grow a live
// fleet without invalidating in-flight ingestion. Removal tombstones the
// slot instead of erasing it, so node indices stay stable for the engine's
// lifetime and a thread racing the removal sees either the live node or a
// named "node removed" error, never a dangling reference. Per-call
// ordering is the only guarantee: a drain racing an ingest returns either
// side of that batch's signatures, never a torn vector. The stream()
// accessor returns a reference into a node's live state and is safe only
// while no other thread is feeding or removing that node.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "core/method_stream.hpp"
#include "core/signature_method.hpp"
#include "core/streaming.hpp"
#include "stats/histogram.hpp"

namespace csm::core {

class MethodRegistry;
class ModelPack;

/// Per-node ingest-latency histogram shape: time spent processing one
/// ingest call (push_all + queue append, excluding lock wait) in
/// microseconds. Fixed-width bins over [0, kLatencyMaxUs]; slower calls
/// (e.g. a retrain pass inside the ingest) clamp into the last bin and
/// show up in overflow() per the stats::Histogram clamp policy.
inline constexpr std::size_t kLatencyBins = 128;
inline constexpr double kLatencyMaxUs = 16384.0;

inline stats::Histogram make_latency_histogram() {
  return stats::Histogram(kLatencyBins, 0.0, kLatencyMaxUs);
}

/// Aggregate counters across all nodes of a StreamEngine. Counters are
/// cumulative over the engine's lifetime: removing a node folds its totals
/// into the aggregate instead of subtracting them.
struct EngineStats {
  std::uint64_t samples = 0;     ///< Columns ingested, summed over nodes.
  std::uint64_t signatures = 0;  ///< Feature vectors emitted, summed.
  std::uint64_t retrains = 0;    ///< Retraining passes, summed over nodes.
  std::uint64_t dropped = 0;     ///< Signatures shed by queue backpressure.
  std::uint64_t nodes = 0;       ///< Live (non-removed) nodes.
  /// Retrains that fired but never swapped a model in: superseded or
  /// skip-if-busy fits under the async policies (always 0 under kSync).
  std::uint64_t retrain_aborts = 0;
  /// kOnDrift drift-detector totals, summed over nodes (0 under the other
  /// policies): windows scored, windows whose score reached the threshold,
  /// and retrains the detector fired.
  std::uint64_t drift_windows = 0;
  std::uint64_t drift_flags = 0;
  std::uint64_t drift_retrains = 0;
  double ingest_seconds = 0.0;   ///< Wall time spent inside ingestion calls.
  /// Fleet-wide ingest-latency distribution: per-node histograms merged
  /// (one sample per ingest call per node).
  stats::Histogram ingest_latency_us = make_latency_histogram();
  /// Fleet-wide retrain fit latency (one sample per swapped-in retrain;
  /// shape: make_retrain_latency_histogram()).
  stats::Histogram retrain_latency_us = make_retrain_latency_histogram();

  /// Samples per second over the accumulated ingestion time (0 if no time
  /// has been accumulated yet).
  double samples_per_second() const noexcept {
    return ingest_seconds > 0.0
               ? static_cast<double>(samples) / ingest_seconds
               : 0.0;
  }
};

/// Per-node counters for the per-node stats scrape (`csmcli fleet-stats`).
/// Live nodes only: tombstones fold into the fleet-wide EngineStats instead.
struct NodeStats {
  std::string name;
  std::uint64_t samples = 0;
  std::uint64_t signatures = 0;
  std::uint64_t retrains = 0;        ///< Retrained models swapped in.
  std::uint64_t retrain_aborts = 0;  ///< Superseded / skipped retrains.
  std::uint64_t dropped = 0;
  /// kOnDrift per-node drift-detector counters (see EngineStats). NOTE:
  /// these are NOT carried by the node-stats wire rows — that row format
  /// has no extension seam (appending per-row fields breaks decoding in
  /// both directions) — only by the appended kStatsResponse fields.
  std::uint64_t drift_windows = 0;
  std::uint64_t drift_flags = 0;
  std::uint64_t drift_retrains = 0;
  stats::Histogram ingest_latency_us = make_latency_histogram();
  stats::Histogram retrain_latency_us = make_retrain_latency_histogram();
};

/// Multi-node streaming front end over per-node MethodStreams.
class StreamEngine {
 public:
  /// Ingest observer: invoked once per non-empty batch actually fed to a
  /// node, under that node's mutex, AFTER the batch was pushed — so per-node
  /// call order equals per-node ingest order even when ingest_batch fans
  /// nodes out in parallel (replay::Recorder relies on exactly this). The
  /// tap must not call back into the engine (the node mutex is held) and
  /// must tolerate concurrent invocations for different nodes.
  using IngestTap =
      std::function<void(std::size_t node, const common::MatrixView& columns)>;
  /// All nodes share the same windowing/retrain configuration; methods are
  /// per node. Under an async retrain policy the engine owns the bounded
  /// retrain worker pool (options.retrain_threads workers) its nodes'
  /// shadow fits run on. Throws (via StreamOptions/MethodStream
  /// validation) on bad options or bad methods.
  explicit StreamEngine(StreamOptions options) : options_(options) {
    options_.validate();
    // kOnDrift fits inline like kSync, so only the async policies get a
    // worker pool.
    if (options_.retrain_policy == RetrainPolicy::kAsync ||
        options_.retrain_policy == RetrainPolicy::kSkipIfBusy) {
      retrain_pool_ =
          std::make_unique<RetrainExecutor>(options_.retrain_threads);
    }
  }

  /// Registers a node driven by any trained signature method and returns
  /// its index. `n_sensors` is required for sensor-count-agnostic methods
  /// (see MethodStream). Node names are labels only and need not be unique.
  std::size_t add_node(std::string name,
                       std::shared_ptr<const SignatureMethod> method,
                       std::size_t n_sensors = 0);

  /// Fleet-store convenience: lazily deserialises node `id`'s record from a
  /// mapped ModelPack through `registry` (the node keeps `id` as its name).
  /// Throws std::runtime_error when the id is absent or its record is
  /// corrupt.
  std::size_t add_node(const ModelPack& pack, std::string_view id,
                       const MethodRegistry& registry,
                       std::size_t n_sensors = 0);

  /// Number of node slots ever created, INCLUDING removed tombstones —
  /// node indices are stable for the engine's lifetime, so this is the
  /// exclusive upper bound on valid indices (check alive() per slot).
  std::size_t n_nodes() const noexcept;
  const StreamOptions& options() const noexcept { return options_; }
  const std::string& node_name(std::size_t node) const;
  /// The underlying per-node stream (e.g. to inspect the live method).
  /// Not synchronised: only safe while no other thread feeds this node.
  const MethodStream& stream(std::size_t node) const;

  /// False once the slot has been remove_node()d (or for an out-of-range
  /// index).
  bool alive(std::size_t node) const noexcept;

  /// Removes a node from the live fleet and returns its undrained
  /// signature queue. The slot becomes a tombstone: indices of every other
  /// node are unchanged, ingest/drain/stream() on the removed index throw,
  /// and ingest_batch expects an EMPTY batch for the slot. The node's
  /// history buffer is released immediately; its cumulative counters stay
  /// in stats(). Safe to call concurrently with ingestion on other nodes.
  std::vector<std::vector<double>> remove_node(std::size_t node);

  /// Feeds a batch of columns to one node; emitted feature vectors are
  /// appended to that node's queue. Any view layout works (a Matrix
  /// converts implicitly); a column-major batch (a replayed CSMR batch, a
  /// decoded kSampleBatch) reaches the ring as one copy per column.
  void ingest(std::size_t node, const common::MatrixView& columns);

  /// Feeds one batch per node (batches.size() must equal n_nodes(); batches
  /// may have different column counts, rows must match each node's sensor
  /// count). Nodes are processed concurrently with common::parallel_for.
  /// Shapes are validated up front; a mid-flight failure in any node (e.g.
  /// a degenerate retrain) is re-thrown after the batch completes. Nodes
  /// added concurrently with this call are not part of the batch.
  void ingest_batch(std::span<const common::Matrix> batches);

  /// Number of feature vectors waiting in a node's queue.
  std::size_t pending(std::size_t node) const;

  /// Takes (moves out) all feature vectors queued for a node.
  std::vector<std::vector<double>> drain(std::size_t node);

  /// Signatures this node has shed under the StreamOptions::max_pending
  /// backpressure policy (cumulative; still reported after removal).
  std::uint64_t dropped(std::size_t node) const;

  /// Copy of this node's ingest-latency histogram (one sample per ingest
  /// call; see kLatencyBins/kLatencyMaxUs for the shape).
  stats::Histogram latency_histogram(std::size_t node) const;

  /// Aggregate counters summed over all nodes (including removed ones),
  /// plus accumulated wall time and the merged latency histograms.
  EngineStats stats() const;

  /// Per-node counter snapshot of every LIVE node, in node-index order
  /// (tombstones are skipped — their totals live on in stats()). Safe to
  /// call concurrently with ingestion; each row is internally consistent
  /// (taken under that node's mutex).
  std::vector<NodeStats> node_stats() const;

  /// Installs (or, with an empty function, removes) the ingest tap. Safe to
  /// call concurrently with ingestion: in-flight ingest calls finish with
  /// whichever tap they loaded, subsequent ones see the new tap.
  void set_tap(IngestTap tap);

 private:
  struct Node {
    std::string name;  ///< Immutable after construction.
    /// Engaged while the node is live; remove_node() releases it (and the
    /// ring history inside) under the node mutex. The Node shell itself is
    /// never destroyed while the engine lives, so references and the mutex
    /// stay valid for threads racing a removal.
    std::optional<MethodStream> stream;
    /// Drop-oldest under max_pending: deque so eviction at the front is
    /// O(1) per dropped signature.
    std::deque<std::vector<double>> queue;
    std::uint64_t dropped = 0;
    stats::Histogram latency_us = make_latency_histogram();
    mutable std::mutex mutex;  ///< Guards stream + queue + counters above.

    Node(std::string name_, MethodStream stream_)
        : name(std::move(name_)), stream(std::move(stream_)) {}
  };

  /// Counters of removed nodes, folded in at removal so stats() stays
  /// cumulative. Guarded by nodes_mutex_ (exclusive on write).
  struct Retired {
    std::uint64_t samples = 0;
    std::uint64_t signatures = 0;
    std::uint64_t retrains = 0;
    std::uint64_t retrain_aborts = 0;
    std::uint64_t drift_windows = 0;
    std::uint64_t drift_flags = 0;
    std::uint64_t drift_retrains = 0;
    std::uint64_t dropped = 0;
    stats::Histogram latency_us = make_latency_histogram();
    stats::Histogram retrain_latency_us = make_retrain_latency_histogram();
  };

  /// Looks a node up under the table lock; throws std::out_of_range for a
  /// bad index. Removed slots are returned too: callers that need a live
  /// stream take the node mutex and then call require_live, so the check
  /// and the use happen under one lock.
  Node& node_at(std::size_t node) const;
  /// Throws std::invalid_argument naming node `index` when it has been
  /// removed. Caller holds n.mutex.
  static void require_live(std::size_t index, const Node& n);
  void add_ingest_seconds(double seconds) noexcept;
  /// Appends signatures to a node's queue and applies the max_pending
  /// drop-oldest policy. Caller holds the node mutex.
  void enqueue(Node& n, std::vector<std::vector<double>>&& sigs);
  /// Runs one live node's ingest under its mutex and records its latency;
  /// `index` is the node's table index (the tap reports it).
  void ingest_locked(std::size_t index, Node& n,
                     const common::MatrixView& columns);

  StreamOptions options_;
  /// Bounded worker pool the nodes' async shadow fits run on (null under
  /// kSync). Declared before nodes_ so it is destroyed after them: a
  /// stream's destructor cancels its in-flight fit, then the pool joins.
  std::unique_ptr<RetrainExecutor> retrain_pool_;
  /// unique_ptr keeps node addresses (and their mutexes) stable while
  /// add_node grows the table under the exclusive lock.
  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::shared_mutex nodes_mutex_;  ///< Guards the nodes_ table.
  Retired retired_;
  std::atomic<double> ingest_seconds_{0.0};
  /// Ingest tap behind a shared_ptr so a concurrent set_tap never frees a
  /// function an in-flight ingest is still calling. Guarded by tap_mutex_
  /// (read: one lock per ingest call, trivial next to push_all).
  std::shared_ptr<const IngestTap> tap_;
  mutable std::mutex tap_mutex_;
};

}  // namespace csm::core
