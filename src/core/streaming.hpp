// Online streaming CS front end.
//
// In-band ODA (Section I, Fig. 1) consumes monitoring samples as they are
// produced: one column of sensor readings per time-stamp. The actual
// ingest/emit/retrain loop lives in core::MethodStream — one loop for every
// signature method, reading windows straight out of the ring buffer through
// common::MatrixView. CsStream is the CS-typed face of that loop kept for
// the classic deployment: it wraps a MethodStream driving a
// CsSignatureMethod, translates the flat feature vectors back into
// core::Signature values (real + derivative channel), and exposes the live
// CsModel across retrains — the "repeat training whenever required" mode of
// Section III-C2 for components whose correlations drift over time.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/cs_model.hpp"
#include "core/pipeline.hpp"
#include "core/signature.hpp"

namespace csm::core {

class MethodStream;

/// How MethodStream runs the periodic retrain that retrain_interval fires.
enum class RetrainPolicy {
  /// Fit inline on the ingest thread — the historical behaviour,
  /// byte-identical to streams that predate the policy seam. Ingest stalls
  /// for the full O(n^2 t) training time.
  kSync,
  /// Snapshot the history, fit a shadow model on a background worker, and
  /// swap it in atomically at the next emit boundary; emits keep serving the
  /// old model mid-fit. A retrain firing while one is still in flight
  /// supersedes it: the stale fit is cancelled and counted as an abort.
  kAsync,
  /// Like kAsync, but a retrain firing while one is in flight is skipped
  /// (counted as an abort) instead of cancelling and relaunching — steadier
  /// under retrain intervals shorter than the fit time.
  kSkipIfBusy,
  /// Adaptive: no periodic interval at all. Every emitted window is scored
  /// with the stats::drift statistic against a reference built from the
  /// first emitted window (and rebuilt after every retrain); once the score
  /// stays at or above StreamOptions::drift_threshold for drift_patience
  /// consecutive windows, the stream refits inline over the buffered
  /// history — synchronously, like kSync, so the post-drift model is
  /// deterministic. Requires drift_threshold > 0 and retrain_interval == 0.
  kOnDrift,
};

/// Streaming configuration.
struct StreamOptions {
  std::size_t window_length = 60;  ///< wl in samples.
  std::size_t window_step = 10;    ///< ws in samples.
  CsOptions cs;                    ///< Block count / real-only flag.
  /// Retrain the model every this many samples (0 = never retrain). The
  /// retrain uses the last `history_length` buffered columns.
  std::size_t retrain_interval = 0;
  /// Columns of raw history a stream that can retrain keeps for the fit.
  /// A stream that never retrains (retrain_interval == 0 under any policy
  /// but kOnDrift) keeps only window_length + 1 columns, the window and its
  /// seed, whatever this says; it must still exceed window_length.
  std::size_t history_length = 1024;
  /// Backpressure bound on each StreamEngine node's undrained signature
  /// queue (0 = unbounded). When a slow consumer lets a queue grow past
  /// this, the OLDEST signatures are dropped first and counted per node
  /// (EngineStats::dropped) — a monitoring fleet wants the freshest state,
  /// and a loud counter, not an OOM. Offline replays that require every
  /// signature must leave this at 0.
  std::size_t max_pending = 0;
  /// What a firing retrain does to the ingest thread (see RetrainPolicy).
  RetrainPolicy retrain_policy = RetrainPolicy::kSync;
  /// Worker count of the retrain pool the async policies fit on. Sizes the
  /// StreamEngine-owned pool shared by all its nodes (csmd
  /// --retrain-threads); a standalone MethodStream without an engine spins
  /// up its own pool of this size on first use. Ignored under kSync.
  std::size_t retrain_threads = 1;
  /// kOnDrift only: drift score at or above which an emitted window counts
  /// as drifted (see stats::drift_score for the scale; a stationary stream
  /// scores around 1/sqrt(window_length)). Must be > 0 under kOnDrift and
  /// 0 under every other policy.
  double drift_threshold = 0.0;
  /// kOnDrift only: consecutive drifted windows required before the stream
  /// actually retrains — patience > 1 trades detection latency for immunity
  /// to single-window flukes. Must be >= 1.
  std::size_t drift_patience = 1;
  /// kOnDrift only: sensor-pair sample size of the drift reference
  /// (stats::make_drift_reference cap). Must be >= 1.
  std::size_t drift_pairs = 64;

  /// Rejects contradictory configurations with std::invalid_argument naming
  /// the offending field: zero window_length, zero window_step, and a
  /// history_length too small to ever hold a window plus its derivative
  /// seed column (which would also make retraining silently unreachable).
  void validate() const;
};

/// Push-based CS signature stream over one monitored component: a thin
/// typed wrapper over the single MethodStream loop.
class CsStream {
 public:
  /// Starts with a pre-trained model (the usual in-band deployment).
  CsStream(CsModel model, StreamOptions options);
  ~CsStream();
  CsStream(CsStream&&) noexcept;
  CsStream& operator=(CsStream&&) noexcept;

  std::size_t n_sensors() const noexcept;
  /// The live model — follows retrains. The reference stays valid for the
  /// stream's lifetime (a retrain updates it in place, as it always has);
  /// iterators into its vectors are invalidated by a retrain.
  const CsModel& model() const;
  const StreamOptions& options() const noexcept { return options_; }
  std::size_t samples_seen() const noexcept;
  std::size_t signatures_emitted() const noexcept;
  std::size_t retrain_count() const noexcept;

  /// Feeds one column of sensor readings (length must equal n_sensors()).
  /// Returns a signature when a window completes (every ws samples once wl
  /// samples have been buffered), otherwise std::nullopt.
  std::optional<Signature> push(std::span<const double> column);

  /// Feeds a whole matrix column by column; returns all emitted signatures.
  /// Columns are gathered straight into the ring buffer (no per-column
  /// temporary), so this is the preferred bulk-ingestion entry point.
  std::vector<Signature> push_all(const common::Matrix& columns);

 private:
  Signature unflatten(std::vector<double> features) const;
  /// Mirrors the live method's model into model_ after a retrain (called at
  /// the end of every ingest), keeping the model() reference contract.
  void sync_model();

  StreamOptions options_;
  std::size_t blocks_ = 0;  ///< Resolved block count l per signature.
  // unique_ptr keeps MethodStream an incomplete type here (streaming.hpp is
  // included by method_stream.hpp for StreamOptions).
  std::unique_ptr<MethodStream> stream_;
  // Stable home for model(): MethodStream swaps its method object on
  // retrain, so the model is mirrored here to keep handed-out references
  // valid and current.
  CsModel model_;
  std::size_t model_synced_at_ = 0;  ///< retrain_count at last sync.
};

}  // namespace csm::core
