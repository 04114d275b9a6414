// Generic signature-method interface (the paper's Sig() function,
// Section III-A): a signature method maps an n x wl window of the sensor
// matrix to a flat feature vector of fixed length l << n * wl. The CS method
// and the baselines (Tuncer, Bodik, Lan, PCA) all implement this interface,
// which is what the experiment harness, the streaming layer and the
// scalability benchmark drive.
//
// The compute surface consumes windows as common::MatrixView — a zero-copy
// view over either a row-major Matrix block (offline) or the one/two
// contiguous column segments of a RingMatrix window (streaming) — so the
// streaming hot path never assembles a temporary window matrix. A
// common::Matrix converts to a view implicitly, and thin Matrix overloads
// below keep offline call sites (pipeline, harness, csmcli, examples)
// compiling unchanged. Implementations should pull `using` declarations for
// the inherited overloads into scope (see the baselines) so concrete-typed
// callers keep both forms.
//
// Methods have a full lifecycle: a method is *constructed* (usually from a
// spec string via core::MethodRegistry) either already trained (stateless
// baselines) or as an untrained prototype (CS, PCA), *fitted* on historical
// data with fit(), asked to *compute* signatures window by window, and
// *saved* through the model codec (core/model_codec.hpp), whose text or
// binary form MethodRegistry turns back into an equivalent trained method. The default implementations below
// describe a stateless method, so ad-hoc SignatureMethod subclasses (e.g.
// benchmark one-offs) only have to override the three compute-side members.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"

namespace csm::core {

namespace codec {
class Sink;
class Source;
}

struct TrainContext;  // core/training.hpp: reusable workspace + cancel token.

/// Abstract signature extractor.
class SignatureMethod {
 public:
  virtual ~SignatureMethod() = default;

  /// Human-readable method name, e.g. "Tuncer" or "CS-20".
  virtual std::string name() const = 0;

  /// Length of the feature vector produced for an n-sensor window.
  virtual std::size_t signature_length(std::size_t n_sensors) const = 0;

  /// Computes the feature vector for one window view (rows = sensors,
  /// cols = wl samples). Throws std::logic_error if !trained().
  virtual std::vector<double> compute(const common::MatrixView& window)
      const = 0;

  /// Thin offline overload: wraps the matrix in a (row-major) view.
  std::vector<double> compute(const common::Matrix& window) const {
    return compute(common::MatrixView(window));
  }

  // --- trained-state lifecycle ---------------------------------------------

  /// Whether compute() may be called. Stateless methods are born trained;
  /// trainable methods (CS, PCA) start as untrained prototypes.
  virtual bool trained() const { return true; }

  /// Sensor-row count a trained method is bound to; 0 means the method
  /// accepts windows of any sensor count (stateless baselines, prototypes).
  virtual std::size_t n_sensors() const { return 0; }

  /// Returns a trained copy fitted on historical data (rows = sensors,
  /// cols = samples): CS runs Algorithm 1 + bounds, PCA extracts its basis,
  /// and the stateless baselines return a copy of themselves. Streaming
  /// retrains pass the ring history through this view without materialising
  /// it first.
  virtual std::unique_ptr<SignatureMethod> fit(
      const common::MatrixView& train) const {
    (void)train;
    throw std::logic_error(name() + ": fit() is not supported");
  }

  /// Thin offline overload of fit().
  std::unique_ptr<SignatureMethod> fit(const common::Matrix& train) const {
    return fit(common::MatrixView(train));
  }

  /// fit() with caller-owned training state: methods whose training is
  /// expensive (CS) reuse ctx.workspace across retrains and poll ctx.cancel,
  /// throwing common::OperationCancelled when a superseded retrain should
  /// abort. The default ignores the context (stateless baselines train in
  /// O(1); cancellation between fits is handled by the caller).
  virtual std::unique_ptr<SignatureMethod> fit(const common::MatrixView& train,
                                               TrainContext& ctx) const {
    (void)ctx;
    return fit(train);
  }

  // --- model codec ---------------------------------------------------------

  /// Registry key the model codec files this method under ("cs", "pca", ...).
  /// Empty (the default) marks the method as not serialisable — ad-hoc
  /// subclasses such as benchmark one-offs need not opt in.
  virtual std::string codec_key() const { return {}; }

  /// Writes the trained state as named, typed fields. This is the single
  /// write path behind both wire formats: codec::encode_text renders the
  /// fields as "csmethod v2" lines, codec::encode_binary as a CRC-framed
  /// little-endian record, and the matching registry reader consumes them in
  /// the same order from a codec::Source. Default: not supported.
  virtual void save(codec::Sink& sink) const;

  /// Streaming variant of compute(): may additionally use the raw (unsorted)
  /// sensor column that immediately precedes the window (null when the
  /// stream has no history yet). CS seeds its derivative channel with it,
  /// avoiding the zero-spike at window boundaries; the default ignores the
  /// seed. `seed_col`, when non-null, points at a span of rows() values.
  virtual std::vector<double> compute_streaming(
      const common::MatrixView& window,
      const std::span<const double>* seed_col) const {
    (void)seed_col;
    return compute(window);
  }

  /// Thin offline overload: `prev_column` holds the column preceding the
  /// window in its column 0 (the historical calling convention of the batch
  /// extractors — usually an n x 1 matrix), or is null.
  std::vector<double> compute_streaming(
      const common::Matrix& window, const common::Matrix* prev_column) const {
    if (!prev_column) {
      return compute_streaming(common::MatrixView(window), nullptr);
    }
    std::vector<double> col0;
    std::span<const double> seed;
    if (prev_column->cols() == 1) {
      // An n x 1 row-major matrix is already the contiguous column.
      seed = {prev_column->data(), prev_column->rows()};
    } else {
      col0 = prev_column->col(0);
      seed = col0;
    }
    return compute_streaming(common::MatrixView(window), &seed);
  }
};

}  // namespace csm::core
