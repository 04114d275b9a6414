// Pearson correlation machinery for the CS training stage (Eq. 1).
//
// The paper shifts each Pearson coefficient by +1 so that coefficients live in
// [0, 2] and the greedy ordering of Algorithm 1 can multiply them without sign
// juggling. The "global correlation coefficient" rho_Si of a row is the mean
// shifted coefficient against every other row and measures how descriptive a
// sensor is of overall system state.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/cpu.hpp"
#include "common/matrix.hpp"
#include "common/matrix_view.hpp"

namespace csm::stats {

/// Plain Pearson correlation coefficient in [-1, 1]. Rows with zero variance
/// correlate as 0 with everything (the sensor carries no linear information).
double pearson(std::span<const double> x, std::span<const double> y);

/// Reusable scratch for shifted_correlation_matrix: the mean-subtracted rows
/// packed as a panel, plus per-row means and standard deviations. A stream
/// that retrains every N samples keeps one of these alive so the O(n t)
/// staging buffers are allocated once, not per retrain. reserve() only grows,
/// never shrinks, so steady-state retrains are allocation-free.
///
/// The panel is laid out [tile][k][width]: tile b holds rows b*kTile ..
/// b*kTile + width-1, and at each time step k their values sit side by side,
/// so one vector load reads one time step of neighbouring rows. Every tile
/// but the last is kTile wide; the last is its live rows rounded up to
/// kBlock, and its rows past n are zero. This is the only copy of the
/// centred data, at most kBlock-1 rows larger than n*t.
struct CorrelationWorkspace {
  static constexpr std::size_t kTile = 32;  ///< Rows per panel tile.
  static constexpr std::size_t kBlock = 8;  ///< Tile widths round up to this.

  std::vector<double> panel;  ///< ceil(n/kBlock)*kBlock*t centred values.
  std::vector<double> means;  ///< per-row mean.
  std::vector<double> sds;    ///< per-row population stddev.

  void reserve(std::size_t n, std::size_t t) {
    const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock;
    if (panel.size() < padded * t) panel.resize(padded * t);
    if (means.size() < n) means.resize(n);
    if (sds.size() < n) sds.resize(n);
  }
};

/// Full pairwise *shifted* correlation matrix of the rows of `s`:
/// out(i,j) = pearson(row i, row j) + 1, in [0, 2]; diagonal = 2.
///
/// Complexity O(n^2 t); cache-tiled over kTile x kTile blocks of (i, j) row
/// pairs, with the mean-subtracted rows hoisted into the `ws` panel once.
/// The pair loop runs SIMD lanes across neighbouring pairs. It is one
/// source, a template over the vector width (common::Vec) compiled per
/// target: AVX-512F or AVX2 when the CPU has them, else the default target
/// (SSE2 on x86-64, NEON on arm64); the choice is made once per process
/// (common::IsaPaths). Each coefficient is still one accumulator summed in
/// time-ascending order with a separate multiply and add — exactly the op
/// sequence of shifted_correlation_matrix_reference — so the result is
/// bit-identical to the scalar path on every ISA and layout. Accepts any
/// window view (a common::Matrix converts implicitly), so streaming retrains
/// can feed ring-buffer history without materialising it.
///
/// Fits of at most 3 sensors run the reference kernel instead: the same
/// bits, without padding the rows out to a whole 8-row block.
///
/// `cancel`, when given, is polled per tile: a fired token makes the pass
/// throw common::OperationCancelled (used by superseded async retrains).
common::Matrix shifted_correlation_matrix(
    const common::MatrixView& s, CorrelationWorkspace& ws,
    const common::CancelToken* cancel = nullptr);

/// shifted_correlation_matrix with the pair kernel for `isa` instead of the
/// dispatched one, so tests and benches can run every path the host has.
/// Throws std::invalid_argument unless `isa` is kScalar, kAvx2 or kAvx512f
/// and common::cpu_has(isa).
common::Matrix shifted_correlation_matrix_with(
    common::Isa isa, const common::MatrixView& s, CorrelationWorkspace& ws,
    const common::CancelToken* cancel = nullptr);

/// Convenience overload with a throwaway workspace.
common::Matrix shifted_correlation_matrix(const common::MatrixView& s);

/// The pre-tiling scalar kernel, kept verbatim as the bit-exactness oracle
/// for the tiled path (property tests pin tiled == reference across
/// ring-wrap-straddling views). Not for production use: rereads every row
/// ~n times with no cache blocking.
common::Matrix shifted_correlation_matrix_reference(const common::MatrixView& s);

/// Global correlation coefficients per row (Eq. 1, right):
/// rho_Si = (1 / (n-1)) * sum_{j != i} shifted(i, j).
/// For a 1-row matrix returns {0}.
std::vector<double> global_coefficients(const common::Matrix& shifted);

}  // namespace csm::stats
