// CS smoothing stage (Section III-C3, Eqs. 2-3).
//
// The sorted, normalised window is collapsed into l complex blocks. Block i
// (1-based in the paper) aggregates sensor rows [b_i, e_i] with
//   b_i = 1 + floor((i-1) * n / l),   e_i = ceil(i * n / l);
// when n % l != 0 neighbouring blocks share one boundary sensor ("partially
// overlapping ranges") and the extended blocks spread uniformly over the
// signature thanks to the modulo's periodicity. The real channel averages the
// window values of the block's sensors, the imaginary channel averages their
// backward first-order derivatives. Complexity O(wl * n).
//
// smooth_window computes it for one window: it normalises the whole window
// and sums one block after the other. A stream, which emits overlapping
// windows, uses WindowSmoother instead. It keeps the newest wl + 1 columns
// of the stream normalised, so each sample is normalised once rather than
// wl / ws times: O(n) divisions per sample plus O(n * wl) additions per
// emitted window. It sums the blocks eight at a time, one block per SIMD
// lane, and gives smooth_window's bytes. Its kernel is one source, a
// template over the vector width compiled per target (AVX-512F, AVX2, and
// the default target: SSE2 on x86-64, NEON on arm64); the path is picked at
// run time (common/cpu.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "common/matrix.hpp"
#include "common/matrix_view.hpp"
#include "common/ring_matrix.hpp"
#include "core/signature.hpp"
#include "core/signature_method.hpp"
#include "stats/normalize.hpp"

namespace csm::core {

/// Half-open row range [begin, end) of block `i` (0-based) out of `l` blocks
/// over `n` sensors — the 0-based translation of Eq. 2.
struct BlockRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
  bool operator==(const BlockRange&) const = default;
};

/// Throws std::invalid_argument if l == 0, n == 0 or i >= l.
BlockRange block_range(std::size_t i, std::size_t l, std::size_t n);

/// Smooths a sorted window and its derivative matrix into an l-block
/// signature. `sorted` and `derivs` must have identical shapes.
Signature smooth(const common::Matrix& sorted, const common::Matrix& derivs,
                 std::size_t l);

/// Convenience overload computing the derivative matrix internally with
/// backward differences (first column derivative = 0).
Signature smooth(const common::Matrix& sorted, std::size_t l);

/// Fused zero-copy CS kernel: equivalent to
///   smooth(sort(window), backward_diff_rows[_seeded](...), l)
/// where sort() min-max-normalises every row with `bounds` and permutes rows
/// by `permutation`, but reads the window view in place — no sorted matrix,
/// no derivative matrix, no window copy. `seed_col`, when non-null, is the
/// raw (unnormalised) sensor column preceding the window and seeds the
/// derivative channel exactly like backward_diff_rows_seeded; when null the
/// first column's derivative is 0. Accumulation order matches the
/// materialising path term for term, so results are bit-identical to it.
/// Throws std::invalid_argument on an empty window, l == 0, or mismatched
/// permutation/bounds/seed lengths.
Signature smooth_window(const common::MatrixView& window,
                        std::span<const std::size_t> permutation,
                        std::span<const stats::MinMaxBounds> bounds,
                        const std::span<const double>* seed_col,
                        std::size_t l);

/// A trained CS model's blocks laid out for WindowSmoother. Blocks are taken
/// eight at a time ("lane groups"). Row j of a group holds, in lane k, sorted
/// row begin + j of the group's k-th block, or a pad where that block is
/// shorter than the group's longest or, in the last group, past block l - 1,
/// so every group is eight lanes wide. Each entry records the original
/// sensor row it reads and that row's bounds. A pad reads row 0 through the
/// degenerate bounds {0, 0}, so it normalises to +0.0; it follows the
/// block's own rows in its lane, and adding +0.0 leaves every sum as it was.
class LaneLayout {
 public:
  static constexpr std::size_t kLanes = 8;

  struct Group {
    std::size_t first_block = 0;
    std::size_t rows = 0;         ///< Longest block of the group.
    std::size_t first_entry = 0;  ///< Entries are row-major: rows x kLanes.
  };

  /// Throws std::invalid_argument on an empty permutation, a bounds length
  /// that differs from it, a row index >= its length, or l == 0.
  LaneLayout(std::span<const std::size_t> permutation,
             std::span<const stats::MinMaxBounds> bounds, std::size_t l);

  std::size_t n_sensors() const noexcept { return n_; }
  std::size_t blocks() const noexcept { return block_rows_.size(); }
  /// Lanes of all groups: blocks() rounded up to kLanes.
  std::size_t lanes() const noexcept { return groups_.size() * kLanes; }
  std::size_t entries() const noexcept { return row_.size(); }
  const std::vector<Group>& groups() const noexcept { return groups_; }
  /// Original sensor row of each entry (0 for a pad).
  const std::vector<std::int64_t>& row() const noexcept { return row_; }
  /// Bounds of each entry's row ({0, 0} for a pad), split into lo, hi and
  /// hi - lo so the vector paths load them directly.
  const std::vector<double>& lo() const noexcept { return lo_; }
  const std::vector<double>& hi() const noexcept { return hi_; }
  const std::vector<double>& span() const noexcept { return span_; }
  /// Sensor rows in block i.
  std::size_t block_rows(std::size_t i) const { return block_rows_[i]; }

 private:
  std::size_t n_ = 0;
  std::vector<Group> groups_;
  std::vector<std::int64_t> row_;
  std::vector<double> lo_, hi_, span_;
  std::vector<std::size_t> block_rows_;
};

/// The CS emit state of one stream. It caches the newest wl + 1 columns of
/// the stream's ring normalised and in layout order, and tells columns apart
/// by RingMatrix::pushed(): an emit normalises only the columns pushed since
/// the previous one, then sums the cache one block per lane. Feed it one
/// ring for its whole life. A ring cleared since the last emit is noticed
/// while it holds fewer pushes than it did then; make a new smoother for a
/// ring that is cleared and refilled past that.
class WindowSmoother final : public StreamEmitter {
 public:
  /// Lays out the model (see LaneLayout, which throws on a bad model) and
  /// sizes the cache. Throws std::invalid_argument if window_length == 0.
  WindowSmoother(std::span<const std::size_t> permutation,
                 std::span<const stats::MinMaxBounds> bounds, std::size_t l,
                 std::size_t window_length, bool real_only);

  /// The flattened signature of the newest wl columns of `ring` (the l real
  /// values, then the l imaginary ones unless real_only), byte-identical to
  ///   smooth_window(ring.latest_view(wl), permutation, bounds, seed, l)
  ///       .flatten(real_only)
  /// with seed = ring.newest(wl) when ring.size() > wl, null otherwise.
  /// Throws std::invalid_argument if ring.rows() differs from the model's
  /// sensor count, ring.size() < wl, or ring.capacity() < wl + 1 (the
  /// window and its seed must both be retained).
  std::vector<double> emit(const common::RingMatrix& ring) override;

  /// emit() on the path for `isa` instead of the dispatched one, so tests
  /// and benches can run every path the host has. Throws
  /// std::invalid_argument unless `isa` is kScalar, kAvx2 or kAvx512f and
  /// common::cpu_has(isa).
  std::vector<double> emit_with(common::Isa isa,
                                const common::RingMatrix& ring);

 private:
  std::vector<double> emit_on(common::Isa isa, const common::RingMatrix& ring);

  LaneLayout layout_;
  std::size_t wl_;
  bool real_only_;
  /// Per group: rows x (wl + 1) slots x kLanes; the window and its seed.
  std::vector<double> cache_;
  std::vector<double> acc_;  ///< Real sums of the layout's lanes, then imag.
  std::size_t filled_ = 0;   ///< Ring columns [0, filled_) are cached.
};

}  // namespace csm::core
