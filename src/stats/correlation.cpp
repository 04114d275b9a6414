#include "stats/correlation.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "stats/descriptive.hpp"

namespace csm::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("pearson: length mismatch");
  }
  const double sx = stddev(x);
  const double sy = stddev(y);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return covariance(x, y) / (sx * sy);
}

namespace {

constexpr std::size_t kTile = CorrelationWorkspace::kTile;
constexpr std::size_t kBlock = CorrelationWorkspace::kBlock;

// Tile b of the panel: its first value, its width (the stride between time
// steps: its live rows rounded up to kBlock) and its live rows.
struct Tile {
  const double* data;
  std::size_t width;
  std::size_t rows;
};

Tile tile_of(const double* panel, std::size_t n, std::size_t t,
             std::size_t b) {
  const std::size_t rows = std::min(kTile, n - b * kTile);
  return {panel + b * kTile * t, (rows + kBlock - 1) / kBlock * kBlock, rows};
}

// Time steps per accumulation pass: a chunk of two 32-row tiles is 2 x 64
// KiB, which stays in L2 while every row group of the i tile sweeps it.
// Between chunks the accumulators go to memory and come back unchanged, so
// each is still one sequential sum.
constexpr std::size_t kChunk = 256;

// A pair kernel fills the block of dot products of one tile pair:
// acc[r * kTile + l] += sum over k of ti.data[k * ti.width + r] *
// tj.data[k * tj.width + l] for every live row r of ti and live lane l of
// tj, each lane summed in ascending k with a multiply then an add (no FMA;
// the csm targets build with -ffp-contract=off so the compiler cannot fuse
// them either). A kernel may also fill padding rows and lanes up to its
// register block. On a diagonal tile (ti.data == tj.data) it may skip lanes
// l <= r, which are never read.
using PairKernel = void (*)(Tile ti, Tile tj, std::size_t t, double* acc);

// kRows i rows (x, stride wi) against kVecs vectors of kW j lanes (y, stride
// wj) over time steps [k0, k1), the kRows x kVecs accumulators in registers.
template <std::size_t kW, std::size_t kRows, std::size_t kVecs>
[[gnu::always_inline]] inline void rows_block(const double* x, std::size_t wi,
                                              const double* y, std::size_t wj,
                                              std::size_t k0, std::size_t k1,
                                              double* acc) {
  using Vw = common::Vec<kW>;
  typename Vw::V a[kRows][kVecs];
  CSM_UNROLL
  for (std::size_t q = 0; q < kRows; ++q) {
    CSM_UNROLL
    for (std::size_t v = 0; v < kVecs; ++v) {
      a[q][v] = Vw::at(acc + q * kTile + v * kW);
    }
  }
  for (std::size_t k = k0; k < k1; ++k) {
    typename Vw::V yv[kVecs];
    CSM_UNROLL
    for (std::size_t v = 0; v < kVecs; ++v) yv[v] = Vw::at(y + k * wj + v * kW);
    CSM_UNROLL
    for (std::size_t q = 0; q < kRows; ++q) {
      const double xq = x[k * wi + q];
      CSM_UNROLL
      for (std::size_t v = 0; v < kVecs; ++v) a[q][v] += xq * yv[v];
    }
  }
  CSM_UNROLL
  for (std::size_t q = 0; q < kRows; ++q) {
    CSM_UNROLL
    for (std::size_t v = 0; v < kVecs; ++v) {
      Vw::at(acc + q * kTile + v * kW) = a[q][v];
    }
  }
}

// rows_block over `vecs` <= kVecs vectors; a block wider than kBlock lanes
// narrows to the lanes left in the tile.
template <std::size_t kW, std::size_t kRows, std::size_t kVecs>
[[gnu::always_inline]] inline void rows_block_upto(
    std::size_t vecs, const double* x, std::size_t wi, const double* y,
    std::size_t wj, std::size_t k0, std::size_t k1, double* acc) {
  if constexpr (kVecs * kW > kBlock) {
    if (vecs < kVecs) {
      rows_block_upto<kW, kRows, kVecs - 1>(vecs, x, wi, y, wj, k0, k1, acc);
      return;
    }
  }
  rows_block<kW, kRows, kVecs>(x, wi, y, wj, k0, k1, acc);
}

// The pair kernel, once for every vector width: row groups of kRows over
// the live rows of ti (rounded up inside the tile's zero padding), each
// against the live lanes of tj up to kVecs * kW at a time. Tile widths are
// multiples of kBlock, so a register block never reads past one.
template <std::size_t kW, std::size_t kRows, std::size_t kVecs>
[[gnu::always_inline]] inline void pair_kernel(Tile ti, Tile tj,
                                               std::size_t t, double* acc) {
  static_assert(sizeof(typename common::Vec<kW>::V) == kW * sizeof(double));
  static_assert(kBlock % kW == 0 && kBlock % kRows == 0);
  const bool diagonal = ti.data == tj.data;
  for (std::size_t k0 = 0; k0 < t; k0 += kChunk) {
    const std::size_t k1 = std::min(t, k0 + kChunk);
    for (std::size_t r = 0; r < ti.rows; r += kRows) {
      for (std::size_t l = diagonal ? r / kBlock * kBlock : 0; l < tj.width;
           l += kW * kVecs) {
        rows_block_upto<kW, kRows, kVecs>(
            (tj.width - l) / kW, ti.data + r, ti.width, tj.data + l,
            tj.width, k0, k1, acc + r * kTile + l);
      }
    }
  }
}

// One path per target: 4 x 4 zmm accumulators cover a whole 32-lane tile;
// 4 x 2 ymm leave room in 16 registers for the loads and the broadcast;
// the default target (SSE2, NEON) holds 2 x 4 two-lane accumulators.
#if defined(__x86_64__)
__attribute__((target("avx512f"))) void pair_kernel_avx512(
    Tile ti, Tile tj, std::size_t t, double* acc) {
  pair_kernel<8, 4, 4>(ti, tj, t, acc);
}

__attribute__((target("avx2"))) void pair_kernel_avx2(Tile ti, Tile tj,
                                                      std::size_t t,
                                                      double* acc) {
  pair_kernel<4, 4, 2>(ti, tj, t, acc);
}
#endif

void pair_kernel_default(Tile ti, Tile tj, std::size_t t, double* acc) {
  pair_kernel<2, 2, 4>(ti, tj, t, acc);
}

using PairPaths = common::IsaPaths<common::Isa::kAvx512f, common::Isa::kAvx2>;

PairKernel pair_kernel_for([[maybe_unused]] common::Isa isa) {
#if defined(__x86_64__)
  if (isa == common::Isa::kAvx512f) return pair_kernel_avx512;
  if (isa == common::Isa::kAvx2) return pair_kernel_avx2;
#endif
  return pair_kernel_default;
}

// Fills tile b of the panel with rows b*kTile.. of `s` minus their means,
// and their means and standard deviations. Lanes run across the
// tile's rows, but each lane performs exactly the op sequence of stats::mean
// and stats::stddev on its row (ascending sums, then one divide; the
// deviations are the same row - mean the reference kernel multiplies), so
// every value is bit-identical to theirs. Padding lanes past n hold zeros.
void pack_tile(const common::MatrixView& s, std::size_t b, double* panel,
               double* means, double* sds) {
  const std::size_t t = s.cols();
  const std::size_t i0 = b * kTile;
  const Tile shape = tile_of(panel, s.rows(), t, b);
  const std::size_t w = shape.width;
  const std::size_t live = shape.rows;
  double* tile = panel + i0 * t;
  for (std::size_t k = 0; k < t; ++k) {
    double* dst = tile + k * w;
    for (std::size_t l = 0; l < live; ++l) dst[l] = s(i0 + l, k);
    for (std::size_t l = live; l < w; ++l) dst[l] = 0.0;
  }
  // One group of kBlock lanes at a time, so the sums stay in registers.
  // Padding lanes are zero and stay zero.
  for (std::size_t g = 0; g < live; g += kBlock) {
    double* group = tile + g;
    double m[kBlock] = {};
    for (std::size_t k = 0; k < t; ++k) {
      for (std::size_t q = 0; q < kBlock; ++q) m[q] += group[k * w + q];
    }
    if (t > 0) {
      for (double& v : m) v /= static_cast<double>(t);
    }
    double ss[kBlock] = {};
    for (std::size_t k = 0; k < t; ++k) {
      for (std::size_t q = 0; q < kBlock; ++q) {
        const double d = group[k * w + q] - m[q];
        group[k * w + q] = d;
        ss[q] += d * d;
      }
    }
    for (std::size_t q = 0; q < kBlock && g + q < live; ++q) {
      means[i0 + g + q] = m[q];
      sds[i0 + g + q] =
          t < 2 ? 0.0 : std::sqrt(ss[q] / static_cast<double>(t));
    }
  }
}

common::Matrix correlate(const common::MatrixView& s, CorrelationWorkspace& ws,
                         const common::CancelToken* cancel,
                         PairKernel kernel) {
  const std::size_t n = s.rows();
  const std::size_t t = s.cols();
  common::Matrix out(n, n);
  ws.reserve(n, t);

  // Hoist the mean-subtracted rows once (O(n t)) into the panel, one tile
  // per parallel body: the O(n^2 t) pairwise pass below then reads
  // contiguous time steps of kTile rows regardless of the view layout.
  const std::size_t n_tiles = (n + kTile - 1) / kTile;
  common::parallel_for(n_tiles, [&](std::size_t b) {
    pack_tile(s, b, ws.panel.data(), ws.means.data(), ws.sds.data());
  });
  if (cancel != nullptr) cancel->throw_if_cancelled();

  for (std::size_t i = 0; i < n; ++i) {
    out(i, i) = 2.0;  // pearson(x, x) = 1, shifted by +1.
  }
  if (n < 2) return out;

  const bool degenerate = t < 2;
  // rho for a finished pair, with the identical guard/clamp sequence the
  // reference applies. cov is only *used* under the guard, so computing it
  // unconditionally changes nothing.
  const auto finish_pair = [&](std::size_t i, std::size_t j, double cov) {
    double rho = 0.0;
    if (!degenerate && ws.sds[i] != 0.0 && ws.sds[j] != 0.0) {
      cov /= static_cast<double>(t);
      rho = cov / (ws.sds[i] * ws.sds[j]);
      // Clamp numerical overshoot so callers can rely on [-1, 1].
      rho = std::min(1.0, std::max(-1.0, rho));
    }
    out(i, j) = rho + 1.0;
    out(j, i) = rho + 1.0;
  };

  // Upper-triangular tile pairs, flattened so dynamic scheduling can balance
  // the skewed diagonal tiles. Each tile pair owns a disjoint block of `out`
  // (plus its mirrored block), so the parallel bodies never race. A diagonal
  // tile keeps only the pairs above the diagonal.
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  tiles.reserve(n_tiles * (n_tiles + 1) / 2);
  for (std::size_t bi = 0; bi < n_tiles; ++bi) {
    for (std::size_t bj = bi; bj < n_tiles; ++bj) tiles.emplace_back(bi, bj);
  }

  // Parallel bodies must not throw: a fired token makes remaining tiles
  // no-ops, and the checkpoint after the loop unwinds.
  const std::atomic<bool>* cancel_flag =
      cancel != nullptr ? cancel->flag() : nullptr;
  const double* panel = ws.panel.data();

  common::parallel_for_dynamic(tiles.size(), [&](std::size_t p) {
    if (cancel_flag != nullptr &&
        cancel_flag->load(std::memory_order_relaxed)) {
      return;
    }
    const auto [bi, bj] = tiles[p];
    double acc[kTile * kTile] = {};
    kernel(tile_of(panel, n, t, bi), tile_of(panel, n, t, bj), t, acc);
    const std::size_t i0 = bi * kTile;
    const std::size_t j0 = bj * kTile;
    const std::size_t i1 = std::min(n, i0 + kTile);
    const std::size_t j1 = std::min(n, j0 + kTile);
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) {
        finish_pair(i, j, acc[(i - i0) * kTile + (j - j0)]);
      }
    }
  });
  if (cancel != nullptr) cancel->throw_if_cancelled();
  return out;
}

}  // namespace

common::Matrix shifted_correlation_matrix(const common::MatrixView& s,
                                          CorrelationWorkspace& ws,
                                          const common::CancelToken* cancel) {
  // At n <= 3 the padding to an 8-row block costs more than tiling saves
  // (about 2.5x at n = 2); the reference kernel gives the same bits.
  if (s.rows() <= 3) {
    if (cancel != nullptr) cancel->throw_if_cancelled();
    return shifted_correlation_matrix_reference(s);
  }
  return correlate(s, ws, cancel, pair_kernel_for(PairPaths::widest()));
}

common::Matrix shifted_correlation_matrix_with(
    common::Isa isa, const common::MatrixView& s, CorrelationWorkspace& ws,
    const common::CancelToken* cancel) {
  return correlate(
      s, ws, cancel,
      pair_kernel_for(PairPaths::require(isa, "shifted_correlation_matrix")));
}

common::Matrix shifted_correlation_matrix(const common::MatrixView& s) {
  CorrelationWorkspace ws;
  return shifted_correlation_matrix(s, ws, nullptr);
}

common::Matrix shifted_correlation_matrix_reference(
    const common::MatrixView& s) {
  const std::size_t n = s.rows();
  const std::size_t t = s.cols();
  common::Matrix out(n, n);

  // The pre-tiling kernel, unchanged: the oracle the property tests hold the
  // tiled path bit-identical to. Rows of a ring-segment view are gathered
  // once (per-row order preserved), exactly as before.
  const bool direct = s.contiguous_rows();
  const common::Matrix gathered = direct ? common::Matrix() : common::Matrix(s);
  const auto row_of = [&](std::size_t i) {
    return direct ? s.row(i) : gathered.row(i);
  };

  std::vector<double> means(n), sds(n);
  for (std::size_t i = 0; i < n; ++i) {
    means[i] = mean(row_of(i));
    sds[i] = stddev(row_of(i));
  }

  common::parallel_for_dynamic(n, [&](std::size_t i) {
    out(i, i) = 2.0;  // pearson(x, x) = 1, shifted by +1.
    const auto xi = row_of(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      double rho = 0.0;
      if (sds[i] != 0.0 && sds[j] != 0.0 && t >= 2) {
        const auto xj = row_of(j);
        double cov = 0.0;
        for (std::size_t k = 0; k < t; ++k) {
          cov += (xi[k] - means[i]) * (xj[k] - means[j]);
        }
        cov /= static_cast<double>(t);
        rho = cov / (sds[i] * sds[j]);
        // Clamp numerical overshoot so callers can rely on [-1, 1].
        rho = std::min(1.0, std::max(-1.0, rho));
      }
      out(i, j) = rho + 1.0;
      out(j, i) = rho + 1.0;
    }
  });
  return out;
}

std::vector<double> global_coefficients(const common::Matrix& shifted) {
  const std::size_t n = shifted.rows();
  if (shifted.cols() != n) {
    throw std::invalid_argument(
        "global_coefficients: matrix must be square (pairwise coefficients)");
  }
  std::vector<double> out(n, 0.0);
  if (n < 2) return out;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) acc += shifted(i, j);
    }
    out[i] = acc / static_cast<double>(n - 1);
  }
  return out;
}

}  // namespace csm::stats
