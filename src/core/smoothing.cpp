#include "core/smoothing.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "stats/finite_diff.hpp"

namespace csm::core {

BlockRange block_range(std::size_t i, std::size_t l, std::size_t n) {
  if (l == 0 || n == 0) {
    throw std::invalid_argument("block_range: zero blocks or sensors");
  }
  if (i >= l) throw std::invalid_argument("block_range: block index >= l");
  // Eq. 2, 0-based: begin = floor(i*n/l); end (exclusive) = ceil((i+1)*n/l).
  const std::size_t begin = i * n / l;
  const std::size_t end = ((i + 1) * n + l - 1) / l;
  return BlockRange{begin, end};
}

namespace {

// Average of all elements in rows [range.begin, range.end) of m.
double block_mean(const common::Matrix& m, const BlockRange& range) {
  double acc = 0.0;
  for (std::size_t r = range.begin; r < range.end; ++r) {
    for (double v : m.row(r)) acc += v;
  }
  const double count =
      static_cast<double>(range.size()) * static_cast<double>(m.cols());
  return count == 0.0 ? 0.0 : acc / count;
}

}  // namespace

Signature smooth(const common::Matrix& sorted, const common::Matrix& derivs,
                 std::size_t l) {
  if (sorted.empty()) throw std::invalid_argument("smooth: empty window");
  if (derivs.rows() != sorted.rows() || derivs.cols() != sorted.cols()) {
    throw std::invalid_argument("smooth: derivative shape mismatch");
  }
  if (l == 0) throw std::invalid_argument("smooth: zero blocks");
  Signature sig(l);
  for (std::size_t i = 0; i < l; ++i) {
    const BlockRange range = block_range(i, l, sorted.rows());
    sig.real()[i] = block_mean(sorted, range);
    sig.imag()[i] = block_mean(derivs, range);
  }
  return sig;
}

Signature smooth(const common::Matrix& sorted, std::size_t l) {
  return smooth(sorted, stats::backward_diff_rows(sorted), l);
}

namespace {

// Normalises row `r` of the view into `norm` (norm.size() == view cols):
// a contiguous pass for row-major backing, a stride-rows pointer walk per
// column segment otherwise. Writing the normalised series into a small
// L1-resident buffer first keeps the divide/clamp loop vectorisable and the
// subsequent accumulation loops free of per-element branches — element
// values are bit-identical to materialising normalize_rows().
inline void normalize_row_into(const common::MatrixView& w, std::size_t r,
                               const stats::MinMaxBounds& b,
                               std::span<double> norm) {
  if (w.contiguous_rows()) {
    const std::span<const double> row = w.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) norm[c] = b.normalize(row[c]);
    return;
  }
  const std::size_t rows = w.rows();
  for (std::size_t k = 0; k < w.n_col_segments(); ++k) {
    const common::MatrixView::ColSegment seg = w.col_segment(k);
    const double* p = seg.data + r;
    double* dst = norm.data() + seg.first_col;
    for (std::size_t c = 0; c < seg.n_cols; ++c, p += rows) {
      dst[c] = b.normalize(*p);
    }
  }
}

}  // namespace

Signature smooth_window(const common::MatrixView& window,
                        std::span<const std::size_t> permutation,
                        std::span<const stats::MinMaxBounds> bounds,
                        const std::span<const double>* seed_col,
                        std::size_t l) {
  if (window.empty()) {
    throw std::invalid_argument("smooth_window: empty window");
  }
  const std::size_t n = window.rows();
  if (permutation.size() != n || bounds.size() != n) {
    throw std::invalid_argument(
        "smooth_window: permutation/bounds length mismatch");
  }
  if (seed_col && seed_col->size() != n) {
    throw std::invalid_argument("smooth_window: wrong seed column length");
  }
  if (l == 0) throw std::invalid_argument("smooth_window: zero blocks");

  const std::size_t wl = window.cols();
  // One normalisation pass over the view (sorted row rr is original row
  // permutation[rr] mapped through its stored bounds), written straight
  // into sorted row order — this single n x wl scratch replaces the window
  // copy, the sorted matrix, the sorted seed and the derivative matrix of
  // the materialising path. Blocks may share boundary rows, so normalising
  // up front also avoids re-normalising them per block.
  std::vector<double> norm(n * wl);
  std::vector<double> seed_norm;
  if (seed_col) seed_norm.resize(n);
  for (std::size_t rr = 0; rr < n; ++rr) {
    const std::size_t orig = permutation[rr];
    const stats::MinMaxBounds& b = bounds[orig];
    normalize_row_into(window, orig, b, {norm.data() + rr * wl, wl});
    if (seed_col) seed_norm[rr] = b.normalize((*seed_col)[orig]);
  }

  Signature sig(l);
  for (std::size_t i = 0; i < l; ++i) {
    const BlockRange range = block_range(i, l, n);
    double acc_re = 0.0;
    double acc_im = 0.0;
    // The derivative terms are backward differences of the normalised
    // series, seeded with the normalised seed value when one exists
    // (matching backward_diff_rows_seeded) and 0 for the first column
    // otherwise (matching backward_diff_rows). Each accumulator sums rows
    // ascending then columns ascending — the exact order of block_mean()
    // over materialised sorted/derivative matrices, so the fused kernel is
    // bit-identical to that path.
    for (std::size_t rr = range.begin; rr < range.end; ++rr) {
      const double* row = norm.data() + rr * wl;
      acc_re += row[0];
      acc_im += seed_col ? row[0] - seed_norm[rr] : 0.0;
      for (std::size_t c = 1; c < wl; ++c) {
        acc_re += row[c];
        acc_im += row[c] - row[c - 1];
      }
    }
    const double count =
        static_cast<double>(range.size()) * static_cast<double>(wl);
    sig.real()[i] = count == 0.0 ? 0.0 : acc_re / count;
    sig.imag()[i] = count == 0.0 ? 0.0 : acc_im / count;
  }
  return sig;
}

LaneLayout::LaneLayout(std::span<const std::size_t> permutation,
                       std::span<const stats::MinMaxBounds> bounds,
                       std::size_t l)
    : n_(permutation.size()) {
  if (n_ == 0) throw std::invalid_argument("LaneLayout: no sensors");
  if (bounds.size() != n_) {
    throw std::invalid_argument(
        "LaneLayout: permutation/bounds length mismatch");
  }
  if (l == 0) throw std::invalid_argument("LaneLayout: zero blocks");
  for (const std::size_t r : permutation) {
    if (r >= n_) throw std::invalid_argument("LaneLayout: row out of range");
  }
  std::vector<BlockRange> ranges(l);
  block_rows_.resize(l);
  for (std::size_t i = 0; i < l; ++i) {
    ranges[i] = block_range(i, l, n_);
    block_rows_[i] = ranges[i].size();
  }
  std::size_t entries = 0;
  for (std::size_t first = 0; first < l; first += kLanes) {
    Group g{first, std::min(kLanes, l - first), 0, entries};
    g.rows = *std::max_element(block_rows_.begin() + first,
                               block_rows_.begin() + first + g.lanes);
    entries += g.rows * g.lanes;
    groups_.push_back(g);
  }
  row_.resize(entries);
  lo_.resize(entries);
  hi_.resize(entries);
  span_.resize(entries);
  for (const Group& g : groups_) {
    for (std::size_t j = 0; j < g.rows; ++j) {
      for (std::size_t k = 0; k < g.lanes; ++k) {
        const std::size_t e = g.first_entry + j * g.lanes + k;
        const BlockRange& range = ranges[g.first_block + k];
        if (j >= range.size()) continue;  // A pad: row 0, bounds {0, 0}.
        const std::size_t orig = permutation[range.begin + j];
        row_[e] = static_cast<std::int64_t>(orig);
        lo_[e] = bounds[orig].lo;
        hi_[e] = bounds[orig].hi;
        span_[e] = bounds[orig].hi - bounds[orig].lo;
      }
    }
  }
}

namespace {

// The lane kernels work on a cache of normalised columns: per group,
// [rows][slots][lanes] doubles, one slot per column.
//
// fill normalises one raw column into a slot with MinMaxBounds::normalize's
// exact operations: the same subtract and divide (hi - lo is the same double
// whether computed here or there), the same clamps (a NaN passes both), and
// +0.0 where hi <= lo.
//
// sum adds the window's slots. Lane k of a group sums block k of the group
// with exactly the op sequence of smooth_window's block loop: the
// accumulators start at +0.0, rows ascend, columns ascend within a row, the
// real channel adds the value, the imaginary channel adds the backward
// difference (the first column's against the seed, or +0.0 without one). A
// lane only ever sees its own block, so running eight of them side by side
// changes no result; pads add +0.0, which leaves any sum but -0.0
// unchanged, and a sum that starts at +0.0 is never -0.0. No path fuses a
// multiply and an add.

// One raw column into a group's slot: entry e of row j (e = j * lanes +
// lane) reads col[offset[e]], offset being the group's LaneLayout::row(),
// and goes to dst[j * stride + lane].
struct FillGroup {
  const double* col;
  const std::int64_t* offset;
  const double* lo;
  const double* hi;
  const double* span;
  double* dst;
  std::size_t lanes, rows, stride;
};

// A group's window: its columns start at slot `first` and wrap after
// `slots`; the seed is the slot after the last (slots == wl + 1).
struct SumGroup {
  const double* data;
  std::size_t lanes, rows, slots, first, wl;
  bool seeded;
};

using FillKernel = void (*)(const FillGroup&);
using SumKernel = void (*)(const SumGroup&, double* re, double* im);

struct LaneKernels {
  FillKernel fill = nullptr;
  SumKernel sum = nullptr;
};

constexpr std::size_t kLanes = LaneLayout::kLanes;

// Portable paths: any lane count up to kLanes (the last group's too).
void fill_portable(const FillGroup& g) {
  for (std::size_t j = 0; j < g.rows; ++j) {
    const std::size_t e0 = j * g.lanes;
    double* dst = g.dst + j * g.stride;
    for (std::size_t k = 0; k < g.lanes; ++k) {
      const std::size_t e = e0 + k;
      dst[k] = stats::MinMaxBounds{g.lo[e], g.hi[e]}.normalize(
          g.col[g.offset[e]]);
    }
  }
}

void sum_portable(const SumGroup& g, double* re, double* im) {
  double r[kLanes] = {};
  double m[kLanes] = {};
  const std::size_t lanes = g.lanes;
  const std::size_t seed_slot = (g.first + g.wl) % g.slots;
  for (std::size_t j = 0; j < g.rows; ++j) {
    const double* row = g.data + j * g.slots * lanes;
    const double* cur = row + g.first * lanes;
    const double* seed = row + seed_slot * lanes;
    for (std::size_t k = 0; k < lanes; ++k) {
      r[k] += cur[k];
      m[k] += g.seeded ? cur[k] - seed[k] : 0.0;
    }
    std::size_t s = g.first;
    for (std::size_t c = 1; c < g.wl; ++c) {
      const double* prev = cur;
      s = s + 1 == g.slots ? 0 : s + 1;
      cur = row + s * lanes;
      for (std::size_t k = 0; k < lanes; ++k) {
        r[k] += cur[k];
        m[k] += cur[k] - prev[k];
      }
    }
  }
  std::copy_n(r, lanes, re);
  std::copy_n(m, lanes, im);
}

#if defined(__x86_64__)

__attribute__((target("avx512f"))) void fill_avx512(const FillGroup& g) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  for (std::size_t j = 0; j < g.rows; ++j) {
    const std::size_t e = j * kLanes;
    const __m512d lo = _mm512_loadu_pd(g.lo + e);
    const __mmask8 live =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(g.hi + e), lo, _CMP_NLE_UQ);
    // The masked form: GCC 12's unmasked gather reads an undefined source.
    const __m512d v = _mm512_mask_i64gather_pd(
        zero, 0xFF, _mm512_loadu_si512(g.offset + e), g.col, 8);
    const __m512d u =
        _mm512_div_pd(_mm512_sub_pd(v, lo), _mm512_loadu_pd(g.span + e));
    const __mmask8 below = _mm512_cmp_pd_mask(u, zero, _CMP_LT_OQ);
    const __mmask8 above = _mm512_cmp_pd_mask(u, one, _CMP_GT_OQ);
    const __m512d clamped =
        _mm512_mask_mov_pd(_mm512_mask_mov_pd(u, below, zero), above, one);
    _mm512_storeu_pd(g.dst + j * g.stride, _mm512_maskz_mov_pd(live, clamped));
  }
}

__attribute__((target("avx512f"))) void sum_avx512(const SumGroup& g,
                                                   double* re, double* im) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d r = zero;
  __m512d m = zero;
  const std::size_t seed_slot = (g.first + g.wl) % g.slots;
  for (std::size_t j = 0; j < g.rows; ++j) {
    const double* row = g.data + j * g.slots * kLanes;
    __m512d cur = _mm512_loadu_pd(row + g.first * kLanes);
    r = _mm512_add_pd(r, cur);
    m = _mm512_add_pd(
        m, g.seeded
               ? _mm512_sub_pd(cur, _mm512_loadu_pd(row + seed_slot * kLanes))
               : zero);
    std::size_t s = g.first;
    for (std::size_t c = 1; c < g.wl; ++c) {
      s = s + 1 == g.slots ? 0 : s + 1;
      const __m512d x = _mm512_loadu_pd(row + s * kLanes);
      r = _mm512_add_pd(r, x);
      m = _mm512_add_pd(m, _mm512_sub_pd(x, cur));
      cur = x;
    }
  }
  _mm512_storeu_pd(re, r);
  _mm512_storeu_pd(im, m);
}

// AVX2 runs a group as two four-lane halves.
__attribute__((target("avx2"))) void fill_avx2(const FillGroup& g) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t j = 0; j < g.rows; ++j) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t e = j * kLanes + 4 * h;
      const __m256d lo = _mm256_loadu_pd(g.lo + e);
      const __m256d live =
          _mm256_cmp_pd(_mm256_loadu_pd(g.hi + e), lo, _CMP_NLE_UQ);
      const __m256d v = _mm256_i64gather_pd(
          g.col,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g.offset + e)),
          8);
      const __m256d u =
          _mm256_div_pd(_mm256_sub_pd(v, lo), _mm256_loadu_pd(g.span + e));
      const __m256d below = _mm256_cmp_pd(u, zero, _CMP_LT_OQ);
      const __m256d above = _mm256_cmp_pd(u, one, _CMP_GT_OQ);
      const __m256d clamped =
          _mm256_blendv_pd(_mm256_blendv_pd(u, zero, below), one, above);
      _mm256_storeu_pd(g.dst + j * g.stride + 4 * h,
                       _mm256_and_pd(clamped, live));
    }
  }
}

__attribute__((target("avx2"))) void sum_avx2(const SumGroup& g, double* re,
                                              double* im) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d r[2] = {zero, zero};
  __m256d m[2] = {zero, zero};
  const std::size_t seed_slot = (g.first + g.wl) % g.slots;
  for (std::size_t j = 0; j < g.rows; ++j) {
    const double* row = g.data + j * g.slots * kLanes;
    __m256d cur[2];
    for (std::size_t h = 0; h < 2; ++h) {
      cur[h] = _mm256_loadu_pd(row + g.first * kLanes + 4 * h);
      r[h] = _mm256_add_pd(r[h], cur[h]);
      m[h] = _mm256_add_pd(
          m[h], g.seeded ? _mm256_sub_pd(cur[h],
                                         _mm256_loadu_pd(
                                             row + seed_slot * kLanes + 4 * h))
                         : zero);
    }
    std::size_t s = g.first;
    for (std::size_t c = 1; c < g.wl; ++c) {
      s = s + 1 == g.slots ? 0 : s + 1;
      for (std::size_t h = 0; h < 2; ++h) {
        const __m256d x = _mm256_loadu_pd(row + s * kLanes + 4 * h);
        r[h] = _mm256_add_pd(r[h], x);
        m[h] = _mm256_add_pd(m[h], _mm256_sub_pd(x, cur[h]));
        cur[h] = x;
      }
    }
  }
  for (std::size_t h = 0; h < 2; ++h) {
    _mm256_storeu_pd(re + 4 * h, r[h]);
    _mm256_storeu_pd(im + 4 * h, m[h]);
  }
}

#endif  // __x86_64__

LaneKernels lane_kernels_for(common::Isa isa) {
  switch (isa) {
    case common::Isa::kScalar:
      return {fill_portable, sum_portable};
#if defined(__x86_64__)
    case common::Isa::kAvx2:
      return {fill_avx2, sum_avx2};
    case common::Isa::kAvx512f:
      return {fill_avx512, sum_avx512};
#endif
    default:
      return {};
  }
}

// The widest path this CPU runs, chosen once.
common::Isa dispatched_lane_isa() {
  static const common::Isa isa = [] {
    for (const common::Isa wide : {common::Isa::kAvx512f, common::Isa::kAvx2}) {
      if (common::cpu_has(wide)) return wide;
    }
    return common::Isa::kScalar;
  }();
  return isa;
}

void check_lane_isa(common::Isa isa, const char* who) {
  if (lane_kernels_for(isa).fill == nullptr || !common::cpu_has(isa)) {
    throw std::invalid_argument(std::string(who) + ": no " +
                                common::isa_name(isa) +
                                " kernel on this CPU");
  }
}

// Normalises raw column `col` into `slot` of a cache of `slots` columns.
// Full groups take the ISA path, the last group of fewer lanes the portable
// one.
void fill_slot(const LaneKernels& kernels, const LaneLayout& layout,
               const double* col, double* cache, std::size_t slots,
               std::size_t slot) {
  for (const LaneLayout::Group& g : layout.groups()) {
    const std::size_t e = g.first_entry;
    const FillGroup fg{col,
                       layout.row().data() + e,
                       layout.lo().data() + e,
                       layout.hi().data() + e,
                       layout.span().data() + e,
                       cache + e * slots + slot * g.lanes,
                       g.lanes,
                       g.rows,
                       slots * g.lanes};
    (g.lanes == kLanes ? kernels.fill : fill_portable)(fg);
  }
}

// Sums the wl-column window starting at slot `first` of a cache of
// wl + 1 slots, divides the sums into block means (by the same double
// rows * wl as smooth_window; it is never 0 here), and writes the flattened
// signature. `acc` holds 2l doubles.
void sum_window(const LaneKernels& kernels, const LaneLayout& layout,
                const double* cache, std::size_t wl, std::size_t first,
                bool seeded, double* acc, std::span<double> out) {
  const std::size_t l = layout.blocks();
  for (const LaneLayout::Group& g : layout.groups()) {
    const SumGroup sg{cache + g.first_entry * (wl + 1), g.lanes, g.rows,
                      wl + 1, first, wl, seeded};
    (g.lanes == kLanes ? kernels.sum : sum_portable)(
        sg, acc + g.first_block, acc + l + g.first_block);
  }
  const bool imag = out.size() == 2 * l;
  for (std::size_t i = 0; i < l; ++i) {
    const double count = static_cast<double>(layout.block_rows(i)) *
                         static_cast<double>(wl);
    out[i] = acc[i] / count;
    if (imag) out[l + i] = acc[l + i] / count;
  }
}

}  // namespace

WindowSmoother::WindowSmoother(std::span<const std::size_t> permutation,
                               std::span<const stats::MinMaxBounds> bounds,
                               std::size_t l, std::size_t window_length,
                               bool real_only)
    : layout_(permutation, bounds, l),
      wl_(window_length),
      real_only_(real_only),
      cache_(layout_.entries() * (window_length + 1)),
      acc_(2 * l) {
  if (wl_ == 0) {
    throw std::invalid_argument("WindowSmoother: zero window length");
  }
}

std::vector<double> WindowSmoother::emit(const common::RingMatrix& ring) {
  return emit_on(dispatched_lane_isa(), ring);
}

std::vector<double> WindowSmoother::emit_with(common::Isa isa,
                                              const common::RingMatrix& ring) {
  check_lane_isa(isa, "WindowSmoother");
  return emit_on(isa, ring);
}

std::vector<double> WindowSmoother::emit_on(common::Isa isa,
                                            const common::RingMatrix& ring) {
  const std::size_t slots = wl_ + 1;
  if (ring.rows() != layout_.n_sensors()) {
    throw std::invalid_argument("WindowSmoother: sensor count mismatch");
  }
  if (ring.size() < wl_ || ring.capacity() < slots) {
    throw std::invalid_argument(
        "WindowSmoother: the ring must retain the window and its seed");
  }

  // Normalise the columns pushed since the last emit that the window or its
  // seed still needs; column q of the stream lives in slot q % slots. Fewer
  // pushes than at the last emit means the ring was cleared: refill it all.
  const LaneKernels kernels = lane_kernels_for(isa);
  const std::size_t pushed = ring.pushed();
  if (pushed < filled_) filled_ = 0;
  const std::size_t oldest = pushed - ring.size();
  for (std::size_t q = std::max(filled_, pushed - std::min(ring.size(), slots));
       q < pushed; ++q) {
    fill_slot(kernels, layout_, ring.column(q - oldest).data(), cache_.data(),
              slots, q % slots);
  }
  filled_ = pushed;
  std::vector<double> out(real_only_ ? layout_.blocks()
                                     : 2 * layout_.blocks());
  sum_window(kernels, layout_, cache_.data(), wl_, (pushed - wl_) % slots,
             ring.size() > wl_, acc_.data(), out);
  return out;
}

}  // namespace csm::core
