#include "core/smoothing.hpp"

#include <algorithm>
#include <stdexcept>

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
    const std::size_t last = std::min(l, first + kLanes);
    const Group g{first,
                  *std::max_element(block_rows_.begin() + first,
                                    block_rows_.begin() + last),
                  entries};
    entries += g.rows * kLanes;
    groups_.push_back(g);
  }
  row_.resize(entries);
  lo_.resize(entries);
  hi_.resize(entries);
  span_.resize(entries);
  for (const Group& g : groups_) {
    for (std::size_t k = 0; k < kLanes && g.first_block + k < l; ++k) {
      const BlockRange& range = ranges[g.first_block + k];
      for (std::size_t j = 0; j < range.size(); ++j) {
        const std::size_t e = g.first_entry + j * kLanes + k;
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

constexpr std::size_t kLanes = LaneLayout::kLanes;

// The lane kernel works on a cache of normalised columns: per group,
// [rows][slots][kLanes] doubles, one slot per column. Every loop below is
// written once over the vector width kW and compiled per target.
//
// fill_group normalises one raw column into a slot with
// MinMaxBounds::normalize's exact operations: the same subtract and divide
// (hi - lo is the same double whether computed here or there), the same
// clamps (a NaN passes both), and +0.0 where hi <= lo.
//
// sum_group adds the window's slots. Lane k of a group sums block k of the
// group with exactly the op sequence of smooth_window's block loop: the
// accumulators start at +0.0, rows ascend, columns ascend within a row, the
// real channel adds the value, the imaginary channel adds the backward
// difference (the first column's against the seed, or +0.0 without one). A
// lane only ever sees its own block, so running kW of them side by side
// changes no result; pads add +0.0, which leaves any sum but -0.0
// unchanged, and a sum that starts at +0.0 is never -0.0. No path fuses a
// multiply and an add.

// Raw column `col` into the slot at `dst`: entry e = j * kLanes + k of the
// group reads col[row(e)] and goes to dst[j * stride + k].
template <std::size_t kW>
[[gnu::always_inline]] inline void fill_group(const LaneLayout& layout,
                                              const LaneLayout::Group& g,
                                              const double* col, double* dst,
                                              std::size_t stride) {
  using Vw = common::Vec<kW>;
  using V = typename Vw::V;
  const std::int64_t* row = layout.row().data() + g.first_entry;
  const double* lo = layout.lo().data() + g.first_entry;
  const double* hi = layout.hi().data() + g.first_entry;
  const double* span = layout.span().data() + g.first_entry;
  const V zero = {};
  const V one = zero + 1.0;
  for (std::size_t j = 0; j < g.rows; ++j) {
    CSM_UNROLL
    for (std::size_t k = 0; k < kLanes; k += kW) {
      const std::size_t e = j * kLanes + k;
      V v = {};
      CSM_UNROLL
      for (std::size_t q = 0; q < kW; ++q) v[q] = col[row[e + q]];
      const V l = Vw::at(lo + e);
      const V h = Vw::at(hi + e);
      V u = (v - l) / Vw::at(span + e);
      u = u < zero ? zero : u;
      u = u > one ? one : u;
      Vw::at(dst + j * stride + k) = h <= l ? zero : u;
    }
  }
}

// The window of `wl` columns of a group's cache `data` that starts at slot
// `first` and wraps after `slots` (= wl + 1; the seed is the slot after the
// window's last), summed into re[0, kLanes) and im[0, kLanes).
template <std::size_t kW>
[[gnu::always_inline]] inline void sum_group(const double* data,
                                             std::size_t rows,
                                             std::size_t slots,
                                             std::size_t first, std::size_t wl,
                                             bool seeded, double* re,
                                             double* im) {
  using Vw = common::Vec<kW>;
  using V = typename Vw::V;
  constexpr std::size_t kVecs = kLanes / kW;
  const V zero = {};
  V r[kVecs];
  V m[kVecs];
  CSM_UNROLL
  for (std::size_t v = 0; v < kVecs; ++v) r[v] = m[v] = zero;
  const std::size_t seed_slot = (first + wl) % slots;
  for (std::size_t j = 0; j < rows; ++j) {
    const double* row = data + j * slots * kLanes;
    V cur[kVecs];
    CSM_UNROLL
    for (std::size_t v = 0; v < kVecs; ++v) {
      cur[v] = Vw::at(row + first * kLanes + v * kW);
      r[v] += cur[v];
      m[v] += seeded ? cur[v] - Vw::at(row + seed_slot * kLanes + v * kW)
                     : zero;
    }
    std::size_t s = first;
    for (std::size_t c = 1; c < wl; ++c) {
      s = s + 1 == slots ? 0 : s + 1;
      CSM_UNROLL
      for (std::size_t v = 0; v < kVecs; ++v) {
        const V x = Vw::at(row + s * kLanes + v * kW);
        r[v] += x;
        m[v] += x - cur[v];
        cur[v] = x;
      }
    }
  }
  CSM_UNROLL
  for (std::size_t v = 0; v < kVecs; ++v) {
    Vw::at(re + v * kW) = r[v];
    Vw::at(im + v * kW) = m[v];
  }
}

// One emit: normalise stream columns [from, ring.pushed()) into their slots
// (column q lives in slot q % (wl + 1)), then sum the newest wl columns of
// every group into acc: the real sums of layout.lanes() lanes, then the
// imaginary ones.
struct LaneEmit {
  const LaneLayout& layout;
  const common::RingMatrix& ring;
  std::size_t from;
  std::size_t wl;
  double* cache;
  double* acc;
};

template <std::size_t kW>
[[gnu::always_inline]] inline void emit_lanes(const LaneEmit& job) {
  static_assert(sizeof(typename common::Vec<kW>::V) == kW * sizeof(double));
  static_assert(kLanes % kW == 0);
  const LaneLayout& layout = job.layout;
  const std::size_t slots = job.wl + 1;
  const std::size_t pushed = job.ring.pushed();
  const std::size_t oldest = pushed - job.ring.size();
  for (std::size_t q = job.from; q < pushed; ++q) {
    const double* col = job.ring.column(q - oldest).data();
    for (const LaneLayout::Group& g : layout.groups()) {
      fill_group<kW>(layout, g, col,
                     job.cache + (g.first_entry * slots + q % slots * kLanes),
                     slots * kLanes);
    }
  }
  const std::size_t first = (pushed - job.wl) % slots;
  const bool seeded = job.ring.size() > job.wl;
  double* re = job.acc;
  double* im = job.acc + layout.lanes();
  for (const LaneLayout::Group& g : layout.groups()) {
    sum_group<kW>(job.cache + g.first_entry * slots, g.rows, slots, first,
                  job.wl, seeded, re + g.first_block, im + g.first_block);
  }
}

using LaneKernel = void (*)(const LaneEmit&);

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void emit_avx512(const LaneEmit& job) {
  emit_lanes<8>(job);
}

__attribute__((target("avx2"))) void emit_avx2(const LaneEmit& job) {
  emit_lanes<4>(job);
}
#endif

void emit_default(const LaneEmit& job) { emit_lanes<2>(job); }

using LanePaths = common::IsaPaths<common::Isa::kAvx512f, common::Isa::kAvx2>;

LaneKernel lane_kernel_for([[maybe_unused]] common::Isa isa) {
#if defined(__x86_64__)
  if (isa == common::Isa::kAvx512f) return emit_avx512;
  if (isa == common::Isa::kAvx2) return emit_avx2;
#endif
  return emit_default;
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
      acc_(2 * layout_.lanes()) {
  if (wl_ == 0) {
    throw std::invalid_argument("WindowSmoother: zero window length");
  }
}

std::vector<double> WindowSmoother::emit(const common::RingMatrix& ring) {
  return emit_on(LanePaths::widest(), ring);
}

std::vector<double> WindowSmoother::emit_with(common::Isa isa,
                                              const common::RingMatrix& ring) {
  return emit_on(LanePaths::require(isa, "WindowSmoother"), ring);
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
  // seed still needs. Fewer pushes than at the last emit means the ring was
  // cleared: refill it all.
  const std::size_t pushed = ring.pushed();
  if (pushed < filled_) filled_ = 0;
  const std::size_t from =
      std::max(filled_, pushed - std::min(ring.size(), slots));
  lane_kernel_for(isa)({layout_, ring, from, wl_, cache_.data(), acc_.data()});
  filled_ = pushed;

  // Block means, dividing by the same double rows * wl as smooth_window (it
  // is never 0 here).
  const std::size_t l = layout_.blocks();
  const double* re = acc_.data();
  const double* im = acc_.data() + layout_.lanes();
  std::vector<double> out(real_only_ ? l : 2 * l);
  for (std::size_t i = 0; i < l; ++i) {
    const double count = static_cast<double>(layout_.block_rows(i)) *
                         static_cast<double>(wl_);
    out[i] = re[i] / count;
    if (!real_only_) out[l + i] = im[i] / count;
  }
  return out;
}

}  // namespace csm::core
