#include "core/smoothing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"

namespace csm::core {
namespace {

TEST(BlockRange, EvenDivisionIsDisjoint) {
  // n=8, l=4: blocks of exactly 2, no overlap.
  for (std::size_t i = 0; i < 4; ++i) {
    const BlockRange r = block_range(i, 4, 8);
    EXPECT_EQ(r.begin, 2 * i);
    EXPECT_EQ(r.end, 2 * i + 2);
  }
}

TEST(BlockRange, UnevenDivisionOverlapsBoundaries) {
  // n=10, l=4 (n%l=2): Eq. 2 makes neighbouring blocks share a boundary
  // sensor — "partially overlapping ranges".
  const BlockRange r0 = block_range(0, 4, 10);
  const BlockRange r1 = block_range(1, 4, 10);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r0.end, 3u);
  EXPECT_EQ(r1.begin, 2u);  // Overlaps r0 at sensor 2.
  EXPECT_LT(r1.begin, r0.end);
}

TEST(BlockRange, CoversAllSensors) {
  for (std::size_t n : {5u, 7u, 16u, 23u, 100u}) {
    for (std::size_t l : {1u, 2u, 3u, 5u, 8u}) {
      std::set<std::size_t> covered;
      for (std::size_t i = 0; i < l; ++i) {
        const BlockRange r = block_range(i, l, n);
        EXPECT_LT(r.begin, r.end);
        EXPECT_LE(r.end, n);
        for (std::size_t k = r.begin; k < r.end; ++k) covered.insert(k);
      }
      EXPECT_EQ(covered.size(), n) << "n=" << n << " l=" << l;
    }
  }
}

TEST(BlockRange, FirstAndLastAnchored) {
  EXPECT_EQ(block_range(0, 7, 30).begin, 0u);
  EXPECT_EQ(block_range(6, 7, 30).end, 30u);
}

TEST(BlockRange, MoreBlocksThanSensors) {
  // l > n duplicates sensors rather than producing empty blocks.
  for (std::size_t i = 0; i < 10; ++i) {
    const BlockRange r = block_range(i, 10, 4);
    EXPECT_LT(r.begin, r.end);
    EXPECT_LE(r.end, 4u);
  }
}

TEST(BlockRange, Validation) {
  EXPECT_THROW(block_range(0, 0, 5), std::invalid_argument);
  EXPECT_THROW(block_range(0, 5, 0), std::invalid_argument);
  EXPECT_THROW(block_range(5, 5, 10), std::invalid_argument);
}

TEST(Smooth, RealChannelIsBlockMean) {
  // Two blocks over four sensors; values constant per sensor.
  common::Matrix sorted{{1.0, 1.0}, {3.0, 3.0}, {5.0, 5.0}, {7.0, 7.0}};
  const Signature sig = smooth(sorted, 2);
  ASSERT_EQ(sig.length(), 2u);
  EXPECT_DOUBLE_EQ(sig.real()[0], 2.0);  // Mean of rows {0,1}.
  EXPECT_DOUBLE_EQ(sig.real()[1], 6.0);  // Mean of rows {2,3}.
}

TEST(Smooth, ImagChannelIsDerivativeMean) {
  // One block; each row rises by 1 per step -> mean backward diff is
  // (0 + 1 + 1) / 3 per row.
  common::Matrix sorted{{0.0, 1.0, 2.0}, {5.0, 6.0, 7.0}};
  const Signature sig = smooth(sorted, 1);
  EXPECT_NEAR(sig.imag()[0], 2.0 / 3.0, 1e-12);
}

TEST(Smooth, ExplicitDerivativesUsed) {
  common::Matrix sorted{{1.0, 1.0}};
  common::Matrix derivs{{0.5, 0.5}};
  const Signature sig = smooth(sorted, derivs, 1);
  EXPECT_DOUBLE_EQ(sig.imag()[0], 0.5);
  EXPECT_DOUBLE_EQ(sig.real()[0], 1.0);
}

TEST(Smooth, SignatureLengthEqualsRequestedBlocks) {
  common::Matrix sorted(12, 5, 1.0);
  EXPECT_EQ(smooth(sorted, 5).length(), 5u);
  EXPECT_EQ(smooth(sorted, 12).length(), 12u);
  EXPECT_EQ(smooth(sorted, 1).length(), 1u);
}

TEST(Smooth, ConstantWindowHasZeroImag) {
  common::Matrix sorted(4, 6, 0.7);
  const Signature sig = smooth(sorted, 2);
  for (double v : sig.imag()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : sig.real()) EXPECT_DOUBLE_EQ(v, 0.7);
}

TEST(Smooth, Validation) {
  EXPECT_THROW(smooth(common::Matrix(), 2), std::invalid_argument);
  common::Matrix s(2, 2);
  EXPECT_THROW(smooth(s, 0), std::invalid_argument);
  common::Matrix wrong_derivs(3, 2);
  EXPECT_THROW(smooth(s, wrong_derivs, 1), std::invalid_argument);
}

TEST(Smooth, CsAllAveragesOverTimeOnly) {
  // l == n: every block is one sensor; real channel = per-sensor window
  // mean.
  common::Matrix sorted{{0.0, 1.0}, {1.0, 0.0}};
  const Signature sig = smooth(sorted, 2);
  EXPECT_DOUBLE_EQ(sig.real()[0], 0.5);
  EXPECT_DOUBLE_EQ(sig.real()[1], 0.5);
}

// --------------------------------------------------------------------------
// WindowSmoother against the smooth_window reference, byte for byte, on
// every ISA path the host has.
// --------------------------------------------------------------------------

// A model with every kind of bounds the kernel must treat like
// MinMaxBounds::normalize: ordinary ones, degenerate ones (hi == lo and
// hi < lo, which normalise to 0), and lo == 0, where a -0.0 sample
// normalises to -0.0.
struct LaneModel {
  std::vector<std::size_t> perm;
  std::vector<stats::MinMaxBounds> bounds;
};

LaneModel lane_model(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  LaneModel m{rng.permutation(n), std::vector<stats::MinMaxBounds>(n)};
  for (std::size_t r = 0; r < n; ++r) {
    const double lo = rng.uniform(-1.0, 0.0);
    m.bounds[r] = {lo, lo + rng.uniform(0.5, 2.0)};
    if (r % 7 == 3) m.bounds[r].hi = lo;
    if (r % 11 == 5) m.bounds[r].hi = lo - 0.5;
    if (r % 5 == 1) m.bounds[r] = {0.0, 1.0};
  }
  return m;
}

// Samples inside and beyond the bounds, plus NaN, +-inf and -0.0.
double lane_sample(common::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.02) return std::numeric_limits<double>::quiet_NaN();
  if (u < 0.03) return std::numeric_limits<double>::infinity();
  if (u < 0.04) return -std::numeric_limits<double>::infinity();
  if (u < 0.07) return -0.0;
  return rng.uniform(-2.0, 2.0);
}

std::vector<common::Isa> lane_paths() {
  std::vector<common::Isa> paths;
  for (const common::Isa isa :
       {common::Isa::kScalar, common::Isa::kAvx2, common::Isa::kAvx512f}) {
    if (common::cpu_has(isa)) paths.push_back(isa);
  }
  return paths;
}

void expect_same_bytes(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

// l = 1, 3, 8, 9, 17, CS-All (l = n) and l > n.
std::vector<std::size_t> lane_block_counts(std::size_t n) {
  std::vector<std::size_t> ls = {1, 3, 8, 9, 17, n, n + 5};
  std::sort(ls.begin(), ls.end());
  ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
  return ls;
}

const std::size_t kLaneSensorCounts[] = {1, 2, 3, 5, 8, 9, 17, 32, 33, 512};

// Pushes a stream through a ring and checks every emit of a smoother per
// path (each with its own cache) against smooth_window over the ring.
void check_streamed(std::size_t n, std::size_t l, std::size_t wl,
                    std::size_t ws, std::size_t capacity, bool real_only) {
  SCOPED_TRACE("n=" + std::to_string(n) + " l=" + std::to_string(l) +
               " wl=" + std::to_string(wl) + " ws=" + std::to_string(ws) +
               " capacity=" + std::to_string(capacity));
  const LaneModel m = lane_model(n, 200 + n);
  const std::vector<common::Isa> paths = lane_paths();
  WindowSmoother dispatched(m.perm, m.bounds, l, wl, real_only);
  std::vector<WindowSmoother> explicit_paths;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    explicit_paths.emplace_back(m.perm, m.bounds, l, wl, real_only);
  }
  common::RingMatrix ring(n, capacity);
  common::Rng rng(n * 31 + l * 7 + wl * 3 + ws);
  const std::size_t pushes = wl + 3 * capacity + 2 * ws;
  std::size_t emits = 0;
  for (std::size_t p = 1; p <= pushes; ++p) {
    for (double& v : ring.push_slot()) v = lane_sample(rng);
    if (p < wl || (p - wl) % ws != 0) continue;
    const std::span<const double> seed =
        ring.size() > wl ? ring.newest(wl) : std::span<const double>();
    const std::vector<double> want =
        smooth_window(ring.latest_view(wl), m.perm, m.bounds,
                      ring.size() > wl ? &seed : nullptr, l)
            .flatten(real_only);
    expect_same_bytes(dispatched.emit(ring), want);
    for (std::size_t k = 0; k < paths.size(); ++k) {
      SCOPED_TRACE(common::isa_name(paths[k]));
      expect_same_bytes(explicit_paths[k].emit_with(paths[k], ring), want);
    }
    ++emits;
  }
  EXPECT_GT(emits, 1u);
}

TEST(WindowSmoother, StreamMatchesSmoothWindowOnEveryPath) {
  // The first emit is unseeded; the ring wraps several times, at wl + 1
  // (the smallest ring a stream uses) and at an odd larger capacity; steps
  // of 1, 10 and more than wl (columns no window reads are never cached).
  for (const std::size_t n : kLaneSensorCounts) {
    for (const std::size_t l : lane_block_counts(n)) {
      for (const std::size_t wl : {1u, 2u, 60u}) {
        for (const std::size_t ws : {std::size_t{1}, std::size_t{10}, wl + 7}) {
          if (n >= 512 && ws == 1) continue;  // Covered by ws = 10 and wl + 7.
          const bool real_only = ws == 10;
          check_streamed(n, l, wl, ws, wl + 1, real_only);
          check_streamed(n, l, wl, ws, wl + 14, real_only);
        }
      }
    }
  }
}

TEST(WindowSmoother, ClearedRingIsRefilled) {
  // After a clear the ring restarts its push count; the next emit must not
  // sum columns cached before the clear.
  const std::size_t n = 9, l = 4, wl = 5;
  const LaneModel m = lane_model(n, 3);
  WindowSmoother smoother(m.perm, m.bounds, l, wl, false);
  common::RingMatrix ring(n, wl + 1);
  common::Rng rng(5);
  const auto push = [&](std::size_t count) {
    for (std::size_t p = 0; p < count; ++p) {
      for (double& v : ring.push_slot()) v = lane_sample(rng);
    }
  };
  const auto want = [&] {
    const std::span<const double> seed =
        ring.size() > wl ? ring.newest(wl) : std::span<const double>();
    return smooth_window(ring.latest_view(wl), m.perm, m.bounds,
                         ring.size() > wl ? &seed : nullptr, l)
        .flatten();
  };
  push(3 * wl);
  expect_same_bytes(smoother.emit(ring), want());
  ring.clear();
  push(wl);  // Unseeded, fewer pushes than before the clear.
  expect_same_bytes(smoother.emit(ring), want());
  push(2);
  expect_same_bytes(smoother.emit(ring), want());
}

TEST(LaneKernel, UnavailablePathThrows) {
  const LaneModel m = lane_model(4, 1);
  common::RingMatrix ring(4, 4);
  for (int i = 0; i < 3; ++i) ring.push(std::vector<double>(4, 0.5));
  WindowSmoother smoother(m.perm, m.bounds, 2, 3, false);
  EXPECT_THROW(smoother.emit_with(common::Isa::kPclmul, ring),
               std::invalid_argument);
  for (const common::Isa isa : {common::Isa::kAvx2, common::Isa::kAvx512f}) {
    if (!common::cpu_has(isa)) {
      EXPECT_THROW(smoother.emit_with(isa, ring), std::invalid_argument);
    }
  }
}

TEST(LaneKernel, Validation) {
  const LaneModel m = lane_model(4, 2);
  EXPECT_THROW(LaneLayout({}, {}, 1), std::invalid_argument);
  EXPECT_THROW(LaneLayout(m.perm, {m.bounds.data(), 3}, 1),
               std::invalid_argument);
  EXPECT_THROW(LaneLayout(m.perm, m.bounds, 0), std::invalid_argument);
  const std::vector<std::size_t> bad_perm = {0, 1, 2, 4};
  EXPECT_THROW(LaneLayout(bad_perm, m.bounds, 1), std::invalid_argument);
  EXPECT_THROW(WindowSmoother(bad_perm, m.bounds, 2, 3, false),
               std::invalid_argument);

  EXPECT_THROW(WindowSmoother(m.perm, m.bounds, 2, 0, false),
               std::invalid_argument);
  WindowSmoother smoother(m.perm, m.bounds, 2, 3, false);
  common::RingMatrix small(4, 3);  // No room for the seed column.
  for (int i = 0; i < 3; ++i) small.push(std::vector<double>(4, 0.5));
  EXPECT_THROW(smoother.emit(small), std::invalid_argument);
  common::RingMatrix ring(4, 4);
  ring.push(std::vector<double>(4, 0.5));  // Shorter than the window.
  EXPECT_THROW(smoother.emit(ring), std::invalid_argument);
  common::RingMatrix wide(5, 4);
  for (int i = 0; i < 3; ++i) wide.push(std::vector<double>(5, 0.5));
  EXPECT_THROW(smoother.emit(wide), std::invalid_argument);
}

TEST(LaneKernel, EveryGroupIsFullWidth) {
  // The last group is padded out to kLanes with pads (row 0, bounds
  // {0, 0}), so no kernel has a leftover-lanes path; the model still has l
  // blocks and a signature 2l values.
  constexpr std::size_t kLanes = LaneLayout::kLanes;
  const std::size_t n = 20;
  const LaneModel m = lane_model(n, 6);
  for (const std::size_t l : {1u, 9u, 17u}) {
    SCOPED_TRACE("l=" + std::to_string(l));
    const LaneLayout layout(m.perm, m.bounds, l);
    EXPECT_EQ(layout.blocks(), l);
    ASSERT_EQ(layout.groups().size(), (l + kLanes - 1) / kLanes);
    EXPECT_EQ(layout.lanes(), layout.groups().size() * kLanes);
    std::size_t entries = 0;
    for (const LaneLayout::Group& g : layout.groups()) {
      EXPECT_EQ(g.first_entry, entries);
      entries += g.rows * kLanes;
    }
    EXPECT_EQ(layout.entries(), entries);
    const LaneLayout::Group& last = layout.groups().back();
    for (std::size_t j = 0; j < last.rows; ++j) {
      for (std::size_t k = l - last.first_block; k < kLanes; ++k) {
        const std::size_t e = last.first_entry + j * kLanes + k;
        EXPECT_EQ(layout.row()[e], 0);
        EXPECT_EQ(layout.lo()[e], 0.0);
        EXPECT_EQ(layout.hi()[e], 0.0);
      }
    }
    WindowSmoother smoother(m.perm, m.bounds, l, 3, false);
    common::RingMatrix ring(n, 4);
    for (int i = 0; i < 4; ++i) ring.push(std::vector<double>(n, 0.5));
    EXPECT_EQ(smoother.emit(ring).size(), 2 * l);
  }
}

}  // namespace
}  // namespace csm::core
