#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/cpu.hpp"
#include "common/ring_matrix.hpp"
#include "common/rng.hpp"

namespace csm::stats {
namespace {

TEST(Pearson, PerfectPositiveCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesCorrelatesZero) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> c{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Pearson, ScaleAndShiftInvariant) {
  common::Rng rng(5);
  std::vector<double> x(200), y(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.gaussian();
    y[i] = 3.0 * x[i] + 10.0;
  }
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-9);
}

TEST(Pearson, LengthMismatchThrows) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{1, 2, 3};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
}

TEST(ShiftedCorrelationMatrix, DiagonalIsTwo) {
  common::Matrix s{{1, 2, 3, 4}, {4, 3, 2, 1}, {1, 5, 2, 8}};
  const common::Matrix m = shifted_correlation_matrix(s);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(m(i, i), 2.0);
}

TEST(ShiftedCorrelationMatrix, IsSymmetric) {
  common::Rng rng(9);
  common::Matrix s(6, 50);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 50; ++c) s(r, c) = rng.gaussian();
  }
  const common::Matrix m = shifted_correlation_matrix(s);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
    }
  }
}

TEST(ShiftedCorrelationMatrix, ValuesInZeroTwo) {
  common::Rng rng(11);
  common::Matrix s(8, 40);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 40; ++c) s(r, c) = rng.uniform();
  }
  const common::Matrix m = shifted_correlation_matrix(s);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], 0.0);
    EXPECT_LE(m.data()[i], 2.0);
  }
}

TEST(ShiftedCorrelationMatrix, MatchesPairwisePearson) {
  common::Matrix s{{1, 2, 3, 4, 5}, {2, 1, 4, 3, 6}, {5, 4, 3, 2, 1}};
  const common::Matrix m = shifted_correlation_matrix(s);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(m(i, j), pearson(s.row(i), s.row(j)) + 1.0, 1e-12);
    }
  }
}

TEST(ShiftedCorrelationMatrix, ConstantRowShiftsToOne) {
  common::Matrix s{{1, 2, 3, 4}, {7, 7, 7, 7}};
  const common::Matrix m = shifted_correlation_matrix(s);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);  // pearson 0 shifted by +1.
}

TEST(GlobalCoefficients, AveragesOffDiagonal) {
  common::Matrix shifted{{2.0, 1.5, 0.5}, {1.5, 2.0, 1.0}, {0.5, 1.0, 2.0}};
  const std::vector<double> g = global_coefficients(shifted);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 1.25);
  EXPECT_DOUBLE_EQ(g[2], 0.75);
}

TEST(GlobalCoefficients, SingleRowIsZero) {
  common::Matrix shifted{{2.0}};
  EXPECT_EQ(global_coefficients(shifted), std::vector<double>{0.0});
}

TEST(GlobalCoefficients, NonSquareThrows) {
  common::Matrix bad(2, 3);
  EXPECT_THROW(global_coefficients(bad), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Property tests: the tiled kernel is BIT-identical to the serial reference
// (training must not depend on which code path ran — the streaming
// equivalence suite compares signatures with memcmp).
// --------------------------------------------------------------------------

common::Matrix random_sensors(std::size_t n, std::size_t t,
                              std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) s(r, c) = rng.gaussian();
  }
  return s;
}

// memcmp, not EXPECT_DOUBLE_EQ: "close" is not the contract, identical
// bytes are.
void expect_bit_identical(const common::Matrix& a, const common::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// Every pair-kernel path this host can run, scalar included.
std::vector<common::Isa> kernel_paths() {
  std::vector<common::Isa> paths;
  for (const common::Isa isa :
       {common::Isa::kScalar, common::Isa::kAvx2, common::Isa::kAvx512f}) {
    if (common::cpu_has(isa)) paths.push_back(isa);
  }
  return paths;
}

// The dispatched kernel and every explicit path against the reference, each
// through `ws` (a fresh workspace when none is given).
void expect_every_path_matches_reference(const common::MatrixView& view,
                                         CorrelationWorkspace* ws = nullptr) {
  CorrelationWorkspace local;
  CorrelationWorkspace& w = ws != nullptr ? *ws : local;
  const common::Matrix ref = shifted_correlation_matrix_reference(view);
  {
    SCOPED_TRACE("dispatched");
    expect_bit_identical(shifted_correlation_matrix(view, w), ref);
  }
  for (const common::Isa isa : kernel_paths()) {
    SCOPED_TRACE(common::isa_name(isa));
    expect_bit_identical(shifted_correlation_matrix_with(isa, view, w), ref);
  }
}

TEST(ShiftedCorrelationProperty, TiledBitIdenticalToReference) {
  // Sensor counts around the 32-row tile and the 8-row blocks a tile's
  // width rounds up to (partial and whole blocks, a single short tile, a
  // short last tile) up to a fleet-scale n; t down to the degenerate t=1
  // and across the 256-step accumulation chunk.
  const std::size_t sensor_counts[] = {1,  2,  3,  4,  5,  8,  9,  17, 24,
                                       31, 32, 33, 40, 64, 67, 70, 1024};
  const std::size_t sample_counts[] = {1, 2, 3, 7, 64, 257, 513};
  std::uint64_t seed = 100;
  for (std::size_t n : sensor_counts) {
    for (std::size_t t : sample_counts) {
      SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t));
      const common::Matrix s = random_sensors(n, t, seed++);
      expect_every_path_matches_reference(common::MatrixView{s});
    }
  }
}

TEST(ShiftedCorrelationProperty, TiledBitIdenticalOnDegenerateRows) {
  // Constant rows (sd = 0) and near-duplicate rows exercise the guarded
  // branch where cov is computed but must not be used.
  common::Matrix s = random_sensors(40, 96, 7);
  for (std::size_t c = 0; c < 96; ++c) {
    s(3, c) = 5.0;              // Constant row.
    s(35, c) = 0.0;             // Constant row in the second tile.
    s(11, c) = s(4, c);         // Exact duplicate (rho = 1, clamped).
    s(12, c) = -2.0 * s(4, c);  // Exact negative multiple (rho = -1).
  }
  expect_every_path_matches_reference(common::MatrixView{s});
}

TEST(ShiftedCorrelationProperty, TiledBitIdenticalOnNonFiniteRows) {
  // A NaN gap poisons a row's mean and every product it enters; an
  // infinity does the same through inf - inf. The coefficient bytes must
  // still match, whichever lane or tile the row lands in.
  common::Matrix s = random_sensors(70, 300, 8);
  s(0, 17) = std::numeric_limits<double>::quiet_NaN();
  s(33, 0) = std::numeric_limits<double>::quiet_NaN();
  s(66, 299) = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < 300; ++c) {
    s(40, c) = std::numeric_limits<double>::quiet_NaN();  // All-NaN row.
  }
  expect_every_path_matches_reference(common::MatrixView{s});
}

TEST(ShiftedCorrelationProperty, RingWrapStraddlingViewBitIdentical) {
  // The retrain snapshot is a RingMatrix history view, which is two column
  // segments once the ring has wrapped. The kernel must produce identical
  // bytes for the wrapped view, the same view's materialised copy, and the
  // reference path.
  const std::size_t n = 37;
  const std::size_t capacity = 128;
  common::Rng rng(21);
  common::RingMatrix ring(n, capacity);
  std::vector<double> col(n);
  // 128 + 77 pushes: the retained window straddles the wrap point.
  for (std::size_t c = 0; c < capacity + 77; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = rng.gaussian();
    ring.push(col);
  }
  const common::MatrixView wrapped = ring.history_view();
  ASSERT_EQ(wrapped.cols(), capacity);
  const common::Matrix contiguous = ring.to_matrix();
  expect_every_path_matches_reference(wrapped);
  expect_bit_identical(shifted_correlation_matrix(wrapped),
                       shifted_correlation_matrix(common::MatrixView{
                           contiguous}));
}

TEST(ShiftedCorrelationProperty, WorkspaceReuseDoesNotChangeResults) {
  // One workspace across shrinking and growing problem sizes: stale scratch
  // contents from a previous call (including the padding rows of a larger
  // panel) must never leak into a result.
  CorrelationWorkspace ws;
  const std::size_t shapes[][2] = {{48, 200}, {8, 16}, {64, 300}, {3, 5},
                                   {33, 513}, {1, 7},   {9, 300}};
  std::uint64_t seed = 400;
  for (const auto& shape : shapes) {
    const common::Matrix s = random_sensors(shape[0], shape[1], seed++);
    expect_every_path_matches_reference(common::MatrixView{s}, &ws);
  }
}

TEST(ShiftedCorrelationProperty, CancelledTokenThrows) {
  const common::Matrix s = random_sensors(16, 64, 3);
  CorrelationWorkspace ws;
  common::CancelToken cancel;
  cancel.cancel();
  EXPECT_THROW(
      shifted_correlation_matrix(common::MatrixView{s}, ws, &cancel),
      common::OperationCancelled);
  for (const common::Isa isa : kernel_paths()) {
    EXPECT_THROW(shifted_correlation_matrix_with(isa, common::MatrixView{s},
                                                 ws, &cancel),
                 common::OperationCancelled)
        << common::isa_name(isa);
  }
}

TEST(ShiftedCorrelationProperty, UnavailablePathThrows) {
  const common::Matrix s = random_sensors(4, 8, 5);
  CorrelationWorkspace ws;
  EXPECT_THROW(shifted_correlation_matrix_with(common::Isa::kPclmul,
                                               common::MatrixView{s}, ws),
               std::invalid_argument);
  for (const common::Isa isa : {common::Isa::kAvx2, common::Isa::kAvx512f}) {
    if (!common::cpu_has(isa)) {
      EXPECT_THROW(
          shifted_correlation_matrix_with(isa, common::MatrixView{s}, ws),
          std::invalid_argument);
    }
  }
}

TEST(GlobalCoefficients, CorrelatedGroupScoresHigher) {
  // Three correlated rows plus one pure-noise row: the noise row must have
  // the lowest global coefficient.
  common::Rng rng(13);
  common::Matrix s(4, 300);
  for (std::size_t c = 0; c < 300; ++c) {
    const double base = std::sin(0.1 * static_cast<double>(c));
    s(0, c) = base + 0.01 * rng.gaussian();
    s(1, c) = 2.0 * base + 0.01 * rng.gaussian();
    s(2, c) = base + 0.5 + 0.01 * rng.gaussian();
    s(3, c) = rng.gaussian();
  }
  const auto g = global_coefficients(shifted_correlation_matrix(s));
  EXPECT_LT(g[3], g[0]);
  EXPECT_LT(g[3], g[1]);
  EXPECT_LT(g[3], g[2]);
}

}  // namespace
}  // namespace csm::stats
