#include "common/ring_matrix.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace csm::common {
namespace {

std::vector<double> col_of(double base, std::size_t rows) {
  std::vector<double> v(rows);
  std::iota(v.begin(), v.end(), base);
  return v;
}

TEST(RingMatrix, ConstructionValidation) {
  EXPECT_THROW(RingMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(RingMatrix(4, 0), std::invalid_argument);
  const RingMatrix ring(3, 5);
  EXPECT_EQ(ring.rows(), 3u);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
}

TEST(RingMatrix, PushValidatesColumnLength) {
  RingMatrix ring(3, 4);
  EXPECT_THROW(ring.push(col_of(0, 2)), std::invalid_argument);
  EXPECT_THROW(ring.push(col_of(0, 4)), std::invalid_argument);
}

TEST(RingMatrix, LogicalOrderBeforeWrap) {
  RingMatrix ring(2, 4);
  for (double k = 0; k < 3; ++k) ring.push(col_of(10 * k, 2));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.column(0)[0], 0.0);
  EXPECT_EQ(ring.column(1)[0], 10.0);
  EXPECT_EQ(ring.column(2)[1], 21.0);
  EXPECT_EQ(ring.newest()[0], 20.0);
  EXPECT_EQ(ring.newest(2)[0], 0.0);
}

TEST(RingMatrix, OverwritesOldestAfterWrap) {
  RingMatrix ring(2, 3);
  for (double k = 0; k < 5; ++k) ring.push(col_of(10 * k, 2));
  // Pushed 0,10,20,30,40; capacity 3 keeps 20,30,40.
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.column(0)[0], 20.0);
  EXPECT_EQ(ring.column(1)[0], 30.0);
  EXPECT_EQ(ring.column(2)[0], 40.0);
}

TEST(RingMatrix, PushSlotWritesInPlace) {
  RingMatrix ring(3, 2);
  std::span<double> slot = ring.push_slot();
  for (std::size_t r = 0; r < 3; ++r) slot[r] = static_cast<double>(r);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.newest()[2], 2.0);
}

TEST(RingMatrix, CopyLatestAcrossWrapBoundary) {
  RingMatrix ring(2, 3);
  for (double k = 0; k < 5; ++k) ring.push(col_of(10 * k, 2));
  Matrix out(2, 2);
  ring.copy_latest(2, out);  // The two newest columns: 30, 40.
  EXPECT_EQ(out(0, 0), 30.0);
  EXPECT_EQ(out(1, 0), 31.0);
  EXPECT_EQ(out(0, 1), 40.0);
  EXPECT_EQ(out(1, 1), 41.0);
}

TEST(RingMatrix, CopyLatestValidation) {
  RingMatrix ring(2, 3);
  ring.push(col_of(0, 2));
  Matrix out(2, 2);
  EXPECT_THROW(ring.copy_latest(2, out), std::invalid_argument);  // size 1.
  ring.push(col_of(1, 2));
  Matrix bad(3, 2);
  EXPECT_THROW(ring.copy_latest(2, bad), std::invalid_argument);
  EXPECT_NO_THROW(ring.copy_latest(2, out));
}

TEST(RingMatrix, ToMatrixMatchesLogicalOrder) {
  RingMatrix ring(2, 3);
  for (double k = 0; k < 4; ++k) ring.push(col_of(10 * k, 2));
  const Matrix m = ring.to_matrix();
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 0), 10.0);
  EXPECT_EQ(m(0, 1), 20.0);
  EXPECT_EQ(m(0, 2), 30.0);
}

TEST(RingMatrix, ClearKeepsCapacity) {
  RingMatrix ring(2, 3);
  for (double k = 0; k < 4; ++k) ring.push(col_of(k, 2));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
  ring.push(col_of(7, 2));
  EXPECT_EQ(ring.column(0)[0], 7.0);
}

TEST(RingMatrix, LatestViewIsOneSegmentBeforeWrap) {
  RingMatrix ring(3, 6);
  for (double k = 0; k < 5; ++k) ring.push(col_of(10 * k, 3));
  const MatrixView view = ring.latest_view(4);
  EXPECT_EQ(view.rows(), 3u);
  EXPECT_EQ(view.cols(), 4u);
  EXPECT_EQ(view.n_col_segments(), 1u);
  // Zero-copy: the first viewed column aliases logical column 1's slot.
  EXPECT_EQ(view.col(0).data(), ring.column(1).data());
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(view(0, c), 10.0 * static_cast<double>(c + 1));
  }
}

TEST(RingMatrix, LatestViewSplitsAcrossWrapBoundary) {
  RingMatrix ring(2, 4);
  for (double k = 0; k < 6; ++k) ring.push(col_of(k, 2));  // Keeps 2..5.
  const MatrixView view = ring.latest_view(4);
  EXPECT_EQ(view.n_col_segments(), 2u);
  Matrix expected(2, 4);
  ring.copy_latest(4, expected);
  EXPECT_EQ(Matrix(view), expected);
  // The two segments alias ring storage on both sides of the wrap.
  EXPECT_EQ(view.col(0).data(), ring.column(0).data());
  EXPECT_EQ(view.col(3).data(), ring.column(3).data());
}

TEST(RingMatrix, HistoryViewMatchesToMatrix) {
  RingMatrix ring(3, 5);
  for (double k = 0; k < 13; ++k) ring.push(col_of(k, 3));
  EXPECT_EQ(Matrix(ring.history_view()), ring.to_matrix());
}

TEST(RingMatrix, LatestViewValidation) {
  RingMatrix ring(2, 3);
  ring.push(col_of(0, 2));
  EXPECT_THROW((void)ring.latest_view(2), std::invalid_argument);
  EXPECT_TRUE(ring.latest_view(0).empty());
}

TEST(RingMatrix, LongStreamNeverReallocates) {
  RingMatrix ring(4, 8);
  ring.push(col_of(0, 4));
  const double* storage = ring.column(0).data();
  bool same_block = true;
  for (double k = 1; k < 1000; ++k) {
    ring.push(col_of(k, 4));
    const double* p = ring.newest().data();
    same_block = same_block && p >= storage && p < storage + 4 * 8;
  }
  EXPECT_TRUE(same_block);
  EXPECT_EQ(ring.newest()[0], 999.0);
}

}  // namespace
}  // namespace csm::common
