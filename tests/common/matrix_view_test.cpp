#include "common/matrix_view.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/matrix.hpp"

namespace csm::common {
namespace {

Matrix counting_matrix(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>(r * 100 + c);
    }
  }
  return m;
}

// Column-major storage of the same counting pattern, split after
// `split_cols` columns.
std::pair<std::vector<double>, std::vector<double>> counting_segments(
    std::size_t rows, std::size_t cols, std::size_t split_cols) {
  std::vector<double> a, b;
  for (std::size_t c = 0; c < cols; ++c) {
    auto& dst = c < split_cols ? a : b;
    for (std::size_t r = 0; r < rows; ++r) {
      dst.push_back(static_cast<double>(r * 100 + c));
    }
  }
  return {std::move(a), std::move(b)};
}

TEST(MatrixView, DefaultIsEmpty) {
  const MatrixView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.rows(), 0u);
  EXPECT_EQ(v.cols(), 0u);
  EXPECT_EQ(v.n_col_segments(), 0u);
}

TEST(MatrixView, WrapsRowMajorMatrix) {
  const Matrix m = counting_matrix(3, 5);
  const MatrixView v(m);
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 5u);
  EXPECT_TRUE(v.contiguous_rows());
  EXPECT_FALSE(v.contiguous_cols());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(v(r, c), m(r, c));
      EXPECT_EQ(v.at(r, c), m(r, c));
    }
  }
  // Row spans alias the matrix storage (zero-copy).
  EXPECT_EQ(v.row(1).data(), m.row(1).data());
  // col() has no contiguous storage to hand out.
  EXPECT_THROW((void)v.col(0), std::logic_error);
  std::vector<double> col(3);
  v.copy_col(4, col);
  EXPECT_EQ(col, (std::vector<double>{4.0, 104.0, 204.0}));
}

TEST(MatrixView, WrapsOneColumnSegment) {
  const auto [a, b] = counting_segments(4, 6, 6);
  const MatrixView v = MatrixView::column_segments(a, b, 4);
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_EQ(v.cols(), 6u);
  EXPECT_EQ(v.n_col_segments(), 1u);
  EXPECT_TRUE(v.contiguous_cols());
  EXPECT_FALSE(v.contiguous_rows());
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(v.col(c)[2], 200.0 + static_cast<double>(c));
  }
  EXPECT_THROW((void)v.row(0), std::logic_error);
}

TEST(MatrixView, WrapsTwoColumnSegments) {
  const auto [a, b] = counting_segments(4, 7, 3);
  const MatrixView v = MatrixView::column_segments(a, b, 4);
  EXPECT_EQ(v.cols(), 7u);
  EXPECT_EQ(v.n_col_segments(), 2u);
  EXPECT_EQ(v.col_segment(0).n_cols, 3u);
  EXPECT_EQ(v.col_segment(1).first_col, 3u);
  const Matrix expected = counting_matrix(4, 7);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_EQ(v(r, c), expected(r, c)) << r << "," << c;
    }
  }
  // col() spans stay contiguous on both sides of the split.
  EXPECT_EQ(v.col(2).data(), a.data() + 2 * 4);
  EXPECT_EQ(v.col(3).data(), b.data());
}

TEST(MatrixView, RowGatherMatchesAcrossLayouts) {
  const auto [a, b] = counting_segments(3, 8, 5);
  const MatrixView segmented = MatrixView::column_segments(a, b, 3);
  const Matrix m = counting_matrix(3, 8);
  const MatrixView row_major(m);
  std::vector<double> scratch;
  for (std::size_t r = 0; r < 3; ++r) {
    const auto gathered = segmented.row(r, scratch);
    const auto direct = row_major.row(r, scratch);  // No-copy fast path...
    EXPECT_EQ(direct.data(), m.row(r).data());      // ...aliasing the row.
    ASSERT_EQ(gathered.size(), 8u);
    for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(gathered[c], m(r, c));
  }
}

TEST(MatrixView, MaterializeReproducesBothLayouts) {
  // Matrix(const MatrixView&) is the owning copy of either layout.
  const Matrix m = counting_matrix(5, 9);
  EXPECT_EQ(Matrix(MatrixView(m)), m);
  const auto [a, b] = counting_segments(5, 9, 4);
  EXPECT_EQ(Matrix(MatrixView::column_segments(a, b, 5)), m);
  std::vector<double> whole(a);
  whole.insert(whole.end(), b.begin(), b.end());
  const MatrixView one = MatrixView::column_major(whole.data(), 5, 9);
  EXPECT_EQ(one.n_col_segments(), 1u);
  EXPECT_EQ(Matrix(one), m);
}

TEST(MatrixView, ColumnMajorKeepsColumnsOfAnEmptyShape) {
  // A zero-row batch still declares its column count (column_segments
  // cannot: it derives cols from the segment sizes).
  const MatrixView v = MatrixView::column_major(nullptr, 0, 7);
  EXPECT_EQ(v.rows(), 0u);
  EXPECT_EQ(v.cols(), 7u);
  const Matrix m(v);
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 7u);
}

TEST(MatrixView, CopyColAgreesAcrossLayouts) {
  // push_all fills ring slots through copy_col from either layout.
  const Matrix m = counting_matrix(4, 6);
  const auto [a, b] = counting_segments(4, 6, 2);
  for (const MatrixView& v :
       {MatrixView(m), MatrixView::column_segments(a, b, 4)}) {
    std::vector<double> col(4);
    for (std::size_t c = 0; c < 6; ++c) {
      v.copy_col(c, col);
      for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(col[r], m(r, c));
    }
    std::vector<double> wrong(5);
    EXPECT_THROW(v.copy_col(0, wrong), std::invalid_argument);
    EXPECT_THROW(v.copy_col(6, col), std::out_of_range);
  }
}

TEST(MatrixView, AtThrowsOutOfRange) {
  const Matrix m = counting_matrix(2, 3);
  const MatrixView v(m);
  EXPECT_THROW((void)v.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)v.at(0, 3), std::out_of_range);
}

TEST(MatrixView, RejectsRaggedSegments) {
  const std::vector<double> five(5, 1.0);
  EXPECT_THROW((void)MatrixView::column_segments(five, {}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)MatrixView::column_segments({}, five, 4),
               std::invalid_argument);
  EXPECT_THROW((void)MatrixView::column_segments(five, {}, 0),
               std::invalid_argument);
}

TEST(MatrixView, LeadingEmptySegmentIsNormalised) {
  const auto [a, b] = counting_segments(2, 4, 0);  // All columns in b.
  const MatrixView v = MatrixView::column_segments(a, b, 2);
  EXPECT_EQ(v.n_col_segments(), 1u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_EQ(v(1, 3), 103.0);
}

}  // namespace
}  // namespace csm::common
