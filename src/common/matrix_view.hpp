// Zero-copy, read-only view over an n_sensors x cols window of sensor data.
//
// Sensor data lives in two layouts, and this view reads either one without
// assembling a temporary matrix first:
//
//  * a row-major common::Matrix block (the offline path: rows are contiguous,
//    columns are strided), or
//  * one or two contiguous column segments: a sample batch as it arrives
//    (a CSMR recording batch or a kSampleBatch payload, both column-major
//    on the wire), or a common::RingMatrix window (each column is a
//    contiguous slot; a window that straddles the ring's wrap point splits
//    into exactly two segments).
//
// Column-major is the layout a batch keeps from the wire to the ring: a
// replayed or decoded batch is viewed in place, and MethodStream::push_all
// fills each ring slot with copy_col, one contiguous copy per column.
//
// The view never owns storage and is trivially copyable; it is valid only as
// long as the viewed storage is alive and unmodified (for a RingMatrix, any
// push may recycle viewed slots). Callers that need an owning row-major copy
// construct a common::Matrix from the view (the conversion is implicit).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace csm::common {

/// Non-owning const view over rows x cols doubles in one of two layouts.
class MatrixView {
 public:
  /// Empty view (rows() == cols() == 0).
  MatrixView() = default;

  /// Views a row-major matrix. Implicit on purpose: every Matrix-taking
  /// compute API accepts the matrix unchanged through this conversion.
  MatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : rows_(m.rows()), cols_(m.cols()), seg0_(m.data()) {}

  /// Views `rows` x `cols` doubles of row-major storage at `data`.
  static MatrixView row_major(const double* data, std::size_t rows,
                              std::size_t cols);

  /// Views `rows` x `cols` doubles of column-major storage at `data` (one
  /// column segment). Unlike column_segments, keeps `cols` when rows == 0.
  static MatrixView column_major(const double* data, std::size_t rows,
                                 std::size_t cols);

  /// Views one or two contiguous column-major segments (each segment holds
  /// whole `rows`-element columns back to back; `second` may be empty).
  /// This is how RingMatrix exposes windows that straddle its wrap point.
  /// Throws std::invalid_argument if a segment size is not a multiple of
  /// `rows`, or if rows == 0 while a segment is non-empty.
  static MatrixView column_segments(std::span<const double> first,
                                    std::span<const double> second,
                                    std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// True when row(r) returns a direct span (row-major backing).
  bool contiguous_rows() const noexcept { return !column_major_; }
  /// True when col(c) returns a direct span (column-segment backing).
  bool contiguous_cols() const noexcept { return column_major_; }

  /// Unchecked element access.
  double operator()(std::size_t r, std::size_t c) const noexcept {
    if (!column_major_) return seg0_[r * cols_ + c];
    return c < seg0_cols_ ? seg0_[c * rows_ + r]
                          : seg1_[(c - seg0_cols_) * rows_ + r];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  double at(std::size_t r, std::size_t c) const;

  /// Contiguous span over column `c`. Throws std::logic_error when the
  /// backing is row-major (columns are strided there); check
  /// contiguous_cols() or use copy_col().
  std::span<const double> col(std::size_t c) const;

  /// Contiguous span over row `r`. Throws std::logic_error when the backing
  /// is column segments; check contiguous_rows() or use the scratch
  /// overload.
  std::span<const double> row(std::size_t r) const;

  /// Row `r` as a contiguous span in any layout: the backing row when
  /// row-major, otherwise gathered into `scratch` (resized to cols()).
  std::span<const double> row(std::size_t r,
                              std::vector<double>& scratch) const;

  /// Copies column `c` into `out` (out.size() must equal rows()): one
  /// contiguous copy from column segments, a strided gather from row-major
  /// backing.
  void copy_col(std::size_t c, std::span<double> out) const;

  /// Number of contiguous column segments: 0 for row-major backing,
  /// otherwise 1 or 2.
  std::size_t n_col_segments() const noexcept {
    if (!column_major_) return 0;
    return seg0_cols_ < cols_ ? 2 : 1;
  }

  /// Column segment `k` as (data, first_col, n_cols): whole columns stored
  /// back to back starting at logical column first_col. k < n_col_segments().
  struct ColSegment {
    const double* data = nullptr;
    std::size_t first_col = 0;
    std::size_t n_cols = 0;
  };
  ColSegment col_segment(std::size_t k) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool column_major_ = false;
  const double* seg0_ = nullptr;  ///< Row-major block, or first col segment.
  const double* seg1_ = nullptr;  ///< Second col segment (may be null).
  std::size_t seg0_cols_ = 0;     ///< Columns in seg0_ (column-major only).
};

}  // namespace csm::common
