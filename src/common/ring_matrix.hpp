// Fixed-capacity ring buffer of matrix columns.
//
// Streaming consumers (core::MethodStream, core::StreamEngine) keep the last
// `capacity` sensor columns of a live stream. A naive
// std::vector<std::vector<double>> history pays one heap allocation per push
// and an O(capacity) erase-front once full, which makes the per-sample cost
// grow with the history length. RingMatrix stores all columns in one
// contiguous rows x capacity block (column-major by slot) with a head index:
// pushing is an O(rows) copy into a recycled slot, no allocation and no
// shifting, so per-push cost is independent of the history length. Memory is
// bounded at exactly rows * capacity doubles for the life of the buffer.
//
// Logical column 0 is always the oldest retained column and
// size() - 1 the newest; the physical wrap-around is hidden behind
// column()/newest(). Columns are contiguous spans, so window assembly can
// copy whole columns instead of gathering element by element.
#pragma once

#include <cstddef>
#include <span>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"

namespace csm::common {

/// Ring buffer of `rows`-element columns with fixed capacity.
class RingMatrix {
 public:
  RingMatrix() = default;

  /// Creates an empty buffer for `rows` x `capacity` doubles. Throws
  /// std::invalid_argument if either dimension is zero.
  RingMatrix(std::size_t rows, std::size_t capacity);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Number of columns currently retained (<= capacity()).
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }
  /// Total columns ever pushed (size() until the first overwrite).
  std::size_t pushed() const noexcept { return pushed_; }

  /// Appends a copy of `column` (length must equal rows()), overwriting the
  /// oldest column when full. Never allocates.
  void push(std::span<const double> column);

  /// Advances the ring and returns a writable span over the new newest
  /// column (recycled storage, previous contents unspecified). Lets callers
  /// gather strided sources straight into the buffer without a temporary.
  std::span<double> push_slot() noexcept;

  /// View of logical column `i` (0 = oldest retained, size()-1 = newest).
  /// No bounds check; `i` must be < size().
  std::span<const double> column(std::size_t i) const noexcept {
    return {data_.data() + slot_of(i) * rows_, rows_};
  }

  /// View of the `back`-th newest column (0 = newest). `back` < size().
  std::span<const double> newest(std::size_t back = 0) const noexcept {
    return column(size_ - 1 - back);
  }

  /// Copies the newest `n_cols` logical columns into `out`, which must be a
  /// rows() x n_cols matrix; out(r, c) gets column(size()-n_cols+c)[r].
  /// Throws std::invalid_argument on shape mismatch or n_cols > size().
  void copy_latest(std::size_t n_cols, Matrix& out) const;

  /// Zero-copy view over the newest `n_cols` logical columns: one contiguous
  /// column segment, or two when the window straddles the wrap point. The
  /// view is invalidated by the next push (slots are recycled). Throws
  /// std::invalid_argument if n_cols > size().
  MatrixView latest_view(std::size_t n_cols) const;

  /// Zero-copy view over the whole retained history, oldest to newest —
  /// the view-typed counterpart of to_matrix() (e.g. for a retraining
  /// pass). Invalidated by the next push.
  MatrixView history_view() const { return latest_view(size_); }

  /// Materialises the whole retained history, oldest to newest, as a
  /// rows() x size() matrix (e.g. for a retraining pass).
  Matrix to_matrix() const;

  /// Forgets all retained columns (capacity and storage are kept).
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
    pushed_ = 0;
  }

 private:
  // Physical slot of logical column i: the ring starts at `head_` once full.
  std::size_t slot_of(std::size_t i) const noexcept {
    const std::size_t start = size_ == capacity_ ? head_ : 0;
    const std::size_t s = start + i;
    return s >= capacity_ ? s - capacity_ : s;
  }

  std::size_t rows_ = 0;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< Next physical slot to write.
  std::size_t size_ = 0;
  std::size_t pushed_ = 0;
  std::vector<double> data_;
};

}  // namespace csm::common
