#ifndef DIPBENCH_TYPES_ROW_SLAB_H_
#define DIPBENCH_TYPES_ROW_SLAB_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/types/value.h"

namespace dipbench {

/// A lone tuple: one Value per schema column, in its own heap block. Rows
/// do not carry their schema; the containing table / operator provides it.
/// Keys, group keys and single parsed rows use it; stored rows live in a
/// RowSlab.
using Row = std::vector<Value>;

/// A row's cells in place, read-only. A Row converts to one.
using RowView = std::span<const Value>;
/// A row's cells in place, assignable.
using MutableRowView = std::span<Value>;

/// Rows of one width stored back to back: row i is cells
/// [i * width, (i + 1) * width) of one vector, so a row costs no heap
/// block of its own. Rows are handed out as views into that vector.
///
/// A view, or a pointer to a row's first cell, stays valid until the slab
/// grows (an append or reserve may move every cell), is cleared or is
/// destroyed. Moving the slab moves the block itself, so views into it
/// stay valid.
///
/// The width is set by the constructor or Reset(); a slab of width 0 that
/// holds no rows takes the width of the first row appended to it. Any
/// other row of another width is rejected with TypeMismatch.
class RowSlab {
 public:
  RowSlab() = default;
  explicit RowSlab(size_t width) : width_(width) {}
  /// The rows, in order, in one slab; fails when their widths differ.
  static Result<RowSlab> FromRows(const std::vector<Row>& rows);

  RowSlab(const RowSlab&) = default;
  RowSlab& operator=(const RowSlab&) = default;
  /// Moves leave `other` empty, at its width.
  RowSlab(RowSlab&& other) noexcept;
  RowSlab& operator=(RowSlab&& other) noexcept;

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  RowView operator[](size_t i) const {
    return RowView(cells_.data() + i * width_, width_);
  }
  MutableRowView operator[](size_t i) {
    return MutableRowView(cells_.data() + i * width_, width_);
  }
  /// Every cell, row after row.
  std::span<const Value> cells() const { return cells_; }

  /// Appends a copy of `row`, which must not point into this slab.
  Status Append(RowView row);
  Status Append(std::initializer_list<Value> row) {
    return Append(RowView(row.begin(), row.size()));
  }
  /// Appends `row`, moving its cells out (each is left NULL).
  Status AppendMoved(MutableRowView row);
  /// Appends every row of `other`, moving its cells, and leaves `other`
  /// empty. An empty slab takes over `other`'s block whole.
  Status Append(RowSlab&& other);
  /// Readies the slab for rows of `width` cells: OK when that is its
  /// width, or when it is empty at width 0 (it takes `width`);
  /// TypeMismatch otherwise.
  Status AdoptWidth(size_t width);
  /// Appends one row of NULL cells at the slab's width, to be filled in
  /// through the returned view.
  MutableRowView AppendRow() {
    cells_.resize(cells_.size() + width_);
    ++size_;
    return (*this)[size_ - 1];
  }

  /// Capacity for `rows` rows in all.
  void reserve(size_t rows) { cells_.reserve(rows * width_); }
  /// Removes every row; keeps the width and the capacity.
  void clear() {
    cells_.clear();
    size_ = 0;
  }
  /// Removes every row and sets the width; keeps the capacity.
  void Reset(size_t width) {
    clear();
    width_ = width;
  }

  /// Iteration yields one view per row, in order.
  template <typename Slab, typename View>
  class Iterator {
   public:
    Iterator(Slab* slab, size_t row) : slab_(slab), row_(row) {}
    View operator*() const { return (*slab_)[row_]; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return row_ == other.row_; }

   private:
    Slab* slab_;
    size_t row_;
  };
  using const_iterator = Iterator<const RowSlab, RowView>;
  using iterator = Iterator<RowSlab, MutableRowView>;
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }
  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }

 private:
  size_t width_ = 0;
  size_t size_ = 0;  ///< rows; kept apart so width-0 rows count too
  std::vector<Value> cells_;
};

}  // namespace dipbench

#endif  // DIPBENCH_TYPES_ROW_SLAB_H_
