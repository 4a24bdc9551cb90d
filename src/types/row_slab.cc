#include "src/types/row_slab.h"

#include <iterator>
#include <string>
#include <utility>

namespace dipbench {

RowSlab::RowSlab(RowSlab&& other) noexcept
    : width_(other.width_),
      size_(std::exchange(other.size_, 0)),
      cells_(std::move(other.cells_)) {}

RowSlab& RowSlab::operator=(RowSlab&& other) noexcept {
  if (this != &other) {
    width_ = other.width_;
    size_ = std::exchange(other.size_, 0);
    cells_ = std::move(other.cells_);
    other.cells_.clear();
  }
  return *this;
}

Result<RowSlab> RowSlab::FromRows(const std::vector<Row>& rows) {
  RowSlab slab(rows.empty() ? 0 : rows.front().size());
  slab.reserve(rows.size());
  for (const Row& row : rows) DIP_RETURN_NOT_OK(slab.Append(row));
  return slab;
}

Status RowSlab::AdoptWidth(size_t width) {
  if (width == width_) return Status::OK();
  if (size_ != 0 || width_ != 0) {
    return Status::TypeMismatch("row width " + std::to_string(width) +
                                " != slab width " + std::to_string(width_));
  }
  width_ = width;
  return Status::OK();
}

Status RowSlab::Append(RowView row) {
  DIP_RETURN_NOT_OK(AdoptWidth(row.size()));
  cells_.insert(cells_.end(), row.begin(), row.end());
  ++size_;
  return Status::OK();
}

Status RowSlab::AppendMoved(MutableRowView row) {
  DIP_RETURN_NOT_OK(AdoptWidth(row.size()));
  cells_.insert(cells_.end(), std::make_move_iterator(row.begin()),
                std::make_move_iterator(row.end()));
  ++size_;
  return Status::OK();
}

Status RowSlab::Append(RowSlab&& other) {
  if (other.empty()) return Status::OK();
  DIP_RETURN_NOT_OK(AdoptWidth(other.width_));
  if (empty()) {
    *this = std::move(other);
    return Status::OK();
  }
  cells_.insert(cells_.end(), std::make_move_iterator(other.cells_.begin()),
                std::make_move_iterator(other.cells_.end()));
  size_ += other.size_;
  other.clear();
  return Status::OK();
}

}  // namespace dipbench
