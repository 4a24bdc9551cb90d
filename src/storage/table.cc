#include "src/storage/table.h"

#include <algorithm>
#include <utility>

namespace dipbench {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      rows_(schema_.num_columns()) {}

Status Table::CheckRow(RowView row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::TypeMismatch(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema_.column(i);
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("NULL in non-nullable column " +
                                           col.name + " of " + name_);
      }
      continue;
    }
    if (row[i].type() != col.type) {
      // Allow int->double widening transparently? No: enforce strictness so
      // schema mismatches surface in tests. Callers cast explicitly.
      return Status::TypeMismatch("column " + col.name + " of " + name_ +
                                  " expects " + DataTypeToString(col.type) +
                                  ", got " + DataTypeToString(row[i].type()));
    }
  }
  return Status::OK();
}

size_t Table::PkHash(RowView row) const {
  const std::vector<size_t>& pk = schema_.primary_key();
  return pk.empty() ? 0 : HashRowKey(row, pk);
}

bool Table::SameKey(RowView a, RowView b) const {
  for (size_t c : schema_.primary_key()) {
    if (a[c].Compare(b[c]) != 0) return false;
  }
  return true;
}

std::string Table::KeyString(RowView row) const {
  std::string out;
  AppendRowKeyString(row, schema_.primary_key(), &out);
  return out;
}

size_t Table::FindSlotByKey(RowView key) const {
  const std::vector<size_t>& pk = schema_.primary_key();
  if (pk.empty() || key.size() != pk.size()) return KeyIndex::kNotFound;
  return pk_index_.Find(HashRow(key), [&](size_t slot) {
    RowView row = rows_[slot];
    for (size_t i = 0; i < pk.size(); ++i) {
      if (key[i].Compare(row[pk[i]]) != 0) return false;
    }
    return true;
  });
}

size_t Table::FindSlotOfRow(RowView row, size_t pk_hash) const {
  return pk_index_.Find(pk_hash,
                        [&](size_t slot) { return SameKey(rows_[slot], row); });
}

Status Table::AppendAndIndex(RowView row, size_t pk_hash) {
  const size_t slot = rows_.size();
  DIP_RETURN_NOT_OK(rows_.Append(row));
  live_.push_back(true);
  ++live_count_;
  ++rows_written_;
  if (!schema_.primary_key().empty()) pk_index_.Insert(pk_hash, slot);
  IndexSecondary(row, slot);
  return Status::OK();
}

void Table::UnindexRow(size_t slot) {
  if (!schema_.primary_key().empty()) {
    pk_index_.Erase(PkHash(rows_[slot]), slot);
  }
  UnindexSecondary(rows_[slot], slot);
}

void Table::IndexSecondary(RowView row, size_t slot) {
  for (auto& [name, idx] : secondary_) {
    idx.map.emplace(HashRowKey(row, idx.columns), slot);
  }
}

void Table::UnindexSecondary(RowView row, size_t slot) {
  for (auto& [name, idx] : secondary_) {
    auto range = idx.map.equal_range(HashRowKey(row, idx.columns));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == slot) {
        idx.map.erase(it);
        break;
      }
    }
  }
}

Status Table::Insert(RowView row) {
  DIP_RETURN_NOT_OK(CheckRow(row));
  const size_t pk_hash = PkHash(row);
  if (FindSlotOfRow(row, pk_hash) != KeyIndex::kNotFound) {
    return Status::AlreadyExists("duplicate key " + KeyString(row) + " in " +
                                 name_);
  }
  return AppendAndIndex(row, pk_hash);
}

Status Table::InsertOrReplace(RowView row) {
  DIP_RETURN_NOT_OK(CheckRow(row));
  const size_t pk_hash = PkHash(row);
  const size_t slot = FindSlotOfRow(row, pk_hash);
  if (slot != KeyIndex::kNotFound) {
    UnindexRow(slot);
    live_[slot] = false;
    --live_count_;
  }
  return AppendAndIndex(row, pk_hash);
}

Result<RowView> Table::FindByKeyRef(RowView key) const {
  if (schema_.primary_key().empty()) {
    return Status::InvalidArgument("table " + name_ + " has no primary key");
  }
  if (key.size() != schema_.primary_key().size()) {
    return Status::InvalidArgument("key arity mismatch for " + name_);
  }
  size_t slot = FindSlotByKey(key);
  ++rows_read_;
  return slot == KeyIndex::kNotFound ? RowView() : rows_[slot];
}

size_t Table::DeleteWhere(const std::function<bool(RowView)>& pred) {
  size_t removed = 0;
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ++rows_read_;
    if (pred(rows_[slot])) {
      UnindexRow(slot);
      live_[slot] = false;
      --live_count_;
      ++removed;
    }
  }
  return removed;
}

void Table::Clear() {
  rows_.clear();
  live_.clear();
  live_count_ = 0;
  pk_index_.Clear();
  for (auto& [name, idx] : secondary_) idx.map.clear();
}

Result<size_t> Table::UpdateWhere(
    const std::function<bool(RowView)>& pred,
    const std::function<void(MutableRowView)>& update) {
  const bool has_secondary = !secondary_.empty();
  size_t updated = 0;
  Row before;  // the row as it was before `update`; reused across rows
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ++rows_read_;
    MutableRowView row = rows_[slot];
    if (!pred(row)) continue;
    before.assign(row.begin(), row.end());
    update(row);
    Status st = CheckRow(row);
    if (st.ok() && !SameKey(before, row)) {
      st = Status::ConstraintViolation(
          "update must not modify primary key of " + name_);
    }
    if (!st.ok()) {
      // Put the row back as it was. Its index entries never moved: the
      // primary key is unchanged on success, and secondary entries move
      // only below.
      std::ranges::move(before, row.begin());
      return st;
    }
    if (has_secondary) {
      UnindexSecondary(before, slot);
      IndexSecondary(row, slot);
    }
    ++updated;
    ++rows_written_;
  }
  return updated;
}

void Table::ForEach(const std::function<void(RowView)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ++rows_read_;
    fn(rows_[slot]);
  }
}

size_t Table::ScanCursor::NextBatchRefs(std::vector<const Value*>* out,
                                        size_t max_rows) {
  size_t emitted = 0;
  while (slot_ < table_->rows_.size() && emitted < max_rows) {
    if (table_->live_[slot_]) {
      ++table_->rows_read_;
      out->push_back(table_->rows_[slot_].data());
      ++emitted;
    }
    ++slot_;
  }
  return emitted;
}

RowSlab Table::ScanAll() const {
  RowSlab out(rows_.width());
  out.reserve(live_count_);
  ForEach(
      [&](RowView row) { std::ranges::copy(row, out.AppendRow().begin()); });
  return out;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& columns) {
  if (secondary_.count(index_name) > 0) {
    return Status::AlreadyExists("index " + index_name + " on " + name_);
  }
  SecondaryIndex idx;
  for (const auto& c : columns) {
    DIP_ASSIGN_OR_RETURN(size_t i, schema_.RequireIndexOf(c));
    idx.columns.push_back(i);
  }
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    idx.map.emplace(HashRowKey(rows_[slot], idx.columns), slot);
  }
  secondary_.emplace(index_name, std::move(idx));
  return Status::OK();
}

Status Table::LookupIndex(const std::string& index_name, RowView key,
                          const std::function<void(RowView)>& fn) const {
  auto it = secondary_.find(index_name);
  if (it == secondary_.end()) {
    return Status::NotFound("no index " + index_name + " on " + name_);
  }
  const SecondaryIndex& idx = it->second;
  if (key.size() != idx.columns.size()) {
    return Status::InvalidArgument("index key arity mismatch");
  }
  auto range = idx.map.equal_range(HashRow(key));
  for (auto kv = range.first; kv != range.second; ++kv) {
    const size_t slot = kv->second;
    if (!live_[slot]) continue;
    RowView row = rows_[slot];
    bool match = true;
    for (size_t i = 0; i < key.size() && match; ++i) {
      match = key[i].Compare(row[idx.columns[i]]) == 0;
    }
    if (match) {
      ++rows_read_;
      fn(row);
    }
  }
  return Status::OK();
}

}  // namespace dipbench
