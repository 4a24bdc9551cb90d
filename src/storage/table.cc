#include "src/storage/table.h"

#include <cassert>
#include <utility>

namespace dipbench {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CheckRow(const Row& row) const {
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

size_t Table::PkHash(const Row& row) const {
  const std::vector<size_t>& pk = schema_.primary_key();
  return pk.empty() ? 0 : HashRowKey(row, pk);
}

bool Table::SameKey(const Row& a, const Row& b) const {
  for (size_t c : schema_.primary_key()) {
    if (a[c].Compare(b[c]) != 0) return false;
  }
  return true;
}

std::string Table::KeyString(const Row& row) const {
  std::string out;
  AppendRowKeyString(row, schema_.primary_key(), &out);
  return out;
}

size_t Table::FindSlotByKey(std::span<const Value> key) const {
  const std::vector<size_t>& pk = schema_.primary_key();
  if (pk.empty() || key.size() != pk.size()) return KeyIndex::kNotFound;
  return pk_index_.Find(HashRow(key), [&](size_t slot) {
    const Row& row = rows_[slot];
    for (size_t i = 0; i < pk.size(); ++i) {
      if (key[i].Compare(row[pk[i]]) != 0) return false;
    }
    return true;
  });
}

size_t Table::FindSlotOfRow(const Row& row, size_t pk_hash) const {
  return pk_index_.Find(pk_hash,
                        [&](size_t slot) { return SameKey(rows_[slot], row); });
}

void Table::IndexRow(size_t slot, size_t pk_hash) {
  if (!schema_.primary_key().empty()) pk_index_.Insert(pk_hash, slot);
  IndexSecondary(rows_[slot], slot);
}

void Table::UnindexRow(size_t slot) {
  if (!schema_.primary_key().empty()) {
    pk_index_.Erase(PkHash(rows_[slot]), slot);
  }
  UnindexSecondary(rows_[slot], slot);
}

void Table::IndexSecondary(const Row& row, size_t slot) {
  for (auto& [name, idx] : secondary_) {
    idx.map.emplace(HashRowKey(row, idx.columns), slot);
  }
}

void Table::UnindexSecondary(const Row& row, size_t slot) {
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

Status Table::Insert(Row row) {
  DIP_RETURN_NOT_OK(CheckRow(row));
  const size_t pk_hash = PkHash(row);
  if (FindSlotOfRow(row, pk_hash) != KeyIndex::kNotFound) {
    return Status::AlreadyExists("duplicate key " + KeyString(row) + " in " +
                                 name_);
  }
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  ++rows_written_;
  IndexRow(rows_.size() - 1, pk_hash);
  Touch();
  return Status::OK();
}

Status Table::InsertOrReplace(Row row) {
  DIP_RETURN_NOT_OK(CheckRow(row));
  const size_t pk_hash = PkHash(row);
  const size_t slot = FindSlotOfRow(row, pk_hash);
  if (slot != KeyIndex::kNotFound) {
    UnindexRow(slot);
    live_[slot] = false;
    --live_count_;
  }
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  ++rows_written_;
  IndexRow(rows_.size() - 1, pk_hash);
  Touch();
  return Status::OK();
}

Result<const Row*> Table::FindByKeyRef(std::span<const Value> key) const {
  if (schema_.primary_key().empty()) {
    return Status::InvalidArgument("table " + name_ + " has no primary key");
  }
  if (key.size() != schema_.primary_key().size()) {
    return Status::InvalidArgument("key arity mismatch for " + name_);
  }
  size_t slot = FindSlotByKey(key);
  ++rows_read_;
  const Row* found = slot == KeyIndex::kNotFound ? nullptr : &rows_[slot];
  return found;
}

Result<Row> Table::FindByKey(const Row& key) const {
  DIP_ASSIGN_OR_RETURN(const Row* found, FindByKeyRef(key));
  if (found == nullptr) {
    return Status::NotFound("key " + RowToString(key) + " not in " + name_);
  }
  return *found;
}

bool Table::ContainsKey(const Row& key) const {
  ++rows_read_;
  return FindSlotByKey(key) != KeyIndex::kNotFound;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
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
  if (removed > 0) Touch();
  return removed;
}

void Table::Clear() {
  rows_.clear();
  live_.clear();
  live_count_ = 0;
  pk_index_.Clear();
  for (auto& [name, idx] : secondary_) idx.map.clear();
  Touch();
}

Result<size_t> Table::UpdateWhere(const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& update) {
  const bool has_secondary = !secondary_.empty();
  size_t updated = 0;
  Row before;  // the row as it was before `update`; reused across rows
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ++rows_read_;
    if (!pred(rows_[slot])) continue;
    before = rows_[slot];
    update(&rows_[slot]);
    Status st = CheckRow(rows_[slot]);
    if (st.ok() && !SameKey(before, rows_[slot])) {
      st = Status::ConstraintViolation(
          "update must not modify primary key of " + name_);
    }
    if (!st.ok()) {
      // Put the row back as it was. Its index entries never moved: the
      // primary key is unchanged on success, and secondary entries move
      // only below.
      rows_[slot] = std::move(before);
      Touch();
      return st;
    }
    if (has_secondary) {
      UnindexSecondary(before, slot);
      IndexSecondary(rows_[slot], slot);
    }
    ++updated;
    ++rows_written_;
  }
  if (updated > 0) Touch();
  return updated;
}

void Table::ForEach(const std::function<void(const Row&)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ++rows_read_;
    fn(rows_[slot]);
  }
}

size_t Table::ScanCursor::NextBatch(std::vector<Row>* out, size_t max_rows) {
  size_t emitted = 0;
  while (slot_ < table_->rows_.size() && emitted < max_rows) {
    if (table_->live_[slot_]) {
      ++table_->rows_read_;
      out->push_back(table_->rows_[slot_]);
      ++emitted;
    }
    ++slot_;
  }
  return emitted;
}

size_t Table::ScanCursor::NextBatchRefs(std::vector<const Row*>* out,
                                        size_t max_rows) {
  size_t emitted = 0;
  while (slot_ < table_->rows_.size() && emitted < max_rows) {
    if (table_->live_[slot_]) {
      ++table_->rows_read_;
      out->push_back(&table_->rows_[slot_]);
      ++emitted;
    }
    ++slot_;
  }
  return emitted;
}

std::vector<Row> Table::ScanAll() const {
  std::vector<Row> out;
  out.reserve(live_count_);
  ScanCursor cursor = Scan();
  while (cursor.NextBatch(&out, live_count_ + 1) > 0) {
  }
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

Result<std::vector<Row>> Table::LookupIndex(const std::string& index_name,
                                            const Row& key) const {
  auto it = secondary_.find(index_name);
  if (it == secondary_.end()) {
    return Status::NotFound("no index " + index_name + " on " + name_);
  }
  const SecondaryIndex& idx = it->second;
  if (key.size() != idx.columns.size()) {
    return Status::InvalidArgument("index key arity mismatch");
  }
  std::vector<Row> out;
  auto range = idx.map.equal_range(HashRow(key));
  for (auto kv = range.first; kv != range.second; ++kv) {
    const size_t slot = kv->second;
    if (!live_[slot]) continue;
    const Row& row = rows_[slot];
    bool match = true;
    for (size_t i = 0; i < key.size() && match; ++i) {
      match = key[i].Compare(row[idx.columns[i]]) == 0;
    }
    if (match) {
      ++rows_read_;
      out.push_back(row);
    }
  }
  return out;
}

size_t Table::ByteSize() const {
  const uint64_t v = version();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (byte_size_version_ == v) return byte_size_cache_;
  }
  size_t total = 0;
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    for (const auto& val : rows_[slot]) total += val.ByteSize();
  }
  // Re-validate before memoizing: a mutation that landed between the
  // version read and the walk (e.g. an append-buffer flush) must not get
  // its stale total cached under the newer version.
  if (version() == v) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    byte_size_version_ = v;
    byte_size_cache_ = total;
  }
  return total;
}

}  // namespace dipbench
