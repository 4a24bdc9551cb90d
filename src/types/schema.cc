#include "src/types/schema.h"

#include <unordered_set>

#include "src/common/string_util.h"

namespace dipbench {

Schema& Schema::SetPrimaryKey(const std::vector<std::string>& names) {
  primary_key_.clear();
  for (const auto& n : names) {
    auto idx = IndexOf(n);
    if (idx.has_value()) primary_key_.push_back(*idx);
  }
  return *this;
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

Result<size_t> Schema::RequireIndexOf(const std::string& name) const {
  auto idx = IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound("no such column: " + name);
  }
  return *idx;
}

Status Schema::Validate() const {
  std::unordered_set<std::string> seen;
  for (const auto& c : columns_) {
    if (c.name.empty()) return Status::InvalidArgument("empty column name");
    if (!seen.insert(c.name).second) {
      return Status::InvalidArgument("duplicate column: " + c.name);
    }
  }
  for (size_t idx : primary_key_) {
    if (idx >= columns_.size()) {
      return Status::InvalidArgument("primary key index out of range");
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const auto& c : columns_) {
    parts.push_back(c.name + std::string(":") + DataTypeToString(c.type));
  }
  return "(" + StrJoin(parts, ", ") + ")";
}

size_t HashRow(RowView row) {
  size_t h = 0x345678;
  for (const auto& v : row) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

size_t HashRowKey(RowView row, const std::vector<size_t>& key_indexes) {
  size_t h = 0x345678;
  for (size_t i : key_indexes) {
    h = h * 1000003 ^ (i < row.size() ? row[i].Hash() : 0);
  }
  return h;
}

bool RowsEqual(RowView a, RowView b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

void AppendRowKeyString(RowView row, const std::vector<size_t>& key_indexes,
                        std::string* out) {
  for (size_t i = 0; i < key_indexes.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(row[key_indexes[i]].ToString());
  }
}

std::string RowToString(RowView row) {
  std::vector<std::string> parts;
  parts.reserve(row.size());
  for (const auto& v : row) parts.push_back(v.ToString());
  return StrJoin(parts, ",");
}

}  // namespace dipbench
