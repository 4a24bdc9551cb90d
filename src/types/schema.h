#ifndef DIPBENCH_TYPES_SCHEMA_H_
#define DIPBENCH_TYPES_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/types/row_slab.h"
#include "src/types/value.h"

namespace dipbench {

/// A single column definition.
struct Column {
  std::string name;
  DataType type = DataType::kNull;
  bool nullable = true;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type &&
           nullable == other.nullable;
  }
};

/// An ordered list of columns plus an optional primary key (column indexes).
/// Schemas are value types — cheap to copy for the table sizes this
/// benchmark uses — and are shared by tables, result sets and messages.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns,
                  std::vector<size_t> primary_key = {})
      : columns_(std::move(columns)), primary_key_(std::move(primary_key)) {}

  /// Builder-style helpers.
  Schema& AddColumn(std::string name, DataType type, bool nullable = true) {
    columns_.push_back(Column{std::move(name), type, nullable});
    return *this;
  }
  /// Declares the primary key by column names. Unknown names are ignored
  /// here and caught by Validate().
  Schema& SetPrimaryKey(const std::vector<std::string>& names);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<size_t>& primary_key() const { return primary_key_; }

  /// Index of the named column, or nullopt.
  std::optional<size_t> IndexOf(const std::string& name) const;
  /// Index of the named column, or an error mentioning the name.
  Result<size_t> RequireIndexOf(const std::string& name) const;

  bool HasColumn(const std::string& name) const {
    return IndexOf(name).has_value();
  }

  /// Checks column-name uniqueness and primary-key index validity.
  Status Validate() const;

  bool operator==(const Schema& other) const {
    return columns_ == other.columns_ && primary_key_ == other.primary_key_;
  }

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
  std::vector<size_t> primary_key_;
};

/// Hash of a full row (order-sensitive), consistent with Value::Hash.
/// HashRow of the cells of `row` at `key_indexes` equals
/// HashRowKey(row, key_indexes), so a key given as its own cells hashes
/// like the key columns of a row holding it.
size_t HashRow(RowView row);

/// Hash of selected row fields (for join keys and DISTINCT keys).
size_t HashRowKey(RowView row, const std::vector<size_t>& key_indexes);

/// Field-wise equality via Value::Compare.
bool RowsEqual(RowView a, RowView b);

/// Renders a row as comma-separated values.
std::string RowToString(RowView row);

/// Appends selected row fields to *out, rendered exactly like RowToString
/// of a row holding just those fields (key messages, serialized GROUP BY
/// keys).
void AppendRowKeyString(RowView row, const std::vector<size_t>& key_indexes,
                        std::string* out);

}  // namespace dipbench

#endif  // DIPBENCH_TYPES_SCHEMA_H_
