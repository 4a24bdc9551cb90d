#ifndef DIPBENCH_STORAGE_TABLE_H_
#define DIPBENCH_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/key_index.h"
#include "src/types/schema.h"

namespace dipbench {

/// An in-memory row-store table.
///
/// Rows live back to back in one append-only cell slab, with tombstones; a
/// flat hash index over the primary key (when the schema declares one)
/// enforces uniqueness and serves point lookups. Keys are hashed
/// (HashRowKey) and compared (Value::Compare per key column) in place in
/// the rows; no key row is built. Secondary hash indexes can be added per
/// column set. Rows are handed out as views into the slab, valid until the
/// table is next mutated. The table counts rows read/written so callers
/// (the simulated external systems) can derive deterministic processing
/// costs.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of live rows.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Validates arity/types against the schema and checks primary-key
  /// uniqueness, then copies the cells in. Returns AlreadyExists on a
  /// duplicate key. `row` must not point into this table.
  Status Insert(RowView row);
  Status Insert(std::initializer_list<Value> row) {
    return Insert(RowView(row.begin(), row.size()));
  }

  /// Insert, replacing any existing row with the same primary key.
  Status InsertOrReplace(RowView row);
  Status InsertOrReplace(std::initializer_list<Value> row) {
    return InsertOrReplace(RowView(row.begin(), row.size()));
  }

  /// Borrowed point lookup by primary-key values (one Value per PK column,
  /// in schema PK order): the live row, or an empty view when no row has
  /// the key. Errors (no primary key, wrong key arity) charge nothing; a
  /// hit or a miss charges one rows_read(). The view stays valid until the
  /// table is mutated.
  Result<RowView> FindByKeyRef(RowView key) const;

  /// Deletes rows matching `pred`; returns how many were removed.
  size_t DeleteWhere(const std::function<bool(RowView)>& pred);
  /// Removes all rows (keeps schema, indexes, the slab's capacity and the
  /// IO counters).
  void Clear();

  /// In-place update of rows matching `pred`. The updater assigns the
  /// row's cells; primary-key columns must not change (enforced). Atomic
  /// per row: a row the updater leaves invalid (schema violation or
  /// changed key) is restored as it was, with its index entries, and the
  /// error returned; rows updated before it stay updated. Returns rows
  /// updated.
  Result<size_t> UpdateWhere(const std::function<bool(RowView)>& pred,
                             const std::function<void(MutableRowView)>& update);

  /// Visits every live row in insertion order.
  void ForEach(const std::function<void(RowView)>& fn) const;

  /// Forward cursor over live rows (insertion order). Delivers rows in
  /// caller-sized chunks instead of materializing the whole table up front;
  /// bumps rows_read() per delivered row exactly like ForEach/ScanAll.
  /// Mutating the table mid-scan invalidates the cursor.
  class ScanCursor {
   public:
    explicit ScanCursor(const Table* table) : table_(table) {}

    /// Appends pointers to the first cells of up to `max_rows` live rows
    /// (each row schema().num_columns() cells wide) to `*out`; returns the
    /// number appended (0 = end of scan). The pointers stay valid until
    /// the table is mutated.
    size_t NextBatchRefs(std::vector<const Value*>* out, size_t max_rows);

   private:
    const Table* table_;
    size_t slot_ = 0;
  };
  ScanCursor Scan() const { return ScanCursor(this); }

  /// Copies all live rows out (insertion order), charging one rows_read()
  /// per row.
  RowSlab ScanAll() const;

  /// Creates a named secondary (non-unique) hash index over the given
  /// columns. Existing rows are indexed immediately.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& columns);

  /// Hands each live row whose indexed columns equal `key` (one Value per
  /// index column) to `fn`, charging one rows_read() per row. The views
  /// are valid only during the call.
  Status LookupIndex(const std::string& index_name, RowView key,
                     const std::function<void(RowView)>& fn) const;

  /// Cumulative IO counters (monotone; survive Clear()).
  uint64_t rows_read() const { return rows_read_; }
  uint64_t rows_written() const { return rows_written_; }

 private:
  struct SecondaryIndex {
    std::vector<size_t> columns;
    std::unordered_multimap<size_t, size_t> map;  // key hash -> slot
  };

  Status CheckRow(RowView row) const;
  // HashRowKey over the primary-key columns; 0 without a primary key.
  size_t PkHash(RowView row) const;
  // Whether two rows agree on every primary-key column (Value::Compare).
  bool SameKey(RowView a, RowView b) const;
  // The primary-key cells rendered like RowToString (error messages).
  std::string KeyString(RowView row) const;
  // Slot of the live row with these primary-key cells, or kNotFound.
  size_t FindSlotByKey(RowView key) const;
  // Slot of the live row whose primary key equals `row`'s, or kNotFound
  // (always without a primary key: the index stays empty).
  size_t FindSlotOfRow(RowView row, size_t pk_hash) const;
  // Appends a checked row and indexes it under `pk_hash`.
  Status AppendAndIndex(RowView row, size_t pk_hash);
  void UnindexRow(size_t slot);
  // Secondary index entries of `row`, stored at `slot`.
  void IndexSecondary(RowView row, size_t slot);
  void UnindexSecondary(RowView row, size_t slot);

  std::string name_;
  Schema schema_;
  RowSlab rows_;  ///< every slot's cells, live or not
  std::vector<bool> live_;
  size_t live_count_ = 0;
  // Primary-key hash -> slot of the live row; empty without a primary key.
  KeyIndex pk_index_;
  std::unordered_map<std::string, SecondaryIndex> secondary_;
  mutable uint64_t rows_read_ = 0;
  uint64_t rows_written_ = 0;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_TABLE_H_
