#ifndef DIPBENCH_STORAGE_TABLE_H_
#define DIPBENCH_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
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
/// Rows live in an append-only vector with tombstones; a flat hash index
/// over the primary key (when the schema declares one) enforces uniqueness
/// and serves point lookups. Keys are hashed (HashRowKey) and compared
/// (Value::Compare per key column) in place in the rows; no key row is
/// built. Secondary hash indexes can be added per column set.
/// The table counts rows read/written so callers (the simulated external
/// systems) can derive deterministic processing costs.
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
  /// uniqueness. Returns AlreadyExists on a duplicate key.
  Status Insert(Row row);

  /// Insert, replacing any existing row with the same primary key.
  Status InsertOrReplace(Row row);

  /// Borrowed point lookup by primary-key values (one Value per PK column,
  /// in schema PK order): the live row, or nullptr when no row has the key.
  /// Errors (no primary key, wrong key arity) charge nothing; a hit or a
  /// miss charges one rows_read(). The pointer stays valid until the table
  /// is mutated.
  Result<const Row*> FindByKeyRef(std::span<const Value> key) const;
  /// Copying FindByKeyRef: the row, or NotFound. Same rows_read() charge.
  Result<Row> FindByKey(const Row& key) const;
  bool ContainsKey(const Row& key) const;

  /// Deletes rows matching `pred`; returns how many were removed.
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred);
  /// Removes all rows (keeps schema and indexes).
  void Clear();

  /// In-place update of rows matching `pred`. The updater mutates the row;
  /// primary-key columns must not change (enforced). Atomic per row: a row
  /// the updater leaves invalid (schema violation or changed key) is
  /// restored as it was, with its index entries, and the error returned;
  /// rows updated before it stay updated. Returns rows updated.
  Result<size_t> UpdateWhere(const std::function<bool(const Row&)>& pred,
                             const std::function<void(Row*)>& update);

  /// Visits every live row in insertion order.
  void ForEach(const std::function<void(const Row&)>& fn) const;

  /// Forward cursor over live rows (insertion order). Delivers rows in
  /// caller-sized chunks instead of materializing the whole table up front;
  /// bumps rows_read() per delivered row exactly like ForEach/ScanAll.
  /// Mutating the table mid-scan invalidates the cursor.
  class ScanCursor {
   public:
    explicit ScanCursor(const Table* table) : table_(table) {}
    /// Appends up to `max_rows` live rows to `*out`; returns the number
    /// appended (0 = end of scan).
    size_t NextBatch(std::vector<Row>* out, size_t max_rows);

    /// Like NextBatch but appends borrowed pointers into the table's row
    /// storage instead of copies (same rows_read() accounting). The pointers
    /// stay valid until the table is mutated.
    size_t NextBatchRefs(std::vector<const Row*>* out, size_t max_rows);

   private:
    const Table* table_;
    size_t slot_ = 0;
  };
  ScanCursor Scan() const { return ScanCursor(this); }

  /// Copies all live rows out (insertion order). Implemented over Scan().
  std::vector<Row> ScanAll() const;

  /// Creates a named secondary (non-unique) hash index over the given
  /// columns. Existing rows are indexed immediately.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& columns);

  /// Rows whose indexed columns equal `key` (one Value per index column).
  Result<std::vector<Row>> LookupIndex(const std::string& index_name,
                                       const Row& key) const;

  /// Cumulative IO counters (monotone; survive Clear()). Atomic so
  /// concurrent read-only scans can bump rows_read() without racing; the
  /// totals are order-independent.
  uint64_t rows_read() const {
    return rows_read_.load(std::memory_order_relaxed);
  }
  uint64_t rows_written() const {
    return rows_written_.load(std::memory_order_relaxed);
  }

  /// Approximate live data footprint in bytes. Memoized against the
  /// content version; a call after a mutation recomputes once, further
  /// calls are O(1). Used on every simulated network charge, which made
  /// the old walk-all-rows implementation an accidental O(rows) hot spot.
  size_t ByteSize() const;

  /// Content version: bumped by every mutating operation (insert, replace,
  /// delete, clear, update). Lets the ByteSize memo detect
  /// staleness without walking the data.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  struct SecondaryIndex {
    std::vector<size_t> columns;
    std::unordered_multimap<size_t, size_t> map;  // key hash -> slot
  };

  // Marks the content changed: bumps version_ so the ByteSize memo
  // invalidates.
  void Touch() { version_.fetch_add(1, std::memory_order_release); }

  Status CheckRow(const Row& row) const;
  // HashRowKey over the primary-key columns; 0 without a primary key.
  size_t PkHash(const Row& row) const;
  // Whether two rows agree on every primary-key column (Value::Compare).
  bool SameKey(const Row& a, const Row& b) const;
  // The primary-key cells rendered like RowToString (error messages).
  std::string KeyString(const Row& row) const;
  // Slot of the live row with these primary-key cells, or kNotFound.
  size_t FindSlotByKey(std::span<const Value> key) const;
  // Slot of the live row whose primary key equals `row`'s, or kNotFound
  // (always without a primary key: the index stays empty).
  size_t FindSlotOfRow(const Row& row, size_t pk_hash) const;
  void IndexRow(size_t slot, size_t pk_hash);
  void UnindexRow(size_t slot);
  // Secondary index entries of `row`, stored at `slot`.
  void IndexSecondary(const Row& row, size_t slot);
  void UnindexSecondary(const Row& row, size_t slot);

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  // Primary-key hash -> slot of the live row; empty without a primary key.
  KeyIndex pk_index_;
  std::unordered_map<std::string, SecondaryIndex> secondary_;
  mutable std::atomic<uint64_t> rows_read_{0};
  std::atomic<uint64_t> rows_written_{0};

  // Content version + caches derived from it. The mutex only guards the
  // cache slots (cheap, uncontended: mutators run serially per table).
  std::atomic<uint64_t> version_{1};
  mutable std::mutex cache_mu_;
  mutable uint64_t byte_size_version_ = 0;  // 0 = memo empty
  mutable size_t byte_size_cache_ = 0;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_TABLE_H_
