#ifndef DIPBENCH_RA_PLAN_H_
#define DIPBENCH_RA_PLAN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/ra/expr.h"
#include "src/storage/table.h"
#include "src/types/schema.h"

namespace dipbench {

/// A materialized result: schema + rows, the rows in one cell slab. Plans
/// read base data from tables and RowSets, stream batches between
/// operators (see BatchCursor below) and hand their result back as a
/// RowSet.
struct RowSet {
  Schema schema;
  RowSlab rows;

  size_t size() const { return rows.size(); }
  /// Approximate wire size, used for communication-cost accounting.
  /// Cached: recomputed only when the row count changes since the last call
  /// (operators in this engine never mutate values in place at constant
  /// cardinality — sorting permutes rows, which preserves the byte size).
  size_t ByteSize() const;

  // ByteSize memo; internal. Trailing members keep the struct an aggregate.
  mutable size_t byte_size_cache_ = 0;
  mutable size_t byte_size_cache_rows_ = SIZE_MAX;
};

/// Execution-side counters consumed by the cost model: every operator adds
/// the rows it touches, so processing cost is derived from work done rather
/// than from wall-clock time (deterministic across machines).
/// SPECIFICATION.md §9 lists each operator's charges.
struct ExecContext {
  uint64_t rows_processed = 0;
  uint64_t operator_invocations = 0;
};

/// Target number of rows per streamed batch. Cardinality-expanding operators
/// (hash join) may overshoot for a single batch instead of buffering.
inline constexpr size_t kBatchCapacity = 1024;

/// One chunk of rows flowing through a cursor chain. A batch is either
/// *owned* (`rows` filled, `refs` empty — operators that build new rows:
/// projection, aggregation, sort, union-distinct) or *borrowed*
/// (`refs` filled, `rows` empty): reference tuples of `width` row-start
/// pointers each, read through the producing cursor's layout(). Leaf
/// scans emit one-pointer tuples into table / RowSet storage, a hash join
/// emits the probe tuple's pointers followed by the build tuple's, and a
/// filter forwards the pointers. A slab's cells move when it grows, so a
/// borrowed pointer only ever points into storage that does not grow
/// while the cursor chain exists: a table during the plan, a RowSet the
/// plan reads, a hash join's owned build rows once drained, and owned
/// probe batches the join keeps whole. A consumer may therefore keep the
/// pointers — a hash join's build side does.
struct Batch {
  RowSlab rows;
  std::vector<const Value*> refs;
  size_t width = 1;  ///< row pointers per borrowed tuple

  bool borrowed() const { return !refs.empty(); }
  size_t size() const { return borrowed() ? refs.size() / width : rows.size(); }
  bool empty() const { return rows.empty() && refs.empty(); }
  void clear() {
    rows.clear();
    refs.clear();
    width = 1;
  }
};

/// Pull-based iterator over a plan subtree (Volcano style, batch at a time).
///
/// Protocol: Open() once, then Next() repeatedly until it leaves the batch
/// empty (end of stream), then Close(). An empty batch always means end of
/// stream — operators that filter rows keep pulling internally rather than
/// emit empty non-final batches. schema() may carry provisional column types
/// (kNull) while the stream is in flight for type-inferring operators
/// (Project); it is final once end of stream has been observed, which is the
/// only point the engine reads it.
class BatchCursor {
 public:
  virtual ~BatchCursor() = default;
  virtual Status Open() = 0;
  /// Clears `*batch` and fills it with up to kBatchCapacity rows.
  virtual Status Next(Batch* batch) = 0;
  virtual void Close() = 0;
  virtual const Schema& schema() const = 0;
  /// How the cells of this cursor's batches map to schema() columns; fixed
  /// from Open() on. Owned batches always have a plain layout.
  virtual const TupleLayout& layout() const = 0;
};

using CursorPtr = std::unique_ptr<BatchCursor>;

/// Opens `cursor`, pulls it to end of stream, and returns the accumulated
/// RowSet (schema read after end of stream, when it is final). Owned cells
/// move (the first owned batch's slab is taken over whole); each reference
/// tuple's cells are copied into its one output row.
Result<RowSet> DrainCursor(BatchCursor* cursor);

/// Base class for plan operators. Each node has exactly one execution
/// path: its cursor.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Drains MakeCursor(ctx) and returns the result.
  Result<RowSet> Execute(ExecContext* ctx) const;

  /// Returns a batch cursor over this subtree, charging its work to `ctx`.
  virtual CursorPtr MakeCursor(ExecContext* ctx) const = 0;

  /// One-line description (operator name + parameters).
  virtual std::string ToString() const = 0;
};

using PlanPtr = std::shared_ptr<const PlanNode>;

/// One output column of a projection: name + defining expression (+ optional
/// forced output type; kNull means "leave as evaluated").
struct ProjectionItem {
  std::string name;
  ExprPtr expr;
  DataType cast_to = DataType::kNull;
};

/// Aggregate function kinds for AggregateNode.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

struct AggregateItem {
  std::string output_name;
  AggFunc func = AggFunc::kCount;
  /// Input column name; empty for COUNT(*).
  std::string input_column;
};

/// Sort key for SortNode.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Leaf: scans all live rows of a storage table (streams straight from the
/// table's batch cursor — no up-front full copy).
PlanPtr ScanTable(const Table* table);
/// Leaf: wraps an already materialized row set (owned copy).
PlanPtr ScanValues(RowSet rows);
/// Leaf: like ScanValues but borrows the row set — `rows` must outlive every
/// Execute()/cursor drain of the returned plan. Avoids copying bulk inputs
/// into the plan (the common case in operator bodies).
PlanPtr ScanValuesRef(const RowSet* rows);
/// σ: keeps rows for which `predicate` evaluates to true.
PlanPtr Filter(PlanPtr child, ExprPtr predicate);
/// π: computes the given output columns (also does renaming / casting).
PlanPtr Project(PlanPtr child, std::vector<ProjectionItem> items);
/// Inner hash equi-join on (left_keys[i] == right_keys[i]).
/// Output schema concatenates left columns then right columns; name
/// collisions on the right get a "r_" prefix. The right (build) side is
/// blocking; the left (probe) side streams. One probe row's matches come
/// out in descending build-row order.
PlanPtr HashJoin(PlanPtr left, PlanPtr right,
                 std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys);
/// UNION DISTINCT over the inputs. All inputs must have compatible arity.
/// Distinctness is decided on `key_columns` of the first input's schema
/// (empty = whole row), matching the paper's "UNION DISTINCT, Ordkey" usage.
PlanPtr UnionDistinct(std::vector<PlanPtr> children,
                      std::vector<std::string> key_columns);
/// γ: grouped aggregation. Empty `group_by` yields one global row.
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateItem> aggregates);
/// Stable multi-key sort.
PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys);

/// Inserts every result row into `table` (append; duplicate-key rows are
/// counted and skipped, not errors — ETL "upsert-tolerant" loading).
/// Returns the number of rows actually inserted.
Result<size_t> InsertInto(Table* table, const RowSet& rows);
/// Like InsertInto but replaces rows on key conflicts.
Result<size_t> UpsertInto(Table* table, const RowSet& rows);

}  // namespace dipbench

#endif  // DIPBENCH_RA_PLAN_H_
