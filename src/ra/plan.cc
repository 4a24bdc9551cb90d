#include "src/ra/plan.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/string_util.h"
#include "src/storage/spill.h"

namespace dipbench {

size_t RowSet::ByteSize() const {
  // Memoized per row count: operators never mutate values in place at
  // constant cardinality, so a matching count means an unchanged payload.
  if (byte_size_cache_rows_ == rows.size()) return byte_size_cache_;
  size_t total = 0;
  for (const auto& r : rows) {
    for (const auto& v : r) total += v.ByteSize();
  }
  byte_size_cache_ = total;
  byte_size_cache_rows_ = rows.size();
  return total;
}

namespace {
// Engine-wide execution mode. The engine is a single-threaded discrete-event
// simulation, so a plain global suffices.
thread_local ExecMode g_exec_mode = ExecMode::kPipeline;
}  // namespace

ExecMode CurrentExecMode() { return g_exec_mode; }
void SetExecMode(ExecMode mode) { g_exec_mode = mode; }

Result<RowSet> DrainCursor(BatchCursor* cursor) {
  DIP_RETURN_NOT_OK(cursor->Open());
  RowSet out;
  Batch batch;
  for (;;) {
    DIP_RETURN_NOT_OK(cursor->Next(&batch));
    if (batch.empty()) break;
    // No per-batch reserve: exact-sized reserves would defeat the vector's
    // geometric growth and reallocate once per batch. Borrowed batches are
    // copied (their pointees die with the next Next()); owned ones move.
    if (batch.borrowed()) {
      for (const Row* row : batch.refs) out.rows.push_back(*row);
    } else {
      for (Row& row : batch.rows) out.rows.push_back(std::move(row));
    }
  }
  // Read the schema only after end of stream: type-inferring operators
  // (Project) finalize it as the last rows pass through.
  out.schema = cursor->schema();
  cursor->Close();
  return out;
}

namespace {

/// Adapter that materializes a full RowSet at Open() and then emits it in
/// batches. Serves as the default cursor for blocking operators; their
/// children still stream because the producer runs them through the
/// mode-dispatching PlanNode::Execute().
class RowSetCursor : public BatchCursor {
 public:
  explicit RowSetCursor(std::function<Result<RowSet>()> producer)
      : producer_(std::move(producer)) {}

  Status Open() override {
    DIP_ASSIGN_OR_RETURN(data_, producer_());
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    size_t n = std::min(kBatchCapacity, data_.rows.size() - pos_);
    batch->rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch->rows.push_back(std::move(data_.rows[pos_ + i]));
    }
    pos_ += n;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return data_.schema; }

 private:
  std::function<Result<RowSet>()> producer_;
  RowSet data_;
  size_t pos_ = 0;
};

}  // namespace

Result<RowSet> PlanNode::Execute(ExecContext* ctx) const {
  if (CurrentExecMode() == ExecMode::kMaterialize) {
    return ExecuteMaterialized(ctx);
  }
  CursorPtr cursor = MakeCursor(ctx);
  return DrainCursor(cursor.get());
}

CursorPtr PlanNode::MakeCursor(ExecContext* ctx) const {
  return std::make_unique<RowSetCursor>(
      [this, ctx] { return ExecuteMaterialized(ctx); });
}

ColumnarCursorPtr PlanNode::MakeColumnarCursor(ExecContext*) const {
  return nullptr;
}

namespace {

/// Read-only view of a batch for vectorized evaluation: borrowed batches
/// already are pointer vectors; owned ones get one built in `scratch`.
const RowRefs& BatchView(const Batch& in, RowRefs* scratch) {
  if (in.borrowed() || in.rows.empty()) return in.refs;
  scratch->clear();
  scratch->reserve(in.rows.size());
  for (const Row& row : in.rows) scratch->push_back(&row);
  return *scratch;
}

/// Streams a table's live rows through Table::ScanCursor as borrowed
/// pointers — neither an up-front full copy nor per-batch row copies.
class ScanTableCursor : public BatchCursor {
 public:
  ScanTableCursor(const Table* table, ExecContext* ctx)
      : table_(table), ctx_(ctx), cursor_(table->Scan()) {}

  Status Open() override {
    ctx_->operator_invocations++;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    size_t n = cursor_.NextBatchRefs(&batch->refs, kBatchCapacity);
    ctx_->rows_processed += n;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return table_->schema(); }

 private:
  const Table* table_;
  ExecContext* ctx_;
  Table::ScanCursor cursor_;
};

/// Streams an in-memory RowSet it does not own, one chunk at a time.
class RowSliceCursor : public BatchCursor {
 public:
  RowSliceCursor(const RowSet* data, ExecContext* ctx)
      : data_(data), ctx_(ctx) {}

  Status Open() override {
    ctx_->operator_invocations++;
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    size_t n = std::min(kBatchCapacity, data_->rows.size() - pos_);
    batch->refs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch->refs.push_back(&data_->rows[pos_ + i]);
    }
    pos_ += n;
    ctx_->rows_processed += n;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return data_->schema; }

 private:
  const RowSet* data_;
  ExecContext* ctx_;
  size_t pos_ = 0;
};

class FilterCursor : public BatchCursor {
 public:
  FilterCursor(CursorPtr child, ExprPtr predicate, ExecContext* ctx)
      : child_(std::move(child)), predicate_(std::move(predicate)), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    ctx_->operator_invocations++;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    // Pull until some rows survive the predicate or the child is exhausted:
    // an empty batch must mean end of stream.
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in_));
      if (in_.empty()) return Status::OK();
      ctx_->rows_processed += in_.size();
      const RowRefs& view = BatchView(in_, &view_scratch_);
      DIP_RETURN_NOT_OK(predicate_->EvalBatch(view, child_->schema(), &keep_));
      // Dropped rows are never copied: borrowed inputs forward the kept
      // pointers; owned inputs move the kept rows out.
      for (size_t i = 0; i < in_.size(); ++i) {
        const Value& k = keep_[i];
        if (!k.is_null() && k.type() == DataType::kBool && k.AsBool()) {
          if (in_.borrowed()) {
            batch->refs.push_back(in_.refs[i]);
          } else {
            batch->rows.push_back(std::move(in_.rows[i]));
          }
        }
      }
      if (!batch->empty()) return Status::OK();
    }
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  CursorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  Batch in_;
  RowRefs view_scratch_;
  std::vector<Value> keep_;
};

class ProjectCursor : public BatchCursor {
 public:
  ProjectCursor(CursorPtr child, const std::vector<ProjectionItem>* items,
                ExecContext* ctx)
      : child_(std::move(child)),
        items_(items),
        ctx_(ctx),
        inferred_(items->size(), DataType::kNull) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    ctx_->operator_invocations++;
    RebuildSchema();
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    DIP_RETURN_NOT_OK(child_->Next(&in_));
    if (in_.empty()) return Status::OK();
    ctx_->rows_processed += in_.size();
    const Schema& in_schema = child_->schema();
    const auto& items = *items_;
    const RowRefs& view = BatchView(in_, &view_scratch_);
    // Column-at-a-time: one EvalBatch per projection item per batch. Bare
    // uncast column references skip the value buffer entirely — the index is
    // resolved once per batch and values are copied straight from the input
    // rows in the row-build loop below.
    cols_.resize(items.size());
    col_idx_.assign(items.size(), SIZE_MAX);
    bool inferred_changed = false;
    for (size_t i = 0; i < items.size(); ++i) {
      const std::string* col = items[i].cast_to == DataType::kNull
                                   ? ColumnRefName(*items[i].expr)
                                   : nullptr;
      if (col != nullptr) {
        DIP_ASSIGN_OR_RETURN(size_t idx, in_schema.RequireIndexOf(*col));
        for (const Row* row : view) {
          if (idx >= row->size()) {
            return Status::Internal("row narrower than schema");
          }
        }
        col_idx_[i] = idx;
        if (inferred_[i] == DataType::kNull) {
          for (const Row* row : view) {
            if (!(*row)[idx].is_null()) {
              inferred_[i] = (*row)[idx].type();
              inferred_changed = true;
              break;
            }
          }
        }
        continue;
      }
      DIP_RETURN_NOT_OK(items[i].expr->EvalBatch(view, in_schema, &cols_[i]));
      if (items[i].cast_to != DataType::kNull) {
        for (Value& v : cols_[i]) {
          DIP_ASSIGN_OR_RETURN(v, v.CastTo(items[i].cast_to));
        }
      }
      if (inferred_[i] == DataType::kNull) {
        for (const Value& v : cols_[i]) {
          if (!v.is_null()) {
            inferred_[i] = v.type();
            inferred_changed = true;
            break;
          }
        }
      }
    }
    batch->rows.reserve(in_.size());
    for (size_t r = 0; r < in_.size(); ++r) {
      Row projected;
      projected.reserve(items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        if (col_idx_[i] != SIZE_MAX) {
          projected.push_back((*view[r])[col_idx_[i]]);
        } else {
          projected.push_back(std::move(cols_[i][r]));
        }
      }
      batch->rows.push_back(std::move(projected));
    }
    if (inferred_changed) RebuildSchema();
    return Status::OK();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  void RebuildSchema() {
    Schema s;
    for (size_t i = 0; i < items_->size(); ++i) {
      const ProjectionItem& item = (*items_)[i];
      s.AddColumn(item.name, item.cast_to != DataType::kNull ? item.cast_to
                                                             : inferred_[i]);
    }
    schema_ = std::move(s);
  }

  CursorPtr child_;
  const std::vector<ProjectionItem>* items_;
  ExecContext* ctx_;
  std::vector<DataType> inferred_;
  Schema schema_;
  Batch in_;
  RowRefs view_scratch_;
  std::vector<std::vector<Value>> cols_;
  std::vector<size_t> col_idx_;  // SIZE_MAX = not a bare column reference
};

/// The probe row followed by the build row, allocated at its final width.
Row JoinRows(const Row& lrow, const Row& rrow) {
  Row joined;
  joined.reserve(lrow.size() + rrow.size());
  joined.insert(joined.end(), lrow.begin(), lrow.end());
  joined.insert(joined.end(), rrow.begin(), rrow.end());
  return joined;
}

/// Build side (right) is drained and hashed at Open; probe side streams.
class HashJoinCursor : public BatchCursor {
 public:
  HashJoinCursor(CursorPtr left, CursorPtr right,
                 const std::vector<std::string>* lkeys,
                 const std::vector<std::string>* rkeys, ExecContext* ctx)
      : left_(std::move(left)),
        right_(std::move(right)),
        lkeys_(lkeys),
        rkeys_(rkeys),
        ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(left_->Open());
    DIP_ASSIGN_OR_RETURN(build_data_, DrainCursor(right_.get()));
    ctx_->operator_invocations++;
    if (lkeys_->size() != rkeys_->size() || lkeys_->empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    for (const auto& k : *lkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, left_->schema().RequireIndexOf(k));
      lidx_.push_back(i);
    }
    for (const auto& k : *rkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, build_data_.schema.RequireIndexOf(k));
      ridx_.push_back(i);
    }
    build_.reserve(build_data_.rows.size());
    for (size_t i = 0; i < build_data_.rows.size(); ++i) {
      ctx_->rows_processed++;
      build_.emplace(HashRowKey(build_data_.rows[i], ridx_), i);
    }
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    for (;;) {
      DIP_RETURN_NOT_OK(left_->Next(&in_));
      if (in_.empty()) return Status::OK();
      for (size_t r = 0; r < in_.size(); ++r) {
        const Row& lrow = in_.row(r);
        ctx_->rows_processed++;
        size_t h = HashRowKey(lrow, lidx_);
        auto range = build_.equal_range(h);
        for (auto it = range.first; it != range.second; ++it) {
          const Row& rrow = build_data_.rows[it->second];
          bool match = true;
          for (size_t k = 0; k < lidx_.size(); ++k) {
            if (lrow[lidx_[k]].Compare(rrow[ridx_[k]]) != 0 ||
                lrow[lidx_[k]].is_null()) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          batch->rows.push_back(JoinRows(lrow, rrow));
        }
      }
      if (!batch->rows.empty()) return Status::OK();
    }
  }
  void Close() override { left_->Close(); }
  const Schema& schema() const override {
    // The probe-side schema may still be provisional mid-stream, so the
    // joined schema is rebuilt on demand rather than fixed at Open.
    Schema s = left_->schema();
    for (const auto& col : build_data_.schema.columns()) {
      std::string name = col.name;
      while (s.HasColumn(name)) name = "r_" + name;
      s.AddColumn(name, col.type, col.nullable);
    }
    schema_cache_ = std::move(s);
    return schema_cache_;
  }

 private:
  CursorPtr left_, right_;
  const std::vector<std::string>* lkeys_;
  const std::vector<std::string>* rkeys_;
  ExecContext* ctx_;
  RowSet build_data_;
  std::unordered_multimap<size_t, size_t> build_;
  std::vector<size_t> lidx_, ridx_;
  Batch in_;
  mutable Schema schema_cache_;
};

/// Emits the first `limit` rows and then SHORT-CIRCUITS: the moment the
/// limit is reached the child is closed and nothing more is pulled, so
/// upstream work (rows_read, rows_processed) is bounded by
/// O(limit + batch size) rather than the full input. This intentionally
/// diverges from the materializing path, which computes the child in full
/// by construction (SPECIFICATION.md §14.4 documents the counter
/// difference).
class LimitCursor : public BatchCursor {
 public:
  LimitCursor(CursorPtr child, size_t limit, ExecContext* ctx)
      : child_(std::move(child)), limit_(limit), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    ctx_->operator_invocations++;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    if (emitted_ >= limit_) {
      CloseChild();
      return Status::OK();
    }
    DIP_RETURN_NOT_OK(child_->Next(&in_));
    if (in_.empty()) return Status::OK();
    size_t take = std::min(limit_ - emitted_, in_.size());
    if (in_.borrowed()) {
      // Borrowed pointees live in table / RowSet storage, which outlives the
      // eager CloseChild() below — forwarding them stays safe.
      batch->refs.assign(in_.refs.begin(), in_.refs.begin() + take);
    } else {
      batch->rows.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch->rows.push_back(std::move(in_.rows[i]));
      }
    }
    emitted_ += take;
    ctx_->rows_processed += take;
    if (emitted_ >= limit_) CloseChild();  // stop upstream work eagerly
    return Status::OK();
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  CursorPtr child_;
  size_t limit_;
  ExecContext* ctx_;
  Batch in_;
  size_t emitted_ = 0;
  bool child_closed_ = false;
};

/// --- Shared grouped-aggregation core ------------------------------------
///
/// Every aggregation path (materialized, columnar, spilling) funnels
/// through these helpers so group semantics, double-summation order, and
/// output shape can never drift apart across execution modes.

struct AggGroupState {
  Row key;
  std::vector<double> sum;
  std::vector<int64_t> count;
  std::vector<Value> min_v, max_v;
  std::vector<bool> all_int;
  // Numeric mirrors of min_v/max_v for the columnar fast path (Value::
  // Compare on the numeric family is double comparison); the row paths
  // leave them untouched.
  std::vector<double> min_num, max_num;
};

void InitAggState(AggGroupState* st, Row key, size_t naggs) {
  st->key = std::move(key);
  st->sum.assign(naggs, 0.0);
  st->count.assign(naggs, 0);
  st->min_v.assign(naggs, Value::Null());
  st->max_v.assign(naggs, Value::Null());
  st->all_int.assign(naggs, true);
  st->min_num.assign(naggs, 0.0);
  st->max_num.assign(naggs, 0.0);
}

Status ResolveAggIndexes(const Schema& schema,
                         const std::vector<std::string>& group_by,
                         const std::vector<AggregateItem>& aggs,
                         std::vector<size_t>* group_idx,
                         std::vector<size_t>* agg_idx) {
  for (const auto& g : group_by) {
    DIP_ASSIGN_OR_RETURN(size_t i, schema.RequireIndexOf(g));
    group_idx->push_back(i);
  }
  agg_idx->assign(aggs.size(), SIZE_MAX);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (!aggs[i].input_column.empty()) {
      DIP_ASSIGN_OR_RETURN(size_t idx,
                           schema.RequireIndexOf(aggs[i].input_column));
      (*agg_idx)[i] = idx;
    } else if (aggs[i].func != AggFunc::kCount) {
      return Status::InvalidArgument("aggregate needs an input column");
    }
  }
  return Status::OK();
}

Status AccumulateAggValues(const Row& row,
                           const std::vector<AggregateItem>& aggs,
                           const std::vector<size_t>& agg_idx,
                           AggGroupState* st) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    const Value* v = agg_idx[a] == SIZE_MAX ? nullptr : &row[agg_idx[a]];
    if (aggs[a].func == AggFunc::kCount) {
      if (v == nullptr || !v->is_null()) st->count[a]++;
      continue;
    }
    if (v == nullptr || v->is_null()) continue;
    DIP_ASSIGN_OR_RETURN(double num, v->ToNumeric());
    st->sum[a] += num;
    st->count[a]++;
    if (v->type() != DataType::kInt64) st->all_int[a] = false;
    if (st->min_v[a].is_null() || v->Compare(st->min_v[a]) < 0) {
      st->min_v[a] = *v;
    }
    if (st->max_v[a].is_null() || v->Compare(st->max_v[a]) > 0) {
      st->max_v[a] = *v;
    }
  }
  return Status::OK();
}

/// The group table every aggregation path shares (row, columnar, spill).
///
/// Group identity is the serialized key: the group cells rendered and
/// joined like RowToString, so Int(5) and Double(5.0) are one group,
/// doubles group by their lossy "%.6g" rendering, and NULL renders as "".
/// A group keeps the key cells of its first row, and groups come out in
/// serialized-key order. While every key seen is a tuple of non-NULL INT64
/// cells the table is keyed by the cells' raw bytes instead, and no string
/// is built per row; INT64 renderings are injective, so both keyings make
/// the same groups. The first other key migrates every group to the
/// serialized-key map for the rest of the input.
class AggGroupTable {
 public:
  AggGroupTable(const std::vector<size_t>& group_idx, size_t naggs)
      : group_idx_(group_idx), naggs_(naggs) {}

  /// The group of `row`, whose key cells sit at group_idx; created on
  /// first sight. The pointer is valid until the next lookup.
  AggGroupState* Find(const Row& row) {
    if (int_keyed_) {
      cells_.clear();
      for (size_t gi : group_idx_) {
        if (row[gi].type() != DataType::kInt64) break;
        cells_.push_back(row[gi].AsInt());
      }
      if (cells_.size() == group_idx_.size()) {
        return FindInt(cells_, [&] { return KeyRow(row); });
      }
      MigrateToSerialized();
    }
    key_buf_.clear();
    AppendRowKeyString(row, group_idx_, &key_buf_);
    auto it = by_key_.find(key_buf_);
    if (it == by_key_.end()) {
      it = by_key_.try_emplace(key_buf_).first;
      InitAggState(&it->second, KeyRow(row), naggs_);
    }
    return &it->second;
  }

  /// Find for a key of INT64 cells, one per group column, while the table
  /// is still int-keyed (no non-INT64 key seen). `make_key` builds the key
  /// row of a new group.
  template <typename MakeKey>
  AggGroupState* FindInt(std::span<const int64_t> cells,
                         const MakeKey& make_key) {
    assert(int_keyed_);
    key_buf_.assign(reinterpret_cast<const char*>(cells.data()),
                    cells.size_bytes());
    auto [it, inserted] = by_raw_.try_emplace(key_buf_, groups_.size());
    if (inserted) {
      groups_.emplace_back();
      InitAggState(&groups_.back(), make_key(), naggs_);
    }
    return &groups_[it->second];
  }

  /// Calls fn(serialized key, group) for every group in serialized-key
  /// order.
  template <typename Fn>
  void ForEachOrdered(const Fn& fn) const {
    if (!int_keyed_) {
      for (const auto& [key, st] : by_key_) fn(key, st);
      return;
    }
    std::vector<std::pair<std::string, const AggGroupState*>> ordered;
    ordered.reserve(groups_.size());
    for (const AggGroupState& st : groups_) {
      ordered.emplace_back(RowToString(st.key), &st);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, st] : ordered) fn(key, *st);
  }

 private:
  Row KeyRow(const Row& row) const {
    Row key;
    key.reserve(group_idx_.size());
    for (size_t gi : group_idx_) key.push_back(row[gi]);
    return key;
  }

  void MigrateToSerialized() {
    for (AggGroupState& st : groups_) {
      by_key_.emplace(RowToString(st.key), std::move(st));
    }
    groups_.clear();
    by_raw_.clear();
    int_keyed_ = false;
  }

  const std::vector<size_t>& group_idx_;
  size_t naggs_;
  bool int_keyed_ = true;
  std::unordered_map<std::string, size_t> by_raw_;  // raw key -> groups_ index
  std::vector<AggGroupState> groups_;
  std::map<std::string, AggGroupState> by_key_;  // serialized key -> group
  std::vector<int64_t> cells_;
  std::string key_buf_;
};

Row FinalizeAggGroup(const AggGroupState& st,
                     const std::vector<AggregateItem>& aggs) {
  Row row = st.key;
  for (size_t a = 0; a < aggs.size(); ++a) {
    switch (aggs[a].func) {
      case AggFunc::kCount:
        row.push_back(Value::Int(st.count[a]));
        break;
      case AggFunc::kSum:
        row.push_back(st.count[a] == 0 ? Value::Null()
                      : st.all_int[a]
                          ? Value::Int(static_cast<int64_t>(st.sum[a]))
                          : Value::Double(st.sum[a]));
        break;
      case AggFunc::kAvg:
        row.push_back(st.count[a] == 0
                          ? Value::Null()
                          : Value::Double(st.sum[a] / st.count[a]));
        break;
      case AggFunc::kMin:
        row.push_back(st.min_v[a]);
        break;
      case AggFunc::kMax:
        row.push_back(st.max_v[a]);
        break;
    }
  }
  return row;
}

Schema AggOutputSchema(const Schema& in_schema,
                       const std::vector<std::string>& group_by,
                       const std::vector<size_t>& group_idx,
                       const std::vector<AggregateItem>& aggs) {
  Schema out;
  for (size_t g = 0; g < group_by.size(); ++g) {
    const Column& c = in_schema.column(group_idx[g]);
    out.AddColumn(group_by[g], c.type, c.nullable);
  }
  for (const auto& a : aggs) {
    DataType t = a.func == AggFunc::kCount ? DataType::kInt64
                 : a.func == AggFunc::kAvg ? DataType::kDouble
                                           : DataType::kNull;
    out.AddColumn(a.output_name, t);
  }
  return out;
}

/// --- Spill helpers -------------------------------------------------------

/// Approximate in-memory footprint of a buffered row (payload + per-value
/// and per-row bookkeeping overhead) for budget accounting.
size_t ApproxRowBytes(const Row& row) {
  size_t total = 24;
  for (const Value& v : row) total += v.ByteSize() + 16;
  return total;
}

/// Number of disk partitions for hash-partitioned spilling (single level).
constexpr size_t kSpillPartitions = 16;

/// FNV-1a over a serialized key: partitions grouped-aggregation input so
/// that rows with equal serialized keys always share a partition.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string RunName(const char* prefix, size_t i) {
  return std::string(prefix) + std::to_string(i);
}

/// Heap entry for sequence-ordered run merges (spilled union / join): pop
/// ascending sequence. Sequences are globally unique, so ties can't occur.
struct SeqEntry {
  uint64_t seq = 0;
  Row row;
  size_t run = 0;
};
struct SeqHeapCmp {
  bool operator()(const SeqEntry& a, const SeqEntry& b) const {
    return a.seq > b.seq;  // smallest sequence pops first
  }
};

/// Heap entry for key-ordered run merges (spilled aggregation): pop
/// ascending serialized key (keys are disjoint across partitions).
struct KeyEntry {
  std::string key;
  Row row;
  size_t run = 0;
};
struct KeyHeapCmp {
  bool operator()(const KeyEntry& a, const KeyEntry& b) const {
    int c = a.key.compare(b.key);
    if (c != 0) return c > 0;  // smallest key pops first
    return a.run > b.run;
  }
};

/// --- Columnar cursors ----------------------------------------------------

/// Row/column boundary shim: adapts a columnar chain to the row BatchCursor
/// protocol. Charges nothing itself — the columnar cursors below account
/// rows exactly like their row counterparts.
class ColumnShimCursor : public BatchCursor {
 public:
  explicit ColumnShimCursor(ColumnarCursorPtr inner)
      : inner_(std::move(inner)) {}

  Status Open() override { return inner_->Open(); }
  Status Next(Batch* batch) override {
    batch->clear();
    DIP_RETURN_NOT_OK(inner_->Next(&cb_));
    if (cb_.empty()) return Status::OK();
    AppendColumnRows(cb_, &batch->rows);
    return Status::OK();
  }
  void Close() override { inner_->Close(); }
  const Schema& schema() const override { return inner_->schema(); }

 private:
  ColumnarCursorPtr inner_;
  ColumnBatch cb_;
};

/// In kColumnar mode, wraps the node's columnar chain in a row shim;
/// nullptr when the node (or the current mode) has no columnar path, in
/// which case the caller builds its row cursor as usual.
CursorPtr TryColumnarShim(const PlanNode& node, ExecContext* ctx) {
  if (CurrentExecMode() != ExecMode::kColumnar) return nullptr;
  ColumnarCursorPtr inner = node.MakeColumnarCursor(ctx);
  if (inner == nullptr) return nullptr;
  return std::make_unique<ColumnShimCursor>(std::move(inner));
}

/// Streams a table's columnar snapshot in contiguous windows. Read
/// accounting matches the row scan: one rows_read per delivered row
/// (snapshot construction itself charges nothing).
class ColumnarScanCursor : public ColumnarCursor {
 public:
  ColumnarScanCursor(const Table* table, ExecContext* ctx)
      : table_(table), ctx_(ctx) {}

  Status Open() override {
    ctx_->operator_invocations++;
    frame_ = table_->ColumnarSnapshot();
    pos_ = 0;
    return Status::OK();
  }
  Status Next(ColumnBatch* batch) override {
    batch->clear();
    size_t n = std::min(kBatchCapacity, frame_->num_rows - pos_);
    if (n == 0) return Status::OK();
    batch->columns.assign(frame_->columns.begin(), frame_->columns.end());
    batch->offset = pos_;
    batch->length = n;
    pos_ += n;
    table_->ChargeRead(n);
    ctx_->rows_processed += n;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return table_->schema(); }

 private:
  const Table* table_;
  ExecContext* ctx_;
  std::shared_ptr<const ColumnFrame> frame_;
  size_t pos_ = 0;
};

/// Columnar filter: narrows the selection vector via Expr::EvalSelection
/// without touching a cell. Counter-identical to FilterCursor.
class ColumnarFilterCursor : public ColumnarCursor {
 public:
  ColumnarFilterCursor(ColumnarCursorPtr child, ExprPtr predicate,
                       ExecContext* ctx)
      : child_(std::move(child)), predicate_(std::move(predicate)), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    ctx_->operator_invocations++;
    return Status::OK();
  }
  Status Next(ColumnBatch* batch) override {
    batch->clear();
    // Pull until some rows survive: an empty batch must mean end of stream.
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in_));
      if (in_.empty()) return Status::OK();
      ctx_->rows_processed += in_.size();
      sel_.clear();
      DIP_RETURN_NOT_OK(
          predicate_->EvalSelection(in_, child_->schema(), &sel_));
      if (sel_.empty()) continue;
      batch->columns = in_.columns;
      batch->offset = in_.offset;
      batch->length = in_.length;
      batch->has_sel = true;
      batch->sel = std::move(sel_);
      return Status::OK();
    }
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  ColumnarCursorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  ColumnBatch in_;
  std::vector<uint32_t> sel_;
};

/// Columnar projection for bare uncast column references (the node checks
/// before constructing): output batches alias the input columns, remapped —
/// zero copies. Type inference mirrors ProjectCursor: an output column's
/// type is the type of the first non-null value that flows past.
class ColumnarProjectCursor : public ColumnarCursor {
 public:
  ColumnarProjectCursor(ColumnarCursorPtr child,
                        const std::vector<ProjectionItem>* items,
                        ExecContext* ctx)
      : child_(std::move(child)),
        items_(items),
        ctx_(ctx),
        inferred_(items->size(), DataType::kNull) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    ctx_->operator_invocations++;
    idx_.clear();
    for (const auto& item : *items_) {
      const std::string* name = ColumnRefName(*item.expr);
      if (name == nullptr) {
        return Status::Internal("non-column projection in columnar cursor");
      }
      DIP_ASSIGN_OR_RETURN(size_t i, child_->schema().RequireIndexOf(*name));
      idx_.push_back(i);
    }
    RebuildSchema();
    return Status::OK();
  }
  Status Next(ColumnBatch* batch) override {
    batch->clear();
    DIP_RETURN_NOT_OK(child_->Next(&in_));
    if (in_.empty()) return Status::OK();
    ctx_->rows_processed += in_.size();
    bool inferred_changed = false;
    batch->columns.reserve(idx_.size());
    for (size_t i = 0; i < idx_.size(); ++i) {
      if (idx_[i] >= in_.columns.size()) {
        return Status::Internal("batch narrower than schema");
      }
      batch->columns.push_back(in_.columns[idx_[i]]);
      if (inferred_[i] == DataType::kNull) {
        const ColumnVector& col = *in_.columns[idx_[i]];
        for (size_t r = 0; r < in_.size(); ++r) {
          uint32_t p = in_.phys(r);
          if (col.IsNull(p)) continue;
          inferred_[i] = col.rep() == ColumnVector::Rep::kValue
                             ? col.GetValue(p).type()
                             : col.value_type();
          inferred_changed = true;
          break;
        }
      }
    }
    batch->offset = in_.offset;
    batch->length = in_.length;
    batch->has_sel = in_.has_sel;
    batch->sel = in_.sel;
    if (inferred_changed) RebuildSchema();
    return Status::OK();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  void RebuildSchema() {
    Schema s;
    for (size_t i = 0; i < items_->size(); ++i) {
      s.AddColumn((*items_)[i].name, inferred_[i]);
    }
    schema_ = std::move(s);
  }

  ColumnarCursorPtr child_;
  const std::vector<ProjectionItem>* items_;
  ExecContext* ctx_;
  std::vector<DataType> inferred_;
  std::vector<size_t> idx_;
  Schema schema_;
  ColumnBatch in_;
};

/// Numeric view of a typed column cell (kInt/kDouble reps only).
double ColNum(const ColumnVector& c, uint32_t p) {
  return c.rep() == ColumnVector::Rep::kInt ? static_cast<double>(c.ints()[p])
                                            : c.doubles()[p];
}

/// Blocking columnar aggregation (kColumnar mode, unlimited budget).
/// Consumes a columnar child. While every batch has non-NULL INT64 group
/// columns and numeric aggregate inputs, rows accumulate straight from the
/// typed arrays into the shared AggGroupTable's raw INT64 keys. The first
/// batch of another shape switches accumulation to the row path for the
/// rest of the input (the table itself migrates on the first non-INT64
/// key). Output rows, schema, order (serialized-key lexicographic), and
/// per-group double-summation order are identical to the row
/// implementation.
class ColumnarAggregateCursor : public BatchCursor {
 public:
  ColumnarAggregateCursor(ColumnarCursorPtr child,
                          const std::vector<std::string>* group_by,
                          const std::vector<AggregateItem>* aggs,
                          ExecContext* ctx)
      : child_(std::move(child)), group_by_(group_by), aggs_(aggs), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    DIP_RETURN_NOT_OK(ResolveAggIndexes(child_->schema(), *group_by_, *aggs_,
                                        &group_idx_, &agg_idx_));
    AggGroupTable groups(group_idx_, aggs_->size());
    ColumnBatch in;
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      // The fast path keeps numeric min/max mirrors the row path does not
      // update, so once off it accumulation stays on the row path.
      if (fast_ && !FastEligible(in)) fast_ = false;
      if (fast_) {
        AccumulateFast(in, &groups);
      } else {
        for (size_t r = 0; r < in.size(); ++r) {
          Row row = MaterializeColumnRow(in, r);
          DIP_RETURN_NOT_OK(
              AccumulateAggValues(row, *aggs_, agg_idx_, groups.Find(row)));
        }
      }
    }
    ctx_->operator_invocations++;
    out_schema_ = AggOutputSchema(child_->schema(), *group_by_, group_idx_,
                                  *aggs_);
    groups.ForEachOrdered([&](const std::string&, const AggGroupState& st) {
      out_rows_.push_back(FinalizeAggGroup(st, *aggs_));
    });
    CloseChild();
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    size_t n = std::min(kBatchCapacity, out_rows_.size() - pos_);
    batch->rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch->rows.push_back(std::move(out_rows_[pos_ + i]));
    }
    pos_ += n;
    return Status::OK();
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return out_schema_; }

 private:
  bool FastEligible(const ColumnBatch& in) const {
    for (size_t gi : group_idx_) {
      if (gi >= in.columns.size()) return false;
      const ColumnVector& c = *in.columns[gi];
      if (c.rep() != ColumnVector::Rep::kInt ||
          c.value_type() != DataType::kInt64 || c.has_nulls()) {
        return false;
      }
    }
    for (size_t a = 0; a < aggs_->size(); ++a) {
      if (agg_idx_[a] == SIZE_MAX) continue;
      if (agg_idx_[a] >= in.columns.size()) return false;
      if ((*aggs_)[a].func == AggFunc::kCount) continue;  // only needs IsNull
      ColumnVector::Rep r = in.columns[agg_idx_[a]]->rep();
      if (r != ColumnVector::Rep::kInt && r != ColumnVector::Rep::kDouble &&
          r != ColumnVector::Rep::kEmpty) {
        return false;
      }
    }
    return true;
  }

  void AccumulateFast(const ColumnBatch& in, AggGroupTable* groups) {
    const size_t naggs = aggs_->size();
    const size_t n = in.size();
    for (size_t r = 0; r < n; ++r) {
      uint32_t p = in.phys(r);
      cells_.clear();
      for (size_t gi : group_idx_) cells_.push_back(in.columns[gi]->ints()[p]);
      AggGroupState& st = *groups->FindInt(cells_, [&] {
        Row key;
        for (size_t gi : group_idx_) key.push_back(in.columns[gi]->GetValue(p));
        return key;
      });
      for (size_t a = 0; a < naggs; ++a) {
        const size_t ai = agg_idx_[a];
        if ((*aggs_)[a].func == AggFunc::kCount) {
          if (ai == SIZE_MAX || !in.columns[ai]->IsNull(p)) st.count[a]++;
          continue;
        }
        const ColumnVector& col = *in.columns[ai];
        if (col.IsNull(p)) continue;
        double num = ColNum(col, p);
        st.sum[a] += num;
        st.count[a]++;
        if (col.value_type() != DataType::kInt64) st.all_int[a] = false;
        if (st.count[a] == 1 || num < st.min_num[a]) {
          st.min_num[a] = num;
          st.min_v[a] = col.GetValue(p);
        }
        if (st.count[a] == 1 || num > st.max_num[a]) {
          st.max_num[a] = num;
          st.max_v[a] = col.GetValue(p);
        }
      }
    }
  }

  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  ColumnarCursorPtr child_;
  const std::vector<std::string>* group_by_;
  const std::vector<AggregateItem>* aggs_;
  ExecContext* ctx_;
  std::vector<size_t> group_idx_, agg_idx_;
  bool fast_ = true;
  std::vector<int64_t> cells_;
  Schema out_schema_;
  std::vector<Row> out_rows_;
  size_t pos_ = 0;
  bool child_closed_ = false;
};

/// --- Spill cursors -------------------------------------------------------
///
/// Engaged by the blocking operators' MakeCursor when the thread's memory
/// budget is non-zero. Every cursor buffers input up to the budget; if end
/// of stream arrives under budget it runs the exact in-memory row
/// algorithm, otherwise it partitions runs to disk and merges/re-probes out
/// of core. Rows, order, and cost counters are identical either way —
/// disk re-reads are never re-charged.

/// External merge sort. Runs hold consecutive input chunks, each sorted
/// stably; the k-way merge breaks key ties by run index, which together
/// reproduce one global stable_sort bit for bit.
class SpillSortCursor : public BatchCursor {
 public:
  SpillSortCursor(CursorPtr child, const std::vector<SortKey>* keys,
                  ExecContext* ctx)
      : child_(std::move(child)), keys_(keys), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    for (const auto& k : *keys_) {
      DIP_ASSIGN_OR_RETURN(size_t i,
                           child_->schema().RequireIndexOf(k.column));
      idx_.push_back(i);
      asc_.push_back(k.ascending);
    }
    const size_t budget = CurrentMemoryBudget();
    Batch in;
    size_t bytes = 0;
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      if (in.borrowed()) {
        for (const Row* r : in.refs) {
          bytes += ApproxRowBytes(*r);
          buffer_.push_back(*r);
        }
      } else {
        for (Row& r : in.rows) {
          bytes += ApproxRowBytes(r);
          buffer_.push_back(std::move(r));
        }
      }
      if (budget > 0 && bytes > budget) {
        DIP_RETURN_NOT_OK(FlushRun());
        bytes = 0;
      }
    }
    schema_ = child_->schema();
    CloseChild();
    ctx_->operator_invocations++;
    if (runs_ == 0) {
      SortBuffer();
      pos_ = 0;
      return Status::OK();
    }
    if (!buffer_.empty()) DIP_RETURN_NOT_OK(FlushRun());
    CountSpillMerge();
    for (size_t r = 0; r < runs_; ++r) {
      readers_.push_back(
          std::make_unique<SpillRunReader>(dir_, RunName("sort_", r)));
      Row row;
      if (readers_.back()->Next(&row)) heap_.push_back({std::move(row), r});
    }
    std::make_heap(heap_.begin(), heap_.end(), HeapCmp{this});
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    if (runs_ == 0) {
      size_t n = std::min(kBatchCapacity, buffer_.size() - pos_);
      batch->rows.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch->rows.push_back(std::move(buffer_[pos_ + i]));
      }
      pos_ += n;
      return Status::OK();
    }
    HeapCmp cmp{this};
    while (batch->rows.size() < kBatchCapacity && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      Entry e = std::move(heap_.back());
      heap_.pop_back();
      batch->rows.push_back(std::move(e.row));
      Row next;
      if (readers_[e.run]->Next(&next)) {
        heap_.push_back({std::move(next), e.run});
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    return Status::OK();
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return schema_; }

 private:
  struct Entry {
    Row row;
    size_t run;
  };
  struct HeapCmp {
    const SpillSortCursor* c;
    // std::*_heap builds a max-heap; report "a after b" so the smallest
    // (key, run) pair pops first.
    bool operator()(const Entry& a, const Entry& b) const {
      if (c->RowLess(b.row, a.row)) return true;
      if (c->RowLess(a.row, b.row)) return false;
      return b.run < a.run;  // tie: earlier run first (stability)
    }
  };

  bool RowLess(const Row& a, const Row& b) const {
    for (size_t k = 0; k < idx_.size(); ++k) {
      int c = a[idx_[k]].Compare(b[idx_[k]]);
      if (c != 0) return asc_[k] ? c < 0 : c > 0;
    }
    return false;
  }
  void SortBuffer() {
    std::stable_sort(
        buffer_.begin(), buffer_.end(),
        [this](const Row& a, const Row& b) { return RowLess(a, b); });
  }
  Status FlushRun() {
    if (dir_ == nullptr) dir_ = std::make_shared<SpillDir>();
    SortBuffer();
    SpillRunWriter w(dir_, RunName("sort_", runs_));
    for (const Row& r : buffer_) w.Add(r);
    DIP_RETURN_NOT_OK(w.Finish());
    runs_++;
    buffer_.clear();
    return Status::OK();
  }
  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  CursorPtr child_;
  const std::vector<SortKey>* keys_;
  ExecContext* ctx_;
  std::vector<size_t> idx_;
  std::vector<bool> asc_;
  std::vector<Row> buffer_;
  size_t pos_ = 0;
  std::shared_ptr<SpillDir> dir_;
  size_t runs_ = 0;
  std::vector<std::unique_ptr<SpillRunReader>> readers_;
  std::vector<Entry> heap_;
  Schema schema_;
  bool child_closed_ = false;
};

/// Grouped aggregation under a memory budget. Over-budget input rows are
/// hash-partitioned RAW (by serialized group key) so each group lands
/// wholly in one partition with its rows in arrival order — per-group
/// double summation stays bit-identical to the in-memory path. Each
/// partition is aggregated independently, its groups written as a
/// key-sorted run, and the runs k-way merged by key, reproducing the
/// in-memory std::map's global serialized-key order.
class SpillAggregateCursor : public BatchCursor {
 public:
  SpillAggregateCursor(CursorPtr child,
                       const std::vector<std::string>* group_by,
                       const std::vector<AggregateItem>* aggs,
                       ExecContext* ctx)
      : child_(std::move(child)), group_by_(group_by), aggs_(aggs), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    DIP_RETURN_NOT_OK(ResolveAggIndexes(child_->schema(), *group_by_, *aggs_,
                                        &group_idx_, &agg_idx_));
    const size_t budget = CurrentMemoryBudget();
    Batch in;
    size_t bytes = 0;
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      for (size_t i = 0; i < in.size(); ++i) {
        Row row = in.borrowed() ? *in.refs[i] : std::move(in.rows[i]);
        if (!spilled_) {
          bytes += ApproxRowBytes(row);
          buffer_.push_back(std::move(row));
          if (budget > 0 && bytes > budget) StartSpill();
        } else {
          RouteRow(row);
        }
      }
    }
    out_schema_ = AggOutputSchema(child_->schema(), *group_by_, group_idx_,
                                  *aggs_);
    CloseChild();
    ctx_->operator_invocations++;
    if (!spilled_) {
      AggGroupTable groups(group_idx_, aggs_->size());
      for (const Row& row : buffer_) {
        DIP_RETURN_NOT_OK(
            AccumulateAggValues(row, *aggs_, agg_idx_, groups.Find(row)));
      }
      buffer_.clear();
      groups.ForEachOrdered([&](const std::string&, const AggGroupState& st) {
        out_rows_.push_back(FinalizeAggGroup(st, *aggs_));
      });
      pos_ = 0;
      return Status::OK();
    }
    for (auto& w : writers_) DIP_RETURN_NOT_OK(w->Finish());
    CountSpillMerge();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      AggGroupTable groups(group_idx_, aggs_->size());
      {
        SpillRunReader reader(dir_, RunName("agg_in_", p));
        Row row;
        while (reader.Next(&row)) {
          DIP_RETURN_NOT_OK(
              AccumulateAggValues(row, *aggs_, agg_idx_, groups.Find(row)));
        }
      }
      SpillRunWriter w(dir_, RunName("agg_out_", p));
      groups.ForEachOrdered(
          [&](const std::string& key_str, const AggGroupState& st) {
            w.AddKeyed(0, key_str, FinalizeAggGroup(st, *aggs_));
          });
      DIP_RETURN_NOT_OK(w.Finish());
    }
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      readers_.push_back(
          std::make_unique<SpillRunReader>(dir_, RunName("agg_out_", p)));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_.back()->Next(&tag, &key, &row)) {
        heap_.push_back({std::move(key), std::move(row), p});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), KeyHeapCmp{});
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    if (!spilled_) {
      size_t n = std::min(kBatchCapacity, out_rows_.size() - pos_);
      batch->rows.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch->rows.push_back(std::move(out_rows_[pos_ + i]));
      }
      pos_ += n;
      return Status::OK();
    }
    KeyHeapCmp cmp;
    while (batch->rows.size() < kBatchCapacity && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      KeyEntry e = std::move(heap_.back());
      heap_.pop_back();
      batch->rows.push_back(std::move(e.row));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_[e.run]->Next(&tag, &key, &row)) {
        heap_.push_back({std::move(key), std::move(row), e.run});
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    return Status::OK();
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return out_schema_; }

 private:
  void StartSpill() {
    spilled_ = true;
    dir_ = std::make_shared<SpillDir>();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      writers_.push_back(
          std::make_unique<SpillRunWriter>(dir_, RunName("agg_in_", p)));
    }
    for (const Row& row : buffer_) RouteRow(row);
    buffer_.clear();
  }
  void RouteRow(const Row& row) {
    key_buf_.clear();
    AppendRowKeyString(row, group_idx_, &key_buf_);
    writers_[Fnv1a(key_buf_) % kSpillPartitions]->Add(row);
  }
  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  CursorPtr child_;
  const std::vector<std::string>* group_by_;
  const std::vector<AggregateItem>* aggs_;
  ExecContext* ctx_;
  std::vector<size_t> group_idx_, agg_idx_;
  bool spilled_ = false;
  std::string key_buf_;
  std::vector<Row> buffer_;
  std::shared_ptr<SpillDir> dir_;
  std::vector<std::unique_ptr<SpillRunWriter>> writers_;
  std::vector<std::unique_ptr<SpillRunReader>> readers_;
  std::vector<KeyEntry> heap_;
  Schema out_schema_;
  std::vector<Row> out_rows_;
  size_t pos_ = 0;
  bool child_closed_ = false;
};

/// UNION DISTINCT under a memory budget. Arriving rows are tagged with a
/// global arrival sequence; over budget they hash-partition by key (the
/// same HashRowKey the in-memory dedup uses, so Compare-equal rows always
/// share a partition). Per partition, first occurrences survive (file order
/// is ascending sequence) and survivor runs merge back by sequence —
/// exactly the in-memory first-occurrence arrival order.
class SpillUnionDistinctCursor : public BatchCursor {
 public:
  SpillUnionDistinctCursor(std::vector<CursorPtr> children,
                           const std::vector<std::string>* key_columns,
                           ExecContext* ctx)
      : children_(std::move(children)), key_columns_(key_columns), ctx_(ctx) {}

  Status Open() override {
    if (children_.empty()) {
      return Status::InvalidArgument("UNION of zero inputs");
    }
    const size_t budget = CurrentMemoryBudget();
    uint64_t seq = 0;
    size_t bytes = 0;
    for (size_t c = 0; c < children_.size(); ++c) {
      BatchCursor* child = children_[c].get();
      DIP_RETURN_NOT_OK(child->Open());
      if (c == 0) {
        // Keys resolve against the first input's schema (column names are
        // fixed from Open even while types are still provisional).
        if (key_columns_->empty()) {
          for (size_t i = 0; i < child->schema().num_columns(); ++i) {
            key_idx_.push_back(i);
          }
        } else {
          for (const auto& k : *key_columns_) {
            DIP_ASSIGN_OR_RETURN(size_t i, child->schema().RequireIndexOf(k));
            key_idx_.push_back(i);
          }
        }
      }
      Batch in;
      for (;;) {
        DIP_RETURN_NOT_OK(child->Next(&in));
        if (in.empty()) break;
        ctx_->rows_processed += in.size();
        for (size_t i = 0; i < in.size(); ++i) {
          Row row = in.borrowed() ? *in.refs[i] : std::move(in.rows[i]);
          if (!spilled_) {
            bytes += ApproxRowBytes(row);
            buffer_.push_back({seq, std::move(row), 0});
            if (budget > 0 && bytes > budget) StartSpill();
          } else {
            RouteRow(seq, row);
          }
          ++seq;
        }
      }
      if (c == 0) {
        schema_ = child->schema();
      } else if (child->schema().num_columns() != schema_.num_columns()) {
        return Status::TypeMismatch("UNION input arity mismatch");
      }
      child->Close();
      closed_upto_ = c + 1;
    }
    ctx_->operator_invocations++;
    if (!spilled_) {
      std::unordered_multimap<size_t, size_t> seen;  // hash -> out row index
      for (auto& e : buffer_) {
        if (!IsDuplicate(e.row, out_rows_, seen)) {
          seen.emplace(HashRowKey(e.row, key_idx_), out_rows_.size());
          out_rows_.push_back(std::move(e.row));
        }
      }
      buffer_.clear();
      pos_ = 0;
      return Status::OK();
    }
    for (auto& w : writers_) DIP_RETURN_NOT_OK(w->Finish());
    CountSpillMerge();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      SpillRunReader reader(dir_, RunName("union_in_", p));
      SpillRunWriter keep(dir_, RunName("union_out_", p));
      std::unordered_multimap<size_t, size_t> seen;
      std::vector<Row> kept;
      uint64_t tag;
      std::string key;
      Row row;
      while (reader.Next(&tag, &key, &row)) {
        if (!IsDuplicate(row, kept, seen)) {
          keep.AddTagged(tag, row);
          seen.emplace(HashRowKey(row, key_idx_), kept.size());
          kept.push_back(std::move(row));
        }
      }
      DIP_RETURN_NOT_OK(keep.Finish());
    }
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      readers_.push_back(
          std::make_unique<SpillRunReader>(dir_, RunName("union_out_", p)));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_.back()->Next(&tag, &key, &row)) {
        heap_.push_back({tag, std::move(row), p});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), SeqHeapCmp{});
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    if (!spilled_) {
      size_t n = std::min(kBatchCapacity, out_rows_.size() - pos_);
      batch->rows.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch->rows.push_back(std::move(out_rows_[pos_ + i]));
      }
      pos_ += n;
      return Status::OK();
    }
    SeqHeapCmp cmp;
    while (batch->rows.size() < kBatchCapacity && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      SeqEntry e = std::move(heap_.back());
      heap_.pop_back();
      batch->rows.push_back(std::move(e.row));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_[e.run]->Next(&tag, &key, &row)) {
        heap_.push_back({tag, std::move(row), e.run});
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    return Status::OK();
  }
  void Close() override {
    for (size_t c = closed_upto_; c < children_.size(); ++c) {
      children_[c]->Close();
    }
    closed_upto_ = children_.size();
  }
  const Schema& schema() const override { return schema_; }

 private:
  bool IsDuplicate(const Row& row, const std::vector<Row>& kept,
                   const std::unordered_multimap<size_t, size_t>& seen) const {
    auto range = seen.equal_range(HashRowKey(row, key_idx_));
    for (auto it = range.first; it != range.second; ++it) {
      const Row& prev = kept[it->second];
      bool equal = true;
      for (size_t k : key_idx_) {
        if (prev[k].Compare(row[k]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) return true;
    }
    return false;
  }
  void StartSpill() {
    spilled_ = true;
    dir_ = std::make_shared<SpillDir>();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      writers_.push_back(
          std::make_unique<SpillRunWriter>(dir_, RunName("union_in_", p)));
    }
    for (const auto& e : buffer_) RouteRow(e.seq, e.row);
    buffer_.clear();
  }
  void RouteRow(uint64_t seq, const Row& row) {
    writers_[HashRowKey(row, key_idx_) % kSpillPartitions]->AddTagged(seq,
                                                                      row);
  }

  std::vector<CursorPtr> children_;
  const std::vector<std::string>* key_columns_;
  ExecContext* ctx_;
  std::vector<size_t> key_idx_;
  bool spilled_ = false;
  std::vector<SeqEntry> buffer_;
  std::shared_ptr<SpillDir> dir_;
  std::vector<std::unique_ptr<SpillRunWriter>> writers_;
  std::vector<std::unique_ptr<SpillRunReader>> readers_;
  std::vector<SeqEntry> heap_;
  Schema schema_;
  std::vector<Row> out_rows_;
  size_t pos_ = 0;
  size_t closed_upto_ = 0;
};

/// Grace hash join under a memory budget. The build side buffers until the
/// budget trips, then hash-partitions to disk; once spilled, probe rows are
/// sequence-tagged and partitioned by the same key hash. Each partition
/// rebuilds its build multimap in arrival order — the equal_range iteration
/// order of equal keys depends only on their relative insertion order,
/// which partitioning preserves — and re-probes, so merging the joined runs
/// back by probe sequence reproduces the in-memory output exactly. Under
/// budget, the in-memory HashJoinCursor algorithm runs as is (streaming
/// probe).
class GraceHashJoinCursor : public BatchCursor {
 public:
  GraceHashJoinCursor(CursorPtr left, CursorPtr right,
                      const std::vector<std::string>* lkeys,
                      const std::vector<std::string>* rkeys, ExecContext* ctx)
      : left_(std::move(left)),
        right_(std::move(right)),
        lkeys_(lkeys),
        rkeys_(rkeys),
        ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(left_->Open());
    DIP_RETURN_NOT_OK(right_->Open());
    if (lkeys_->size() != rkeys_->size() || lkeys_->empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    for (const auto& k : *lkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, left_->schema().RequireIndexOf(k));
      lidx_.push_back(i);
    }
    for (const auto& k : *rkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, right_->schema().RequireIndexOf(k));
      ridx_.push_back(i);
    }
    const size_t budget = CurrentMemoryBudget();
    size_t bytes = 0;
    Batch in;
    for (;;) {
      DIP_RETURN_NOT_OK(right_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      for (size_t i = 0; i < in.size(); ++i) {
        Row row = in.borrowed() ? *in.refs[i] : std::move(in.rows[i]);
        if (!spilled_) {
          bytes += ApproxRowBytes(row);
          build_rows_.push_back(std::move(row));
          if (budget > 0 && bytes > budget) StartSpill();
        } else {
          build_writers_[HashRowKey(row, ridx_) % kSpillPartitions]->Add(row);
        }
      }
    }
    build_schema_ = right_->schema();
    right_->Close();
    right_closed_ = true;
    ctx_->operator_invocations++;
    if (!spilled_) {
      build_.reserve(build_rows_.size());
      for (size_t i = 0; i < build_rows_.size(); ++i) {
        build_.emplace(HashRowKey(build_rows_[i], ridx_), i);
      }
      return Status::OK();
    }
    // Spilled: sequence-tag and partition the probe side too.
    uint64_t seq = 0;
    for (;;) {
      DIP_RETURN_NOT_OK(left_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      for (size_t i = 0; i < in.size(); ++i) {
        const Row& lrow = in.row(i);
        probe_writers_[HashRowKey(lrow, lidx_) % kSpillPartitions]->AddTagged(
            seq, lrow);
        ++seq;
      }
    }
    left_schema_ = left_->schema();
    left_->Close();
    left_closed_ = true;
    for (auto& w : build_writers_) DIP_RETURN_NOT_OK(w->Finish());
    for (auto& w : probe_writers_) DIP_RETURN_NOT_OK(w->Finish());
    CountSpillMerge();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      std::vector<Row> part_build;
      {
        SpillRunReader r(dir_, RunName("join_build_", p));
        Row row;
        while (r.Next(&row)) part_build.push_back(std::move(row));
      }
      std::unordered_multimap<size_t, size_t> map;
      map.reserve(part_build.size());
      for (size_t i = 0; i < part_build.size(); ++i) {
        map.emplace(HashRowKey(part_build[i], ridx_), i);
      }
      SpillRunReader probe(dir_, RunName("join_probe_", p));
      SpillRunWriter out(dir_, RunName("join_out_", p));
      uint64_t tag;
      std::string key;
      Row lrow;
      while (probe.Next(&tag, &key, &lrow)) {
        auto range = map.equal_range(HashRowKey(lrow, lidx_));
        for (auto it = range.first; it != range.second; ++it) {
          const Row& rrow = part_build[it->second];
          if (!KeysMatch(lrow, rrow)) continue;
          out.AddTagged(tag, JoinRows(lrow, rrow));
        }
      }
      DIP_RETURN_NOT_OK(out.Finish());
    }
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      readers_.push_back(
          std::make_unique<SpillRunReader>(dir_, RunName("join_out_", p)));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_.back()->Next(&tag, &key, &row)) {
        heap_.push_back({tag, std::move(row), p});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), SeqHeapCmp{});
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    if (!spilled_) {
      for (;;) {
        DIP_RETURN_NOT_OK(left_->Next(&in_));
        if (in_.empty()) return Status::OK();
        for (size_t r = 0; r < in_.size(); ++r) {
          const Row& lrow = in_.row(r);
          ctx_->rows_processed++;
          auto range = build_.equal_range(HashRowKey(lrow, lidx_));
          for (auto it = range.first; it != range.second; ++it) {
            const Row& rrow = build_rows_[it->second];
            if (!KeysMatch(lrow, rrow)) continue;
            batch->rows.push_back(JoinRows(lrow, rrow));
          }
        }
        if (!batch->rows.empty()) return Status::OK();
      }
    }
    SeqHeapCmp cmp;
    while (batch->rows.size() < kBatchCapacity && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      SeqEntry e = std::move(heap_.back());
      heap_.pop_back();
      batch->rows.push_back(std::move(e.row));
      uint64_t tag;
      std::string key;
      Row row;
      if (readers_[e.run]->Next(&tag, &key, &row)) {
        heap_.push_back({tag, std::move(row), e.run});
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    return Status::OK();
  }
  void Close() override {
    if (!left_closed_) {
      left_closed_ = true;
      left_->Close();
    }
    if (!right_closed_) {
      right_closed_ = true;
      right_->Close();
    }
  }
  const Schema& schema() const override {
    // Rebuilt on demand: the probe-side schema may still be provisional
    // mid-stream in the in-memory mode (mirrors HashJoinCursor).
    Schema s = spilled_ ? left_schema_ : left_->schema();
    for (const auto& col : build_schema_.columns()) {
      std::string name = col.name;
      while (s.HasColumn(name)) name = "r_" + name;
      s.AddColumn(name, col.type, col.nullable);
    }
    schema_cache_ = std::move(s);
    return schema_cache_;
  }

 private:
  bool KeysMatch(const Row& lrow, const Row& rrow) const {
    for (size_t k = 0; k < lidx_.size(); ++k) {
      if (lrow[lidx_[k]].Compare(rrow[ridx_[k]]) != 0 ||
          lrow[lidx_[k]].is_null()) {
        return false;
      }
    }
    return true;
  }
  void StartSpill() {
    spilled_ = true;
    dir_ = std::make_shared<SpillDir>();
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      build_writers_.push_back(std::make_unique<SpillRunWriter>(
          dir_, RunName("join_build_", p)));
      probe_writers_.push_back(std::make_unique<SpillRunWriter>(
          dir_, RunName("join_probe_", p)));
    }
    for (const Row& row : build_rows_) {
      build_writers_[HashRowKey(row, ridx_) % kSpillPartitions]->Add(row);
    }
    build_rows_.clear();
  }

  CursorPtr left_, right_;
  const std::vector<std::string>* lkeys_;
  const std::vector<std::string>* rkeys_;
  ExecContext* ctx_;
  std::vector<size_t> lidx_, ridx_;
  bool spilled_ = false;
  std::vector<Row> build_rows_;
  std::unordered_multimap<size_t, size_t> build_;
  std::shared_ptr<SpillDir> dir_;
  std::vector<std::unique_ptr<SpillRunWriter>> build_writers_, probe_writers_;
  std::vector<std::unique_ptr<SpillRunReader>> readers_;
  std::vector<SeqEntry> heap_;
  Schema build_schema_, left_schema_;
  Batch in_;
  bool left_closed_ = false, right_closed_ = false;
  mutable Schema schema_cache_;
};

class ScanTableNode : public PlanNode {
 public:
  explicit ScanTableNode(const Table* table) : table_(table) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CursorPtr shim = TryColumnarShim(*this, ctx)) return shim;
    return std::make_unique<ScanTableCursor>(table_, ctx);
  }
  ColumnarCursorPtr MakeColumnarCursor(ExecContext* ctx) const override {
    return std::make_unique<ColumnarScanCursor>(table_, ctx);
  }
  std::string ToString() const override {
    return "Scan(" + table_->name() + ")";
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    ctx->operator_invocations++;
    RowSet out;
    out.schema = table_->schema();
    out.rows = table_->ScanAll();
    ctx->rows_processed += out.rows.size();
    return out;
  }

 private:
  const Table* table_;
};

class IndexRangeScanNode : public PlanNode {
 public:
  IndexRangeScanNode(const Table* table, std::string index_name, Value lo,
                     Value hi)
      : table_(table),
        index_name_(std::move(index_name)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}
  std::string ToString() const override {
    return "IndexRangeScan(" + table_->name() + "." + index_name_ + ", [" +
           lo_.ToString() + ", " + hi_.ToString() + "])";
  }

 protected:
  // Blocking in both modes: the ordered index delivers the full range.
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    ctx->operator_invocations++;
    RowSet out;
    out.schema = table_->schema();
    DIP_ASSIGN_OR_RETURN(out.rows, table_->LookupRange(index_name_, lo_, hi_));
    ctx->rows_processed += out.rows.size();
    return out;
  }

 private:
  const Table* table_;
  std::string index_name_;
  Value lo_, hi_;
};

class ScanValuesNode : public PlanNode {
 public:
  explicit ScanValuesNode(RowSet rows) : rows_(std::move(rows)) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    return std::make_unique<RowSliceCursor>(&rows_, ctx);
  }
  std::string ToString() const override {
    return StrFormat("Values(%zu rows)", rows_.rows.size());
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    ctx->operator_invocations++;
    ctx->rows_processed += rows_.rows.size();
    return rows_;
  }

 private:
  RowSet rows_;
};

class ScanValuesRefNode : public PlanNode {
 public:
  explicit ScanValuesRefNode(const RowSet* rows) : rows_(rows) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    return std::make_unique<RowSliceCursor>(rows_, ctx);
  }
  std::string ToString() const override {
    return StrFormat("ValuesRef(%zu rows)", rows_->rows.size());
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    ctx->operator_invocations++;
    ctx->rows_processed += rows_->rows.size();
    return *rows_;
  }

 private:
  const RowSet* rows_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CursorPtr shim = TryColumnarShim(*this, ctx)) return shim;
    return std::make_unique<FilterCursor>(child_->MakeCursor(ctx), predicate_,
                                          ctx);
  }
  ColumnarCursorPtr MakeColumnarCursor(ExecContext* ctx) const override {
    ColumnarCursorPtr child = child_->MakeColumnarCursor(ctx);
    if (child == nullptr) return nullptr;
    return std::make_unique<ColumnarFilterCursor>(std::move(child), predicate_,
                                                  ctx);
  }
  std::string ToString() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet in, child_->Execute(ctx));
    ctx->operator_invocations++;
    RowSet out;
    out.schema = in.schema;
    for (auto& row : in.rows) {
      ctx->rows_processed++;
      DIP_ASSIGN_OR_RETURN(Value keep, predicate_->Eval(row, in.schema));
      if (!keep.is_null() && keep.type() == DataType::kBool && keep.AsBool()) {
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanPtr child, std::vector<ProjectionItem> items)
      : child_(std::move(child)), items_(std::move(items)) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CursorPtr shim = TryColumnarShim(*this, ctx)) return shim;
    return std::make_unique<ProjectCursor>(child_->MakeCursor(ctx), &items_,
                                           ctx);
  }
  ColumnarCursorPtr MakeColumnarCursor(ExecContext* ctx) const override {
    // Columnar projection supports only bare uncast column references
    // (pure column remaps); anything computed falls back to the row path.
    for (const auto& item : items_) {
      if (item.cast_to != DataType::kNull ||
          ColumnRefName(*item.expr) == nullptr) {
        return nullptr;
      }
    }
    ColumnarCursorPtr child = child_->MakeColumnarCursor(ctx);
    if (child == nullptr) return nullptr;
    return std::make_unique<ColumnarProjectCursor>(std::move(child), &items_,
                                                   ctx);
  }
  std::string ToString() const override {
    std::vector<std::string> parts;
    for (const auto& i : items_) {
      parts.push_back(i.name + "=" + i.expr->ToString());
    }
    return "Project(" + StrJoin(parts, ", ") + ")";
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet in, child_->Execute(ctx));
    ctx->operator_invocations++;
    RowSet out;
    for (const auto& item : items_) {
      // Output column type: forced cast target, else inferred lazily below.
      out.schema.AddColumn(item.name, item.cast_to == DataType::kNull
                                          ? DataType::kNull
                                          : item.cast_to);
    }
    out.rows.reserve(in.rows.size());
    std::vector<DataType> inferred(items_.size(), DataType::kNull);
    for (const auto& row : in.rows) {
      ctx->rows_processed++;
      Row projected;
      projected.reserve(items_.size());
      for (size_t i = 0; i < items_.size(); ++i) {
        DIP_ASSIGN_OR_RETURN(Value v, items_[i].expr->Eval(row, in.schema));
        if (items_[i].cast_to != DataType::kNull) {
          DIP_ASSIGN_OR_RETURN(v, v.CastTo(items_[i].cast_to));
        }
        if (inferred[i] == DataType::kNull && !v.is_null()) {
          inferred[i] = v.type();
        }
        projected.push_back(std::move(v));
      }
      out.rows.push_back(std::move(projected));
    }
    // Fill inferred types into the schema for downstream consumers.
    Schema finalized;
    for (size_t i = 0; i < items_.size(); ++i) {
      DataType t = items_[i].cast_to != DataType::kNull ? items_[i].cast_to
                                                        : inferred[i];
      finalized.AddColumn(items_[i].name, t);
    }
    out.schema = finalized;
    return out;
  }

 private:
  PlanPtr child_;
  std::vector<ProjectionItem> items_;
};

class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right, std::vector<std::string> lkeys,
               std::vector<std::string> rkeys)
      : left_(std::move(left)),
        right_(std::move(right)),
        lkeys_(std::move(lkeys)),
        rkeys_(std::move(rkeys)) {}

  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CurrentMemoryBudget() > 0) {
      return std::make_unique<GraceHashJoinCursor>(left_->MakeCursor(ctx),
                                                   right_->MakeCursor(ctx),
                                                   &lkeys_, &rkeys_, ctx);
    }
    return std::make_unique<HashJoinCursor>(left_->MakeCursor(ctx),
                                            right_->MakeCursor(ctx), &lkeys_,
                                            &rkeys_, ctx);
  }

  std::string ToString() const override {
    return "HashJoin(" + StrJoin(lkeys_, ",") + " = " + StrJoin(rkeys_, ",") +
           ")";
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet l, left_->Execute(ctx));
    DIP_ASSIGN_OR_RETURN(RowSet r, right_->Execute(ctx));
    ctx->operator_invocations++;
    if (lkeys_.size() != rkeys_.size() || lkeys_.empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    std::vector<size_t> lidx, ridx;
    for (const auto& k : lkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, l.schema.RequireIndexOf(k));
      lidx.push_back(i);
    }
    for (const auto& k : rkeys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, r.schema.RequireIndexOf(k));
      ridx.push_back(i);
    }
    // Build on the right side.
    std::unordered_multimap<size_t, size_t> build;
    build.reserve(r.rows.size());
    for (size_t i = 0; i < r.rows.size(); ++i) {
      ctx->rows_processed++;
      build.emplace(HashRowKey(r.rows[i], ridx), i);
    }
    RowSet out;
    out.schema = l.schema;
    for (const auto& col : r.schema.columns()) {
      std::string name = col.name;
      while (out.schema.HasColumn(name)) name = "r_" + name;
      out.schema.AddColumn(name, col.type, col.nullable);
    }
    for (const auto& lrow : l.rows) {
      ctx->rows_processed++;
      size_t h = HashRowKey(lrow, lidx);
      auto range = build.equal_range(h);
      for (auto it = range.first; it != range.second; ++it) {
        const Row& rrow = r.rows[it->second];
        bool match = true;
        for (size_t k = 0; k < lidx.size(); ++k) {
          if (lrow[lidx[k]].Compare(rrow[ridx[k]]) != 0 ||
              lrow[lidx[k]].is_null()) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        out.rows.push_back(JoinRows(lrow, rrow));
      }
    }
    return out;
  }

 private:
  PlanPtr left_, right_;
  std::vector<std::string> lkeys_, rkeys_;
};

class UnionDistinctNode : public PlanNode {
 public:
  UnionDistinctNode(std::vector<PlanPtr> children,
                    std::vector<std::string> key_columns)
      : children_(std::move(children)), key_columns_(std::move(key_columns)) {}

  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CurrentMemoryBudget() == 0) return PlanNode::MakeCursor(ctx);
    std::vector<CursorPtr> kids;
    kids.reserve(children_.size());
    for (const auto& c : children_) kids.push_back(c->MakeCursor(ctx));
    return std::make_unique<SpillUnionDistinctCursor>(std::move(kids),
                                                      &key_columns_, ctx);
  }

  std::string ToString() const override {
    return StrFormat("UnionDistinct(%zu inputs, key=[%s])", children_.size(),
                     StrJoin(key_columns_, ",").c_str());
  }

 protected:
  // Blocking: dedup needs all inputs. Children stream via Execute dispatch.
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    if (children_.empty()) {
      return Status::InvalidArgument("UNION of zero inputs");
    }
    std::vector<RowSet> inputs;
    for (const auto& c : children_) {
      DIP_ASSIGN_OR_RETURN(RowSet rs, c->Execute(ctx));
      inputs.push_back(std::move(rs));
    }
    ctx->operator_invocations++;
    RowSet out;
    out.schema = inputs[0].schema;
    std::vector<size_t> key_idx;
    if (key_columns_.empty()) {
      for (size_t i = 0; i < out.schema.num_columns(); ++i) {
        key_idx.push_back(i);
      }
    } else {
      for (const auto& k : key_columns_) {
        DIP_ASSIGN_OR_RETURN(size_t i, out.schema.RequireIndexOf(k));
        key_idx.push_back(i);
      }
    }
    // Hash set over key projections with collision verification.
    std::unordered_multimap<size_t, size_t> seen;  // hash -> out row index
    for (auto& input : inputs) {
      if (input.schema.num_columns() != out.schema.num_columns()) {
        return Status::TypeMismatch("UNION input arity mismatch");
      }
      for (auto& row : input.rows) {
        ctx->rows_processed++;
        size_t h = HashRowKey(row, key_idx);
        bool duplicate = false;
        auto range = seen.equal_range(h);
        for (auto it = range.first; it != range.second; ++it) {
          const Row& prev = out.rows[it->second];
          bool equal = true;
          for (size_t k : key_idx) {
            if (prev[k].Compare(row[k]) != 0) {
              equal = false;
              break;
            }
          }
          if (equal) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          seen.emplace(h, out.rows.size());
          out.rows.push_back(std::move(row));
        }
      }
    }
    return out;
  }

 private:
  std::vector<PlanPtr> children_;
  std::vector<std::string> key_columns_;
};

class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanPtr child, std::vector<std::string> group_by,
                std::vector<AggregateItem> aggs)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CurrentMemoryBudget() > 0) {
      return std::make_unique<SpillAggregateCursor>(child_->MakeCursor(ctx),
                                                    &group_by_, &aggs_, ctx);
    }
    if (CurrentExecMode() == ExecMode::kColumnar) {
      if (ColumnarCursorPtr cc = child_->MakeColumnarCursor(ctx)) {
        return std::make_unique<ColumnarAggregateCursor>(std::move(cc),
                                                         &group_by_, &aggs_,
                                                         ctx);
      }
    }
    return PlanNode::MakeCursor(ctx);
  }

  std::string ToString() const override {
    return StrFormat("Aggregate(group=[%s], %zu aggs)",
                     StrJoin(group_by_, ",").c_str(), aggs_.size());
  }

 protected:
  // Blocking: groups close only at end of input. Child streams via Execute.
  // Shares the grouped-aggregation core with the columnar and spilling
  // cursors — one implementation of the group semantics for every mode.
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet in, child_->Execute(ctx));
    ctx->operator_invocations++;
    std::vector<size_t> group_idx, agg_idx;
    DIP_RETURN_NOT_OK(
        ResolveAggIndexes(in.schema, group_by_, aggs_, &group_idx, &agg_idx));
    AggGroupTable groups(group_idx, aggs_.size());
    for (const auto& row : in.rows) {
      ctx->rows_processed++;
      DIP_RETURN_NOT_OK(
          AccumulateAggValues(row, aggs_, agg_idx, groups.Find(row)));
    }
    RowSet out;
    out.schema = AggOutputSchema(in.schema, group_by_, group_idx, aggs_);
    groups.ForEachOrdered([&](const std::string&, const AggGroupState& st) {
      out.rows.push_back(FinalizeAggGroup(st, aggs_));
    });
    return out;
  }

 private:
  PlanPtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggregateItem> aggs_;
};

class SortNode : public PlanNode {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    if (CurrentMemoryBudget() == 0) return PlanNode::MakeCursor(ctx);
    return std::make_unique<SpillSortCursor>(child_->MakeCursor(ctx), &keys_,
                                             ctx);
  }
  std::string ToString() const override {
    std::vector<std::string> parts;
    for (const auto& k : keys_) {
      parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
    }
    return "Sort(" + StrJoin(parts, ", ") + ")";
  }

 protected:
  // Blocking: order is only known once all input has arrived.
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet in, child_->Execute(ctx));
    ctx->operator_invocations++;
    ctx->rows_processed += in.rows.size();
    std::vector<size_t> idx;
    std::vector<bool> asc;
    for (const auto& k : keys_) {
      DIP_ASSIGN_OR_RETURN(size_t i, in.schema.RequireIndexOf(k.column));
      idx.push_back(i);
      asc.push_back(k.ascending);
    }
    std::stable_sort(in.rows.begin(), in.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < idx.size(); ++k) {
                         int c = a[idx[k]].Compare(b[idx[k]]);
                         if (c != 0) return asc[k] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    return in;
  }

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    return std::make_unique<LimitCursor>(child_->MakeCursor(ctx), limit_, ctx);
  }
  std::string ToString() const override {
    return StrFormat("Limit(%zu)", limit_);
  }

 protected:
  Result<RowSet> ExecuteMaterialized(ExecContext* ctx) const override {
    DIP_ASSIGN_OR_RETURN(RowSet in, child_->Execute(ctx));
    ctx->operator_invocations++;
    if (in.rows.size() > limit_) in.rows.resize(limit_);
    ctx->rows_processed += in.rows.size();
    return in;
  }

 private:
  PlanPtr child_;
  size_t limit_;
};

}  // namespace

PlanPtr ScanTable(const Table* table) {
  return std::make_shared<ScanTableNode>(table);
}
PlanPtr IndexRangeScan(const Table* table, std::string index_name, Value lo,
                       Value hi) {
  return std::make_shared<IndexRangeScanNode>(table, std::move(index_name),
                                              std::move(lo), std::move(hi));
}
PlanPtr ScanValues(RowSet rows) {
  return std::make_shared<ScanValuesNode>(std::move(rows));
}
PlanPtr ScanValuesRef(const RowSet* rows) {
  return std::make_shared<ScanValuesRefNode>(rows);
}
PlanPtr Filter(PlanPtr child, ExprPtr predicate) {
  return std::make_shared<FilterNode>(std::move(child), std::move(predicate));
}
PlanPtr Project(PlanPtr child, std::vector<ProjectionItem> items) {
  return std::make_shared<ProjectNode>(std::move(child), std::move(items));
}
PlanPtr HashJoin(PlanPtr left, PlanPtr right,
                 std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys) {
  return std::make_shared<HashJoinNode>(std::move(left), std::move(right),
                                        std::move(left_keys),
                                        std::move(right_keys));
}
PlanPtr UnionDistinct(std::vector<PlanPtr> children,
                      std::vector<std::string> key_columns) {
  return std::make_shared<UnionDistinctNode>(std::move(children),
                                             std::move(key_columns));
}
PlanPtr Distinct(PlanPtr child) {
  std::vector<PlanPtr> children{std::move(child)};
  return UnionDistinct(std::move(children), {});
}
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateItem> aggregates) {
  return std::make_shared<AggregateNode>(std::move(child), std::move(group_by),
                                         std::move(aggregates));
}
PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys) {
  return std::make_shared<SortNode>(std::move(child), std::move(keys));
}
PlanPtr Limit(PlanPtr child, size_t limit) {
  return std::make_shared<LimitNode>(std::move(child), limit);
}

Result<size_t> InsertInto(Table* table, const RowSet& rows) {
  size_t inserted = 0;
  for (const auto& row : rows.rows) {
    Status st = table->Insert(row);
    if (st.ok()) {
      ++inserted;
    } else if (st.code() != StatusCode::kAlreadyExists) {
      return st;
    }
  }
  return inserted;
}

Result<size_t> UpsertInto(Table* table, const RowSet& rows) {
  size_t written = 0;
  for (const auto& row : rows.rows) {
    DIP_RETURN_NOT_OK(table->InsertOrReplace(row));
    ++written;
  }
  return written;
}

}  // namespace dipbench
