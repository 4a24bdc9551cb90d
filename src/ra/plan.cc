#include "src/ra/plan.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "src/common/string_util.h"

namespace dipbench {

size_t RowSet::ByteSize() const {
  // Memoized per row count: operators never mutate values in place at
  // constant cardinality, so a matching count means an unchanged payload.
  if (byte_size_cache_rows_ == rows.size()) return byte_size_cache_;
  size_t total = 0;
  for (const Value& v : rows.cells()) total += v.ByteSize();
  byte_size_cache_ = total;
  byte_size_cache_rows_ = rows.size();
  return total;
}

namespace {

/// Read-only tuple view of a batch from a cursor with `layout`: borrowed
/// batches already are pointer vectors; owned ones (a plain layout) get
/// one built in `scratch`.
TupleRefs BatchView(const Batch& in, const TupleLayout& layout,
                    std::vector<const Value*>* scratch) {
  if (in.borrowed()) return TupleRefs(in.refs.data(), in.size(), layout);
  scratch->clear();
  scratch->reserve(in.rows.size());
  for (RowView row : in.rows) scratch->push_back(row.data());
  return TupleRefs(scratch->data(), scratch->size(), layout);
}

/// Appends the logical rows of `batch` (from a cursor with `layout`) to
/// *out: owned cells move, each reference tuple's cells are copied into one
/// row at its final width. The one way operators without a tuple path
/// consume input.
Status AppendRows(Batch* batch, const TupleLayout& layout, RowSlab* out) {
  if (!batch->borrowed()) return out->Append(std::move(batch->rows));
  return TupleRefs(batch->refs.data(), batch->size(), layout).AppendTo(out);
}

/// Moves the next chunk of `rows`, from *pos on, into the owned batch. An
/// output that fits one batch is handed over whole, which leaves `rows`
/// empty: the next call emits the end of stream.
Status EmitOwned(RowSlab* rows, size_t* pos, Batch* batch) {
  if (*pos == 0 && rows->size() <= kBatchCapacity) {
    batch->rows = std::move(*rows);
    return Status::OK();
  }
  size_t n = std::min(kBatchCapacity, rows->size() - *pos);
  batch->rows.Reset(rows->width());
  batch->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DIP_RETURN_NOT_OK(batch->rows.AppendMoved((*rows)[*pos + i]));
  }
  *pos += n;
  return Status::OK();
}

}  // namespace

Result<RowSet> DrainCursor(BatchCursor* cursor) {
  DIP_RETURN_NOT_OK(cursor->Open());
  RowSet out;
  Batch batch;
  for (;;) {
    DIP_RETURN_NOT_OK(cursor->Next(&batch));
    if (batch.empty()) break;
    // No per-batch reserve: exact-sized reserves would defeat the vector's
    // geometric growth and reallocate once per batch.
    DIP_RETURN_NOT_OK(AppendRows(&batch, cursor->layout(), &out.rows));
  }
  // Read the schema only after end of stream: type-inferring operators
  // (Project) finalize it as the last rows pass through.
  out.schema = cursor->schema();
  cursor->Close();
  return out;
}

Result<RowSet> PlanNode::Execute(ExecContext* ctx) const {
  CursorPtr cursor = MakeCursor(ctx);
  return DrainCursor(cursor.get());
}

namespace {

/// Streams a table's live rows through Table::ScanCursor as borrowed
/// pointers — neither an up-front full copy nor per-batch row copies.
class ScanTableCursor : public BatchCursor {
 public:
  ScanTableCursor(const Table* table, ExecContext* ctx)
      : table_(table),
        ctx_(ctx),
        cursor_(table->Scan()),
        layout_(TupleLayout::Plain(table->schema().num_columns())) {}

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
  const TupleLayout& layout() const override { return layout_; }

 private:
  const Table* table_;
  ExecContext* ctx_;
  Table::ScanCursor cursor_;
  TupleLayout layout_;
};

/// Streams an in-memory RowSet it does not own, one chunk at a time.
class RowSliceCursor : public BatchCursor {
 public:
  RowSliceCursor(const RowSet* data, ExecContext* ctx)
      : data_(data),
        ctx_(ctx),
        layout_(TupleLayout::Plain(data->rows.width())) {}

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
      batch->refs.push_back(data_->rows[pos_ + i].data());
    }
    pos_ += n;
    ctx_->rows_processed += n;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return data_->schema; }
  const TupleLayout& layout() const override { return layout_; }

 private:
  const RowSet* data_;
  ExecContext* ctx_;
  TupleLayout layout_;
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
      TupleRefs view = BatchView(in_, child_->layout(), &view_scratch_);
      DIP_RETURN_NOT_OK(predicate_->EvalBatch(view, child_->schema(), &keep_));
      // Dropped rows are never copied: borrowed inputs forward the kept
      // tuples' pointers; owned inputs move the kept rows' cells out.
      batch->width = in_.width;
      if (!in_.borrowed()) batch->rows.Reset(in_.rows.width());
      for (size_t i = 0; i < view.size(); ++i) {
        const Value& k = keep_[i];
        if (!k.is_null() && k.type() == DataType::kBool && k.AsBool()) {
          if (in_.borrowed()) {
            batch->refs.insert(batch->refs.end(), view.tuple(i),
                               view.tuple(i) + in_.width);
          } else {
            DIP_RETURN_NOT_OK(batch->rows.AppendMoved(in_.rows[i]));
          }
        }
      }
      if (!batch->empty()) return Status::OK();
    }
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  const TupleLayout& layout() const override { return child_->layout(); }

 private:
  CursorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  Batch in_;
  std::vector<const Value*> view_scratch_;
  std::vector<Value> keep_;
};

/// Builds each output row exactly once, in place in the batch's slab,
/// reading bare column references straight from the input tuples' cells.
class ProjectCursor : public BatchCursor {
 public:
  ProjectCursor(CursorPtr child, const std::vector<ProjectionItem>* items,
                ExecContext* ctx)
      : child_(std::move(child)),
        items_(items),
        ctx_(ctx),
        inferred_(items->size(), DataType::kNull),
        layout_(TupleLayout::Plain(items->size())) {}

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
    TupleRefs view = BatchView(in_, child_->layout(), &view_scratch_);
    // Column-at-a-time: one EvalBatch per computed item per batch. Column
    // references resolve to their cell once per batch and skip the value
    // buffer entirely: bare ones are copied straight into the output rows
    // below, cast ones are cast straight from the cell.
    cols_.resize(items.size());
    cells_.resize(items.size());
    bare_.assign(items.size(), false);
    bool inferred_changed = false;
    for (size_t i = 0; i < items.size(); ++i) {
      const ProjectionItem& item = items[i];
      if (const std::string* col = ColumnRefName(*item.expr)) {
        DIP_ASSIGN_OR_RETURN(cells_[i], view.Resolve(*col, in_schema));
        if (item.cast_to == DataType::kNull) {
          bare_[i] = true;
          if (inferred_[i] == DataType::kNull) {
            for (size_t r = 0; r < view.size(); ++r) {
              const Value& v = view.at(r, cells_[i]);
              if (!v.is_null()) {
                inferred_[i] = v.type();
                inferred_changed = true;
                break;
              }
            }
          }
          continue;
        }
        cols_[i].clear();
        cols_[i].reserve(view.size());
        for (size_t r = 0; r < view.size(); ++r) {
          const Value& cell = view.at(r, cells_[i]);
          if (cell.type() == item.cast_to) {
            cols_[i].push_back(cell);  // what CastTo returns
          } else {
            DIP_ASSIGN_OR_RETURN(Value v, cell.CastTo(item.cast_to));
            cols_[i].push_back(std::move(v));
          }
        }
      } else {
        DIP_RETURN_NOT_OK(item.expr->EvalBatch(view, in_schema, &cols_[i]));
        if (item.cast_to != DataType::kNull) {
          for (Value& v : cols_[i]) {
            if (v.type() != item.cast_to) {
              DIP_ASSIGN_OR_RETURN(v, v.CastTo(item.cast_to));
            }
          }
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
    batch->rows.Reset(items.size());
    batch->rows.reserve(view.size());
    for (size_t r = 0; r < view.size(); ++r) {
      MutableRowView projected = batch->rows.AppendRow();
      for (size_t i = 0; i < items.size(); ++i) {
        if (bare_[i]) {
          projected[i] = view.at(r, cells_[i]);
        } else {
          projected[i] = std::move(cols_[i][r]);
        }
      }
    }
    if (inferred_changed) RebuildSchema();
    return Status::OK();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  const TupleLayout& layout() const override { return layout_; }

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
  TupleLayout layout_;
  Schema schema_;
  Batch in_;
  std::vector<const Value*> view_scratch_;
  std::vector<std::vector<Value>> cols_;
  std::vector<CellRef> cells_;  // per column-reference item
  std::vector<bool> bare_;      // uncast column reference: copied in place
};

/// The joined schema: probe columns, then build columns, a build column
/// whose name is taken getting "r_" prefixes until it is free.
Schema JoinedSchema(const Schema& left, const Schema& right) {
  Schema s = left;
  for (const auto& col : right.columns()) {
    std::string name = col.name;
    while (s.HasColumn(name)) name = "r_" + name;
    s.AddColumn(name, col.type, col.nullable);
  }
  return s;
}

const Value& CellAt(const Value* const* tuple, CellRef c) {
  return tuple[c.input][c.offset];
}

/// HashRowKey of the key cells of the logical row `tuple` forms.
size_t HashTupleKey(const Value* const* tuple,
                    const std::vector<CellRef>& keys) {
  size_t h = 0x345678;
  for (CellRef c : keys) h = h * 1000003 ^ CellAt(tuple, c).Hash();
  return h;
}

/// Build side of the hash join: one key hash per build row,
/// chained through flat arrays rather than one multimap node per row.
/// Chains run from the newest row to the oldest, so one probe's matches
/// come out in descending build-row order, which first-wins inserts
/// downstream of a join depend on.
class JoinHashTable {
 public:
  /// Indexes build rows 0..hashes.size()-1 by their key hashes.
  void Build(std::vector<size_t> hashes) {
    hashes_ = std::move(hashes);
    size_t buckets = 2;
    shift_ = 63;
    while (buckets < 2 * hashes_.size()) {
      buckets <<= 1;
      --shift_;
    }
    heads_.assign(buckets, kEnd);
    next_.resize(hashes_.size());
    for (size_t i = 0; i < hashes_.size(); ++i) {
      size_t& head = heads_[Bucket(hashes_[i])];
      next_[i] = head;
      head = i;
    }
  }

  /// Calls fn(i) for every build row i whose key hash is `h`, newest first.
  template <typename Fn>
  void ForEach(size_t h, const Fn& fn) const {
    for (size_t i = heads_[Bucket(h)]; i != kEnd; i = next_[i]) {
      if (hashes_[i] == h) fn(i);
    }
  }

 private:
  static constexpr size_t kEnd = SIZE_MAX;
  // Fibonacci hashing: the top bits of the product pick the bucket.
  size_t Bucket(size_t h) const {
    return (h * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  std::vector<size_t> hashes_, heads_, next_;
  int shift_ = 63;
};

/// In-memory hash join over reference tuples. The build side (right) is
/// drained at Open and kept as borrowed tuples — rows it was handed owned
/// are kept in the build_rows_ slab, and pointed into only once it stops
/// growing — hashed into a JoinHashTable. The probe side
/// streams, and each match is emitted as the probe tuple's pointers
/// followed by the build tuple's; no joined row is built. The joined
/// schema and the column→cell layout are computed once at Open.
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
    DIP_RETURN_NOT_OK(DrainBuild());
    ctx_->operator_invocations++;
    if (lkeys_->size() != rkeys_->size() || lkeys_->empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    for (const auto& k : *lkeys_) {
      DIP_RETURN_NOT_OK(left_->schema().RequireIndexOf(k).status());
    }
    const size_t bw = build_layout_.width();
    TupleRefs build(build_refs_.data(), build_refs_.size() / bw,
                    build_layout_);
    for (const auto& k : *rkeys_) {
      DIP_ASSIGN_OR_RETURN(CellRef c, build.Resolve(k, build_schema_));
      rcells_.push_back(c);
    }
    std::vector<size_t> hashes(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      ctx_->rows_processed++;
      hashes[i] = HashTupleKey(build.tuple(i), rcells_);
    }
    table_.Build(std::move(hashes));
    const TupleLayout& probe = left_->layout();
    layout_.row_widths = probe.row_widths;
    layout_.row_widths.insert(layout_.row_widths.end(),
                              build_layout_.row_widths.begin(),
                              build_layout_.row_widths.end());
    layout_.cells.clear();
    for (size_t c = 0; c < left_->schema().num_columns(); ++c) {
      layout_.cells.push_back(probe.Cell(c));
    }
    for (size_t c = 0; c < build_schema_.num_columns(); ++c) {
      CellRef cell = build_layout_.Cell(c);
      cell.input += static_cast<uint32_t>(probe.width());
      layout_.cells.push_back(cell);
    }
    schema_ = JoinedSchema(left_->schema(), build_schema_);
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    batch->width = layout_.width();
    const size_t pw = left_->layout().width();
    const size_t bw = build_layout_.width();
    for (;;) {
      DIP_RETURN_NOT_OK(left_->Next(&in_));
      SyncProbeTypes();
      if (in_.empty()) return Status::OK();
      TupleRefs probe = BatchView(in_, left_->layout(), &probe_scratch_);
      lcells_.clear();
      for (const auto& k : *lkeys_) {
        DIP_ASSIGN_OR_RETURN(CellRef c, probe.Resolve(k, left_->schema()));
        lcells_.push_back(c);
      }
      const size_t emitted_before = batch->refs.size();
      for (size_t r = 0; r < probe.size(); ++r) {
        ctx_->rows_processed++;
        const Value* const* lt = probe.tuple(r);
        table_.ForEach(HashTupleKey(lt, lcells_), [&](size_t i) {
          const Value* const* rt = &build_refs_[i * bw];
          for (size_t k = 0; k < lcells_.size(); ++k) {
            const Value& lv = CellAt(lt, lcells_[k]);
            if (lv.is_null() || lv.Compare(CellAt(rt, rcells_[k])) != 0) {
              return;
            }
          }
          batch->refs.insert(batch->refs.end(), lt, lt + pw);
          batch->refs.insert(batch->refs.end(), rt, rt + bw);
        });
      }
      // An owned probe batch is refilled by the next pull; the emitted
      // tuples point into it, so its slab moves, cells in place, into
      // probe_rows_ and lives on with this cursor.
      if (!in_.borrowed() && batch->refs.size() > emitted_before) {
        probe_rows_.push_back(std::move(in_.rows));
      }
      if (!batch->refs.empty()) return Status::OK();
    }
  }
  void Close() override { left_->Close(); }
  const Schema& schema() const override { return schema_; }
  const TupleLayout& layout() const override { return layout_; }

 private:
  /// Opens, drains and closes the build input, keeping its tuples.
  Status DrainBuild() {
    DIP_RETURN_NOT_OK(right_->Open());
    Batch in;
    for (;;) {
      DIP_RETURN_NOT_OK(right_->Next(&in));
      if (in.empty()) break;
      if (in.borrowed()) {
        build_refs_.insert(build_refs_.end(), in.refs.begin(), in.refs.end());
        continue;
      }
      // Pointed at build_rows_ below.
      build_refs_.insert(build_refs_.end(), in.rows.size(), nullptr);
      DIP_RETURN_NOT_OK(build_rows_.Append(std::move(in.rows)));
    }
    build_schema_ = right_->schema();
    build_layout_ = right_->layout();
    right_->Close();
    // Owned rows (only ever one-row tuples) are addressable once
    // build_rows_ stops growing: its cells move while it grows.
    size_t next_owned = 0;
    for (const Value*& p : build_refs_) {
      if (p == nullptr) p = build_rows_[next_owned++].data();
    }
    return Status::OK();
  }

  /// Names are fixed at Open, but a projection below the probe side infers
  /// its column types as rows pass; the joined schema follows them.
  void SyncProbeTypes() {
    const Schema& probe = left_->schema();
    for (size_t c = 0; c < probe.num_columns(); ++c) {
      if (probe.column(c).type != schema_.column(c).type ||
          probe.column(c).nullable != schema_.column(c).nullable) {
        schema_ = JoinedSchema(probe, build_schema_);
        return;
      }
    }
  }

  CursorPtr left_, right_;
  const std::vector<std::string>* lkeys_;
  const std::vector<std::string>* rkeys_;
  ExecContext* ctx_;
  Schema build_schema_, schema_;
  TupleLayout build_layout_, layout_;
  std::vector<const Value*> build_refs_;  // build tuples, tuple-major
  RowSlab build_rows_;                    // build rows handed over owned
  std::vector<CellRef> lcells_, rcells_;
  JoinHashTable table_;
  Batch in_;
  std::vector<const Value*> probe_scratch_;
  std::vector<RowSlab> probe_rows_;  // owned probe batches emitted from
};

/// --- Grouped aggregation ------------------------------------------------
///
/// The helpers below fix group semantics, double-summation order and
/// output shape. They read a group's input cells through the input's tuple
/// layout; plain rows are one-row tuples.

/// The running state of one aggregate in one group; each function reads
/// and updates only its own fields.
struct AggAccumulator {
  double sum = 0.0;      // SUM, AVG
  int64_t count = 0;     // COUNT, SUM, AVG
  int64_t int_sum = 0;   // SUM while every input is INT64
  bool all_int = true;   // SUM
  bool int_overflow = false;
  Value min_v, max_v;    // MIN, MAX
};

struct AggGroupState {
  Row key;  ///< the group cells of the group's first row
  std::vector<AggAccumulator> aggs;
};

void InitAggState(AggGroupState* st, Row key, size_t naggs) {
  st->key = std::move(key);
  st->aggs.assign(naggs, AggAccumulator{});
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

/// The input cell of each aggregate under `layout`; none for COUNT(*).
std::vector<std::optional<CellRef>> AggInputCells(
    const TupleLayout& layout, const std::vector<size_t>& agg_idx) {
  std::vector<std::optional<CellRef>> cells(agg_idx.size());
  for (size_t a = 0; a < agg_idx.size(); ++a) {
    if (agg_idx[a] != SIZE_MAX) cells[a] = layout.Cell(agg_idx[a]);
  }
  return cells;
}

/// Adds one SUM input: the double sum always (a group that sees a DOUBLE
/// keeps exactly the arithmetic it always had), and the checked INT64 sum
/// while every input is INT64 (`exact` non-null).
void AddToSum(AggAccumulator* acc, double num, const int64_t* exact) {
  acc->sum += num;
  acc->count++;
  if (exact == nullptr) {
    acc->all_int = false;
  } else if (acc->all_int &&
             __builtin_add_overflow(acc->int_sum, *exact, &acc->int_sum)) {
    acc->int_overflow = true;
  }
}

/// Folds one tuple's aggregate inputs into its group. Each aggregate
/// updates only the state its function reads.
Status AccumulateAggValues(const Value* const* tuple,
                           const std::vector<AggregateItem>& aggs,
                           const std::vector<std::optional<CellRef>>& cells,
                           AggGroupState* st) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggAccumulator& acc = st->aggs[a];
    const Value* v = cells[a] ? &CellAt(tuple, *cells[a]) : nullptr;
    if (aggs[a].func == AggFunc::kCount) {
      if (v == nullptr || !v->is_null()) acc.count++;
      continue;
    }
    if (v == nullptr || v->is_null()) continue;
    DIP_ASSIGN_OR_RETURN(double num, v->ToNumeric());
    switch (aggs[a].func) {
      case AggFunc::kSum: {
        const bool is_int = v->type() == DataType::kInt64;
        const int64_t exact = is_int ? v->AsInt() : 0;
        AddToSum(&acc, num, is_int ? &exact : nullptr);
        break;
      }
      case AggFunc::kAvg:
        acc.sum += num;
        acc.count++;
        break;
      case AggFunc::kMin:
        if (acc.min_v.is_null() || v->Compare(acc.min_v) < 0) acc.min_v = *v;
        break;
      case AggFunc::kMax:
        if (acc.max_v.is_null() || v->Compare(acc.max_v) > 0) acc.max_v = *v;
        break;
      case AggFunc::kCount:
        break;
    }
  }
  return Status::OK();
}

/// The aggregation cursor's group table.
///
/// Group identity is the serialized key: the group cells rendered and
/// joined like RowToString, so Int(5) and Double(5.0) are one group,
/// doubles group by their lossy "%.6g" rendering, and NULL renders as "".
/// A group keeps the key cells of its first row, and groups come out in
/// serialized-key order. While every key seen is a tuple of non-NULL INT64
/// cells the table is keyed by the cells themselves instead, in a flat
/// open-addressing index, and no string is built per row; INT64
/// renderings are injective, so both keyings make the same groups. The
/// first other key migrates every group to the serialized-key map for the
/// rest of the input.
class AggGroupTable {
 public:
  /// Groups by the columns `group_idx` of inputs shaped like `layout`.
  AggGroupTable(const std::vector<size_t>& group_idx,
                const TupleLayout& layout, size_t naggs)
      : naggs_(naggs) {
    for (size_t gi : group_idx) group_.push_back(layout.Cell(gi));
  }

  /// The group of `tuple`, created on first sight. The pointer is valid
  /// until the next lookup.
  AggGroupState* Find(const Value* const* tuple) {
    if (int_keyed_) {
      cells_.clear();
      for (CellRef c : group_) {
        const Value& v = CellAt(tuple, c);
        if (v.type() != DataType::kInt64) break;
        cells_.push_back(v.AsInt());
      }
      if (cells_.size() == group_.size()) return FindInt(tuple);
      MigrateToSerialized();
    }
    key_buf_.clear();
    for (size_t g = 0; g < group_.size(); ++g) {
      if (g > 0) key_buf_.push_back(',');
      key_buf_.append(CellAt(tuple, group_[g]).ToString());
    }
    auto it = by_key_.find(key_buf_);
    if (it == by_key_.end()) {
      it = by_key_.try_emplace(key_buf_).first;
      InitAggState(&it->second, KeyRow(tuple), naggs_);
    }
    return &it->second;
  }

  /// Calls fn(group) for every group in serialized-key order, stopping at
  /// the first error fn returns. fn may consume the group; the table is
  /// spent afterwards.
  template <typename Fn>
  Status ForEachOrdered(const Fn& fn) {
    if (!int_keyed_) {
      for (auto& [key, st] : by_key_) DIP_RETURN_NOT_OK(fn(st));
      return Status::OK();
    }
    std::vector<std::pair<std::string, AggGroupState*>> ordered;
    ordered.reserve(groups_.size());
    for (AggGroupState& st : groups_) {
      ordered.emplace_back(IntKeyString(st.key), &st);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [key, st] : ordered) DIP_RETURN_NOT_OK(fn(*st));
    return Status::OK();
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Find for the INT64 key cells_ of `tuple` while the table is still
  /// int-keyed (no non-INT64 key seen).
  AggGroupState* FindInt(const Value* const* tuple) {
    assert(int_keyed_);
    if (2 * (groups_.size() + 1) > slots_.size()) GrowSlots();
    const size_t mask = slots_.size() - 1;
    for (size_t s = HashInts(cells_) & mask;; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (g == kEmptySlot) {
        slots_[s] = static_cast<uint32_t>(groups_.size());
        raw_keys_.insert(raw_keys_.end(), cells_.begin(), cells_.end());
        groups_.emplace_back();
        InitAggState(&groups_.back(), KeyRow(tuple), naggs_);
        return &groups_.back();
      }
      if (std::equal(cells_.begin(), cells_.end(),
                     raw_keys_.begin() + g * cells_.size())) {
        return &groups_[g];
      }
    }
  }

  static size_t HashInts(std::span<const int64_t> cells) {
    uint64_t h = 0x345678;
    for (int64_t c : cells) {
      h = (h ^ static_cast<uint64_t>(c)) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 32;
    }
    return h;
  }

  /// RowToString of an all-INT64 key, without the per-cell strings.
  static std::string IntKeyString(const Row& key) {
    std::string out;
    char buf[24];
    for (size_t i = 0; i < key.size(); ++i) {
      if (i > 0) out.push_back(',');
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), key[i].AsInt());
      out.append(buf, end);
    }
    return out;
  }

  void GrowSlots() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmptySlot);
    const size_t mask = slots_.size() - 1;
    const size_t k = group_.size();
    for (size_t g = 0; g < groups_.size(); ++g) {
      std::span<const int64_t> cells(raw_keys_.data() + g * k, k);
      size_t s = HashInts(cells) & mask;
      while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(g);
    }
  }

  Row KeyRow(const Value* const* tuple) const {
    Row key;
    key.reserve(group_.size());
    for (CellRef c : group_) key.push_back(CellAt(tuple, c));
    return key;
  }

  void MigrateToSerialized() {
    for (AggGroupState& st : groups_) {
      by_key_.emplace(RowToString(st.key), std::move(st));
    }
    groups_.clear();
    raw_keys_.clear();
    slots_.clear();
    int_keyed_ = false;
  }

  std::vector<CellRef> group_;
  size_t naggs_;
  bool int_keyed_ = true;
  std::vector<AggGroupState> groups_;  // int-keyed, in arrival order
  std::vector<int64_t> raw_keys_;      // group g's cells at [g*k, g*k+k)
  std::vector<uint32_t> slots_;        // open addressing over groups_
  std::map<std::string, AggGroupState> by_key_;  // serialized key -> group
  std::vector<int64_t> cells_;
  std::string key_buf_;
};

/// Appends the output row of a group to *out, whose width is the key
/// cells plus one per aggregate: its key cells, then one value per
/// aggregate. Consumes the group's key.
Status FinalizeAggGroup(AggGroupState* st,
                        const std::vector<AggregateItem>& aggs,
                        RowSlab* out) {
  MutableRowView row = out->AppendRow();
  std::move(st->key.begin(), st->key.end(), row.begin());
  Value* cell = row.data() + st->key.size();
  for (size_t a = 0; a < aggs.size(); ++a, ++cell) {
    const AggAccumulator& acc = st->aggs[a];
    switch (aggs[a].func) {
      case AggFunc::kCount:
        *cell = Value::Int(acc.count);
        break;
      case AggFunc::kSum:
        if (acc.count == 0) {
          *cell = Value::Null();
        } else if (!acc.all_int) {
          *cell = Value::Double(acc.sum);
        } else if (acc.int_overflow) {
          return Status::InvalidArgument("SUM of " + aggs[a].input_column +
                                         " overflows INT64");
        } else {
          *cell = Value::Int(acc.int_sum);
        }
        break;
      case AggFunc::kAvg:
        *cell = acc.count == 0 ? Value::Null()
                               : Value::Double(acc.sum / acc.count);
        break;
      case AggFunc::kMin:
        *cell = acc.min_v;
        break;
      case AggFunc::kMax:
        *cell = acc.max_v;
        break;
    }
  }
  return Status::OK();
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

/// Grouped aggregation. It streams its input: each batch is folded into
/// the group table as it arrives, the child's tuples read in place through
/// its layout, and the groups are emitted after end of stream, in
/// serialized-key order.
class AggregateCursor : public BatchCursor {
 public:
  AggregateCursor(CursorPtr child, const std::vector<std::string>* group_by,
                  const std::vector<AggregateItem>* aggs, ExecContext* ctx)
      : child_(std::move(child)), group_by_(group_by), aggs_(aggs), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    DIP_RETURN_NOT_OK(ResolveAggIndexes(child_->schema(), *group_by_, *aggs_,
                                        &group_idx_, &agg_idx_));
    const TupleLayout& layout = child_->layout();
    AggGroupTable groups(group_idx_, layout, aggs_->size());
    DIP_RETURN_NOT_OK(Fold(layout, &groups));
    ctx_->operator_invocations++;
    out_schema_ =
        AggOutputSchema(child_->schema(), *group_by_, group_idx_, *aggs_);
    CloseChild();
    pos_ = 0;
    layout_ = TupleLayout::Plain(out_schema_.num_columns());
    out_rows_.Reset(out_schema_.num_columns());
    return groups.ForEachOrdered([&](AggGroupState& st) -> Status {
      return FinalizeAggGroup(&st, *aggs_, &out_rows_);
    });
  }
  Status Next(Batch* batch) override {
    batch->clear();
    return EmitOwned(&out_rows_, &pos_, batch);
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return out_schema_; }
  const TupleLayout& layout() const override { return layout_; }

 private:
  Status Fold(const TupleLayout& layout, AggGroupTable* groups) {
    const auto agg_cells = AggInputCells(layout, agg_idx_);
    Batch in;
    std::vector<const Value*> scratch;
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) return Status::OK();
      ctx_->rows_processed += in.size();
      TupleRefs view = BatchView(in, layout, &scratch);
      for (size_t r = 0; r < view.size(); ++r) {
        const Value* const* t = view.tuple(r);
        DIP_RETURN_NOT_OK(
            AccumulateAggValues(t, *aggs_, agg_cells, groups->Find(t)));
      }
    }
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
  Schema out_schema_;
  TupleLayout layout_;
  RowSlab out_rows_;
  size_t pos_ = 0;
  bool child_closed_ = false;
};

/// Stable sort of the whole input: drained at Open into one slab, sorted as
/// a stable permutation of row indexes, and gathered into the emitted
/// batches in key order.
class SortCursor : public BatchCursor {
 public:
  SortCursor(CursorPtr child, const std::vector<SortKey>* keys,
             ExecContext* ctx)
      : child_(std::move(child)), keys_(keys), ctx_(ctx) {}

  Status Open() override {
    DIP_RETURN_NOT_OK(child_->Open());
    std::vector<size_t> idx;
    std::vector<bool> asc;
    for (const auto& k : *keys_) {
      DIP_ASSIGN_OR_RETURN(size_t i,
                           child_->schema().RequireIndexOf(k.column));
      idx.push_back(i);
      asc.push_back(k.ascending);
    }
    Batch in;
    for (;;) {
      DIP_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      ctx_->rows_processed += in.size();
      DIP_RETURN_NOT_OK(AppendRows(&in, child_->layout(), &rows_));
    }
    schema_ = child_->schema();
    CloseChild();
    ctx_->operator_invocations++;
    order_.resize(rows_.size());
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      RowView ra = rows_[a], rb = rows_[b];
      for (size_t k = 0; k < idx.size(); ++k) {
        int c = ra[idx[k]].Compare(rb[idx[k]]);
        if (c != 0) return asc[k] ? c < 0 : c > 0;
      }
      return false;
    });
    layout_ = TupleLayout::Plain(rows_.width());
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    const size_t n = std::min(kBatchCapacity, order_.size() - pos_);
    batch->rows.Reset(rows_.width());
    batch->rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      DIP_RETURN_NOT_OK(batch->rows.AppendMoved(rows_[order_[pos_ + i]]));
    }
    pos_ += n;
    return Status::OK();
  }
  void Close() override { CloseChild(); }
  const Schema& schema() const override { return schema_; }
  const TupleLayout& layout() const override { return layout_; }

 private:
  void CloseChild() {
    if (child_closed_) return;
    child_closed_ = true;
    child_->Close();
  }

  CursorPtr child_;
  const std::vector<SortKey>* keys_;
  ExecContext* ctx_;
  RowSlab rows_;               // the input, in arrival order
  std::vector<size_t> order_;  // rows_ indexes in sorted order
  size_t pos_ = 0;
  TupleLayout layout_;
  Schema schema_;
  bool child_closed_ = false;
};

/// UNION DISTINCT: the inputs are drained in order at Open, and the first
/// occurrence of each key survives, in arrival order.
class UnionDistinctCursor : public BatchCursor {
 public:
  UnionDistinctCursor(std::vector<CursorPtr> children,
                      const std::vector<std::string>* key_columns,
                      ExecContext* ctx)
      : children_(std::move(children)), key_columns_(key_columns), ctx_(ctx) {}

  Status Open() override {
    if (children_.empty()) {
      return Status::InvalidArgument("UNION of zero inputs");
    }
    KeyIndex seen;  // key hash -> out row index
    for (size_t c = 0; c < children_.size(); ++c) {
      BatchCursor* child = children_[c].get();
      DIP_RETURN_NOT_OK(child->Open());
      if (c > 0 && child->schema().num_columns() != schema_.num_columns()) {
        return Status::TypeMismatch("UNION input arity mismatch");
      }
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
        // Owned rows are read in place; reference tuples are built into
        // rows_ first.
        RowSlab* batch_rows = &in.rows;
        if (in.borrowed()) {
          rows_.Reset(0);
          DIP_RETURN_NOT_OK(AppendRows(&in, child->layout(), &rows_));
          batch_rows = &rows_;
        }
        for (MutableRowView row : *batch_rows) {
          const size_t hash = HashRowKey(row, key_idx_);
          if (seen.Find(hash, [&](size_t prev) {
                return SameKey(out_rows_[prev], row);
              }) != KeyIndex::kNotFound) {
            continue;
          }
          seen.Insert(hash, out_rows_.size());
          DIP_RETURN_NOT_OK(out_rows_.AppendMoved(row));
        }
      }
      if (c == 0) schema_ = child->schema();
      child->Close();
      closed_upto_ = c + 1;
    }
    ctx_->operator_invocations++;
    layout_ = TupleLayout::Plain(out_rows_.width());
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Batch* batch) override {
    batch->clear();
    return EmitOwned(&out_rows_, &pos_, batch);
  }
  void Close() override {
    for (size_t c = closed_upto_; c < children_.size(); ++c) {
      children_[c]->Close();
    }
    closed_upto_ = children_.size();
  }
  const Schema& schema() const override { return schema_; }
  const TupleLayout& layout() const override { return layout_; }

 private:
  bool SameKey(RowView a, RowView b) const {
    for (size_t k : key_idx_) {
      if (a[k].Compare(b[k]) != 0) return false;
    }
    return true;
  }

  std::vector<CursorPtr> children_;
  const std::vector<std::string>* key_columns_;
  ExecContext* ctx_;
  std::vector<size_t> key_idx_;
  RowSlab rows_;  // the current borrowed input batch, built into rows
  Schema schema_;
  TupleLayout layout_;
  RowSlab out_rows_;
  size_t pos_ = 0;
  size_t closed_upto_ = 0;
};

class ScanTableNode : public PlanNode {
 public:
  explicit ScanTableNode(const Table* table) : table_(table) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    return std::make_unique<ScanTableCursor>(table_, ctx);
  }
  std::string ToString() const override {
    return "Scan(" + table_->name() + ")";
  }

 private:
  const Table* table_;
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

 private:
  const RowSet* rows_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  CursorPtr MakeCursor(ExecContext* ctx) const override {
    return std::make_unique<FilterCursor>(child_->MakeCursor(ctx), predicate_,
                                          ctx);
  }
  std::string ToString() const override {
    return "Filter(" + predicate_->ToString() + ")";
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
    return std::make_unique<ProjectCursor>(child_->MakeCursor(ctx), &items_,
                                           ctx);
  }
  std::string ToString() const override {
    std::vector<std::string> parts;
    for (const auto& i : items_) {
      parts.push_back(i.name + "=" + i.expr->ToString());
    }
    return "Project(" + StrJoin(parts, ", ") + ")";
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
    return std::make_unique<HashJoinCursor>(left_->MakeCursor(ctx),
                                            right_->MakeCursor(ctx), &lkeys_,
                                            &rkeys_, ctx);
  }

  std::string ToString() const override {
    return "HashJoin(" + StrJoin(lkeys_, ",") + " = " + StrJoin(rkeys_, ",") +
           ")";
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
    std::vector<CursorPtr> kids;
    kids.reserve(children_.size());
    for (const auto& c : children_) kids.push_back(c->MakeCursor(ctx));
    return std::make_unique<UnionDistinctCursor>(std::move(kids),
                                                 &key_columns_, ctx);
  }

  std::string ToString() const override {
    return StrFormat("UnionDistinct(%zu inputs, key=[%s])", children_.size(),
                     StrJoin(key_columns_, ",").c_str());
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
    return std::make_unique<AggregateCursor>(child_->MakeCursor(ctx),
                                             &group_by_, &aggs_, ctx);
  }

  std::string ToString() const override {
    return StrFormat("Aggregate(group=[%s], %zu aggs)",
                     StrJoin(group_by_, ",").c_str(), aggs_.size());
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
    return std::make_unique<SortCursor>(child_->MakeCursor(ctx), &keys_, ctx);
  }
  std::string ToString() const override {
    std::vector<std::string> parts;
    for (const auto& k : keys_) {
      parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
    }
    return "Sort(" + StrJoin(parts, ", ") + ")";
  }

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
};

}  // namespace

PlanPtr ScanTable(const Table* table) {
  return std::make_shared<ScanTableNode>(table);
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
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateItem> aggregates) {
  return std::make_shared<AggregateNode>(std::move(child), std::move(group_by),
                                         std::move(aggregates));
}
PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys) {
  return std::make_shared<SortNode>(std::move(child), std::move(keys));
}

Result<size_t> InsertInto(Table* table, const RowSet& rows) {
  size_t inserted = 0;
  for (RowView row : rows.rows) {
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
  for (RowView row : rows.rows) {
    DIP_RETURN_NOT_OK(table->InsertOrReplace(row));
    ++written;
  }
  return written;
}

}  // namespace dipbench
