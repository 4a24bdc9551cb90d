#ifndef DIPBENCH_TESTS_RA_ORACLE_H_
#define DIPBENCH_TESTS_RA_ORACLE_H_

// Reference evaluator for src/ra plans, for tests only.
//
// It evaluates a plan description that mirrors the src/ra plan factories
// (tests/ra_oracle_parity.h lowers one to the other). Each operator is the
// plainest code that states its rule in SPECIFICATION.md §9: a
// nested-loop join, a std::map GROUP BY keyed on RowToString, a
// first-occurrence UNION DISTINCT, std::stable_sort, and row loops for
// filter and project. It shares no operator code with src/ra and includes
// neither src/ra/plan.h nor src/storage/. Filter and project expressions
// go through the scalar Expr::Eval, while the cursors run the EvalBatch
// kernels, so a comparison also checks EvalBatch against Eval.
//
// Every operator consumes its whole input, as every cursor does, so the
// work reported is exactly the work the pipeline charges.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/ra/expr.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace dipbench {
namespace oracle {

/// A base table: schema and live rows in insertion order.
struct Table {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
};

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

struct AggregateItem {
  std::string output_name;
  AggFunc func = AggFunc::kCount;
  std::string input_column;  ///< empty for COUNT(*)
};

struct ProjectionItem {
  std::string name;
  ExprPtr expr;
  DataType cast_to = DataType::kNull;  ///< kNull: keep the evaluated type
};

struct SortKey {
  std::string column;
  bool ascending = true;
};

enum class Op {
  kScanTable,
  kScanValues,
  kScanValuesRef,
  kFilter,
  kProject,
  kHashJoin,
  kUnionDistinct,
  kAggregate,
  kSort,
};

struct Node;
using Plan = std::shared_ptr<const Node>;

/// One plan operator; only the fields of its `op` are set.
struct Node {
  Op op = Op::kScanTable;
  std::vector<Plan> inputs;
  const Table* table = nullptr;         ///< scans (values scans read its rows)
  ExprPtr predicate;                    ///< kFilter
  std::vector<ProjectionItem> items;    ///< kProject
  std::vector<std::string> keys;        ///< join probe keys, union keys,
                                        ///< group-by columns
  std::vector<std::string> build_keys;  ///< kHashJoin
  std::vector<AggregateItem> aggs;      ///< kAggregate
  std::vector<SortKey> sort_keys;       ///< kSort

  /// The operator tree, one node per line (failure messages).
  std::string ToString(int indent = 0) const {
    std::string line(static_cast<size_t>(indent) * 2, ' ');
    auto join = [](const std::vector<std::string>& parts) {
      std::string out;
      for (size_t i = 0; i < parts.size(); ++i) {
        out += (i ? "," : "") + parts[i];
      }
      return out;
    };
    switch (op) {
      case Op::kScanTable:
        line += "ScanTable(" + table->name + ")";
        break;
      case Op::kScanValues:
        line += "ScanValues(" + table->name + ")";
        break;
      case Op::kScanValuesRef:
        line += "ScanValuesRef(" + table->name + ")";
        break;
      case Op::kFilter:
        line += "Filter(" + predicate->ToString() + ")";
        break;
      case Op::kProject: {
        std::vector<std::string> parts;
        for (const ProjectionItem& item : items) {
          parts.push_back(item.name + "=" + item.expr->ToString() +
                          (item.cast_to == DataType::kNull
                               ? ""
                               : std::string(":") +
                                     DataTypeToString(item.cast_to)));
        }
        line += "Project(" + join(parts) + ")";
        break;
      }
      case Op::kHashJoin:
        line += "HashJoin(" + join(keys) + " = " + join(build_keys) + ")";
        break;
      case Op::kUnionDistinct:
        line += "UnionDistinct(key=[" + join(keys) + "])";
        break;
      case Op::kAggregate: {
        static const char* kNames[] = {"count", "sum", "min", "max", "avg"};
        std::vector<std::string> parts;
        for (const AggregateItem& a : aggs) {
          parts.push_back(a.output_name + "=" +
                          kNames[static_cast<int>(a.func)] + "(" +
                          a.input_column + ")");
        }
        line += "Aggregate(group=[" + join(keys) + "], " + join(parts) + ")";
        break;
      }
      case Op::kSort: {
        std::vector<std::string> parts;
        for (const SortKey& k : sort_keys) {
          parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
        }
        line += "Sort(" + join(parts) + ")";
        break;
      }
    }
    for (const Plan& input : inputs) line += "\n" + input->ToString(indent + 1);
    return line;
  }
};

// Builders, named like the src/ra factories they lower to.

inline Plan MakeNode(Node node) {
  return std::make_shared<const Node>(std::move(node));
}
inline Plan ScanTable(const Table* table) {
  Node n;
  n.table = table;
  return MakeNode(std::move(n));
}
inline Plan ScanValues(const Table* table) {
  Node n;
  n.op = Op::kScanValues;
  n.table = table;
  return MakeNode(std::move(n));
}
inline Plan ScanValuesRef(const Table* table) {
  Node n;
  n.op = Op::kScanValuesRef;
  n.table = table;
  return MakeNode(std::move(n));
}
inline Plan Filter(Plan child, ExprPtr predicate) {
  Node n;
  n.op = Op::kFilter;
  n.inputs = {std::move(child)};
  n.predicate = std::move(predicate);
  return MakeNode(std::move(n));
}
inline Plan Project(Plan child, std::vector<ProjectionItem> items) {
  Node n;
  n.op = Op::kProject;
  n.inputs = {std::move(child)};
  n.items = std::move(items);
  return MakeNode(std::move(n));
}
inline Plan HashJoin(Plan probe, Plan build,
                     std::vector<std::string> probe_keys,
                     std::vector<std::string> build_keys) {
  Node n;
  n.op = Op::kHashJoin;
  n.inputs = {std::move(probe), std::move(build)};
  n.keys = std::move(probe_keys);
  n.build_keys = std::move(build_keys);
  return MakeNode(std::move(n));
}
inline Plan UnionDistinct(std::vector<Plan> children,
                          std::vector<std::string> key_columns) {
  Node n;
  n.op = Op::kUnionDistinct;
  n.inputs = std::move(children);
  n.keys = std::move(key_columns);
  return MakeNode(std::move(n));
}
inline Plan Aggregate(Plan child, std::vector<std::string> group_by,
                      std::vector<AggregateItem> aggs) {
  Node n;
  n.op = Op::kAggregate;
  n.inputs = {std::move(child)};
  n.keys = std::move(group_by);
  n.aggs = std::move(aggs);
  return MakeNode(std::move(n));
}
inline Plan Sort(Plan child, std::vector<SortKey> keys) {
  Node n;
  n.op = Op::kSort;
  n.inputs = {std::move(child)};
  n.sort_keys = std::move(keys);
  return MakeNode(std::move(n));
}

/// A plan's result and the work a full evaluation charges.
struct Output {
  Schema schema;
  std::vector<Row> rows;
  uint64_t rows_processed = 0;
  uint64_t operator_invocations = 0;
  uint64_t rows_read = 0;  ///< storage rows read by table scans
};

namespace internal {

/// Column index of each name in `schema`.
inline Result<std::vector<size_t>> Resolve(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> idx;
  for (const std::string& name : names) {
    DIP_ASSIGN_OR_RETURN(size_t i, schema.RequireIndexOf(name));
    idx.push_back(i);
  }
  return idx;
}

/// Lexicographic Value::Compare order over key cells.
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

inline Row Cells(const Row& row, const std::vector<size_t>& idx) {
  Row cells;
  for (size_t i : idx) cells.push_back(row[i]);
  return cells;
}

/// One aggregate over the rows of one group.
inline Result<Value> Fold(const AggregateItem& agg, size_t column,
                          const std::vector<const Row*>& rows) {
  if (agg.input_column.empty()) {
    return Value::Int(static_cast<int64_t>(rows.size()));  // COUNT(*)
  }
  std::vector<const Value*> values;  // the non-NULL inputs, in order
  for (const Row* row : rows) {
    if (!(*row)[column].is_null()) values.push_back(&(*row)[column]);
  }
  if (agg.func == AggFunc::kCount) {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  double sum = 0.0;
  bool all_int = true;
  for (const Value* v : values) {
    DIP_ASSIGN_OR_RETURN(double num, v->ToNumeric());
    sum += num;
    all_int = all_int && v->type() == DataType::kInt64;
  }
  if (values.empty()) return Value::Null();
  switch (agg.func) {
    case AggFunc::kSum: {
      if (!all_int) return Value::Double(sum);
      int64_t exact = 0;
      for (const Value* v : values) {
        if (__builtin_add_overflow(exact, v->AsInt(), &exact)) {
          return Status::InvalidArgument("SUM of " + agg.input_column +
                                         " overflows INT64");
        }
      }
      return Value::Int(exact);
    }
    case AggFunc::kAvg:
      return Value::Double(sum / static_cast<double>(values.size()));
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const Value* best = values.front();
      for (const Value* v : values) {
        int c = v->Compare(*best);
        if (agg.func == AggFunc::kMin ? c < 0 : c > 0) best = v;
      }
      return *best;
    }
    case AggFunc::kCount:
      break;
  }
  return Status::Internal("unreachable");
}

class Evaluator {
 public:
  Result<Output> Run(const Node& root) {
    DIP_ASSIGN_OR_RETURN(Rows result, Eval(root));
    out_.schema = std::move(result.schema);
    out_.rows = std::move(result.rows);
    return std::move(out_);
  }

 private:
  struct Rows {
    Schema schema;
    std::vector<Row> rows;
  };

  /// Charges one invocation and `rows` processed rows.
  Rows Charge(Rows rows, uint64_t processed) {
    out_.operator_invocations++;
    out_.rows_processed += processed;
    return rows;
  }

  Result<Rows> Eval(const Node& n) {
    switch (n.op) {
      case Op::kScanTable:
        out_.rows_read += n.table->rows.size();
        return Charge({n.table->schema, n.table->rows},
                      n.table->rows.size());
      case Op::kScanValues:
      case Op::kScanValuesRef:
        return Charge({n.table->schema, n.table->rows},
                      n.table->rows.size());
      case Op::kFilter:
        return Filter(n);
      case Op::kProject:
        return Project(n);
      case Op::kHashJoin:
        return HashJoin(n);
      case Op::kUnionDistinct:
        return UnionDistinct(n);
      case Op::kAggregate:
        return Aggregate(n);
      case Op::kSort:
        return Sort(n);
    }
    return Status::Internal("unknown plan operator");
  }

  /// Keeps the rows whose predicate is BOOL true (NULL and false drop).
  Result<Rows> Filter(const Node& n) {
    DIP_ASSIGN_OR_RETURN(Rows in, Eval(*n.inputs[0]));
    Rows out{in.schema, {}};
    for (const Row& row : in.rows) {
      DIP_ASSIGN_OR_RETURN(Value keep, n.predicate->Eval(row, in.schema));
      if (keep.type() == DataType::kBool && keep.AsBool()) {
        out.rows.push_back(row);
      }
    }
    return Charge(std::move(out), in.rows.size());
  }

  /// Evaluates each item per row (then casts it). An item's column type is
  /// its cast target, else the type of its first non-NULL value, else NULL.
  Result<Rows> Project(const Node& n) {
    DIP_ASSIGN_OR_RETURN(Rows in, Eval(*n.inputs[0]));
    std::vector<DataType> types(n.items.size(), DataType::kNull);
    Rows out;
    for (const Row& row : in.rows) {
      Row projected;
      for (size_t i = 0; i < n.items.size(); ++i) {
        const ProjectionItem& item = n.items[i];
        DIP_ASSIGN_OR_RETURN(Value v, item.expr->Eval(row, in.schema));
        if (item.cast_to != DataType::kNull) {
          DIP_ASSIGN_OR_RETURN(v, v.CastTo(item.cast_to));
        }
        if (types[i] == DataType::kNull) types[i] = v.type();
        projected.push_back(std::move(v));
      }
      out.rows.push_back(std::move(projected));
    }
    for (size_t i = 0; i < n.items.size(); ++i) {
      const ProjectionItem& item = n.items[i];
      out.schema.AddColumn(
          item.name, item.cast_to != DataType::kNull ? item.cast_to : types[i]);
    }
    return Charge(std::move(out), in.rows.size());
  }

  /// Nested loops, probe-major: each probe row meets the build rows newest
  /// first. A NULL key never matches. The output is the probe columns, then
  /// the build columns, each build name taking "r_" prefixes until free.
  Result<Rows> HashJoin(const Node& n) {
    DIP_ASSIGN_OR_RETURN(Rows probe, Eval(*n.inputs[0]));
    DIP_ASSIGN_OR_RETURN(Rows build, Eval(*n.inputs[1]));
    if (n.keys.size() != n.build_keys.size() || n.keys.empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    DIP_ASSIGN_OR_RETURN(std::vector<size_t> pk, Resolve(probe.schema, n.keys));
    DIP_ASSIGN_OR_RETURN(std::vector<size_t> bk,
                         Resolve(build.schema, n.build_keys));
    Rows out{probe.schema, {}};
    for (const Column& col : build.schema.columns()) {
      std::string name = col.name;
      while (out.schema.HasColumn(name)) name = "r_" + name;
      out.schema.AddColumn(name, col.type, col.nullable);
    }
    for (const Row& p : probe.rows) {
      for (size_t b = build.rows.size(); b-- > 0;) {
        const Row& r = build.rows[b];
        bool match = true;
        for (size_t k = 0; k < pk.size() && match; ++k) {
          match = !p[pk[k]].is_null() && p[pk[k]].Compare(r[bk[k]]) == 0;
        }
        if (!match) continue;
        Row joined = p;
        joined.insert(joined.end(), r.begin(), r.end());
        out.rows.push_back(std::move(joined));
      }
    }
    return Charge(std::move(out), probe.rows.size() + build.rows.size());
  }

  /// The inputs in order; a row survives when no earlier surviving row has
  /// Compare-equal key cells. Keys (all columns when none are named)
  /// resolve against the first input, whose schema the output keeps.
  Result<Rows> UnionDistinct(const Node& n) {
    if (n.inputs.empty()) {
      return Status::InvalidArgument("UNION of zero inputs");
    }
    std::vector<Rows> inputs;
    for (const Plan& input : n.inputs) {
      DIP_ASSIGN_OR_RETURN(Rows rows, Eval(*input));
      inputs.push_back(std::move(rows));
    }
    Rows out{inputs[0].schema, {}};
    std::vector<size_t> key_idx;
    if (n.keys.empty()) {
      for (size_t i = 0; i < out.schema.num_columns(); ++i) {
        key_idx.push_back(i);
      }
    } else {
      DIP_ASSIGN_OR_RETURN(key_idx, Resolve(out.schema, n.keys));
    }
    std::set<Row, KeyLess> seen;
    uint64_t processed = 0;
    for (const Rows& input : inputs) {
      if (input.schema.num_columns() != out.schema.num_columns()) {
        return Status::TypeMismatch("UNION input arity mismatch");
      }
      processed += input.rows.size();
      for (const Row& row : input.rows) {
        if (seen.insert(Cells(row, key_idx)).second) out.rows.push_back(row);
      }
    }
    return Charge(std::move(out), processed);
  }

  /// Groups by RowToString of the group cells, in that string's order; a
  /// group keeps its first row's cells. No input rows, no groups.
  Result<Rows> Aggregate(const Node& n) {
    DIP_ASSIGN_OR_RETURN(Rows in, Eval(*n.inputs[0]));
    DIP_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                         Resolve(in.schema, n.keys));
    std::vector<size_t> agg_idx;
    for (const AggregateItem& agg : n.aggs) {
      if (agg.input_column.empty()) {
        if (agg.func != AggFunc::kCount) {
          return Status::InvalidArgument("aggregate needs an input column");
        }
        agg_idx.push_back(0);
        continue;
      }
      DIP_ASSIGN_OR_RETURN(size_t i,
                           in.schema.RequireIndexOf(agg.input_column));
      agg_idx.push_back(i);
    }
    std::map<std::string, std::vector<const Row*>> groups;
    for (const Row& row : in.rows) {
      groups[RowToString(Cells(row, group_idx))].push_back(&row);
    }
    Rows out;
    for (size_t g = 0; g < group_idx.size(); ++g) {
      const Column& c = in.schema.column(group_idx[g]);
      out.schema.AddColumn(n.keys[g], c.type, c.nullable);
    }
    for (const AggregateItem& agg : n.aggs) {
      out.schema.AddColumn(agg.output_name,
                           agg.func == AggFunc::kCount ? DataType::kInt64
                           : agg.func == AggFunc::kAvg ? DataType::kDouble
                                                       : DataType::kNull);
    }
    for (const auto& [key, rows] : groups) {
      Row result = Cells(*rows.front(), group_idx);
      for (size_t a = 0; a < n.aggs.size(); ++a) {
        DIP_ASSIGN_OR_RETURN(Value v, Fold(n.aggs[a], agg_idx[a], rows));
        result.push_back(std::move(v));
      }
      out.rows.push_back(std::move(result));
    }
    return Charge(std::move(out), in.rows.size());
  }

  Result<Rows> Sort(const Node& n) {
    DIP_ASSIGN_OR_RETURN(Rows in, Eval(*n.inputs[0]));
    std::vector<std::string> columns;
    for (const SortKey& k : n.sort_keys) columns.push_back(k.column);
    DIP_ASSIGN_OR_RETURN(std::vector<size_t> idx, Resolve(in.schema, columns));
    std::stable_sort(in.rows.begin(), in.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < idx.size(); ++k) {
                         int c = a[idx[k]].Compare(b[idx[k]]);
                         if (c != 0) {
                           return n.sort_keys[k].ascending ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    const size_t n_rows = in.rows.size();
    return Charge(std::move(in), n_rows);
  }

  Output out_;
};

}  // namespace internal

/// Evaluates `plan` from scratch.
inline Result<Output> Evaluate(const Plan& plan) {
  return internal::Evaluator().Run(*plan);
}

}  // namespace oracle
}  // namespace dipbench

#endif  // DIPBENCH_TESTS_RA_ORACLE_H_
