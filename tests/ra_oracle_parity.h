#ifndef DIPBENCH_TESTS_RA_ORACLE_PARITY_H_
#define DIPBENCH_TESTS_RA_ORACLE_PARITY_H_

// Runs oracle plan descriptions (tests/ra_oracle.h) through the src/ra
// pipeline and compares the two: rows, schemas, and the work counters the
// cost model charges from (ExecContext and storage rows_read).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/ra/plan.h"
#include "src/storage/database.h"
#include "tests/ra_oracle.h"

namespace dipbench {
namespace oracle {

/// A cell as type tag plus lossless text: Int(5), Double(5.0) and "5"
/// all differ.
inline std::string CellText(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return v.AsBool() ? "b:true" : "b:false";
    case DataType::kInt64:
      return "i:" + std::to_string(v.AsInt());
    case DataType::kDouble:
      return StrFormat("d:%a", v.AsDouble());
    case DataType::kString:
      return "s:\"" + std::string(v.AsString()) + "\"";
    case DataType::kDate:
      return "t:" + std::to_string(v.AsDate());
  }
  return "?";
}

inline std::string RowText(RowView row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i ? " | " : "") + CellText(row[i]);
  }
  return out;
}

/// The rows of an oracle table as a RowSet.
inline RowSet ToRowSet(const Table& table) {
  return RowSet{table.schema, RowSlab::FromRows(table.rows).ValueOrDie()};
}

/// The storage tables behind scan leaves, and the RowSets ScanValuesRef
/// leaves borrow.
class Catalog {
 public:
  explicit Catalog(Database* db) : db_(db) {}

  /// Creates `table` in the database, with its rows, as the storage table
  /// its scans lower to. `table` must outlive the catalog.
  Status Add(const Table& table) {
    DIP_ASSIGN_OR_RETURN(dipbench::Table * t,
                         db_->CreateTable(table.name, table.schema));
    for (const Row& row : table.rows) DIP_RETURN_NOT_OK(t->Insert(row));
    storage_[&table] = t;
    return Status::OK();
  }

  /// The src/ra plan that `plan` describes.
  PlanPtr Lower(const Plan& plan) {
    const Node& n = *plan;
    std::vector<PlanPtr> in;
    for (const Plan& input : n.inputs) in.push_back(Lower(input));
    switch (n.op) {
      case Op::kScanTable:
        return dipbench::ScanTable(storage_.at(n.table));
      case Op::kScanValues:
        return dipbench::ScanValues(ToRowSet(*n.table));
      case Op::kScanValuesRef:
        borrowed_.push_back(std::make_unique<RowSet>(ToRowSet(*n.table)));
        return dipbench::ScanValuesRef(borrowed_.back().get());
      case Op::kFilter:
        return dipbench::Filter(in[0], n.predicate);
      case Op::kProject: {
        std::vector<dipbench::ProjectionItem> items;
        for (const ProjectionItem& i : n.items) {
          items.push_back({i.name, i.expr, i.cast_to});
        }
        return dipbench::Project(in[0], std::move(items));
      }
      case Op::kHashJoin:
        return dipbench::HashJoin(in[0], in[1], n.keys, n.build_keys);
      case Op::kUnionDistinct:
        return dipbench::UnionDistinct(in, n.keys);
      case Op::kAggregate: {
        std::vector<dipbench::AggregateItem> aggs;
        for (const AggregateItem& a : n.aggs) {
          aggs.push_back({a.output_name, LowerFunc(a.func), a.input_column});
        }
        return dipbench::Aggregate(in[0], n.keys, std::move(aggs));
      }
      case Op::kSort: {
        std::vector<dipbench::SortKey> keys;
        for (const SortKey& k : n.sort_keys) {
          keys.push_back({k.column, k.ascending});
        }
        return dipbench::Sort(in[0], std::move(keys));
      }
    }
    return nullptr;
  }

  uint64_t RowsRead() const { return db_->TotalRowsRead(); }

 private:
  static dipbench::AggFunc LowerFunc(AggFunc f) {
    switch (f) {
      case AggFunc::kCount:
        return dipbench::AggFunc::kCount;
      case AggFunc::kSum:
        return dipbench::AggFunc::kSum;
      case AggFunc::kMin:
        return dipbench::AggFunc::kMin;
      case AggFunc::kMax:
        return dipbench::AggFunc::kMax;
      case AggFunc::kAvg:
        return dipbench::AggFunc::kAvg;
    }
    return dipbench::AggFunc::kCount;
  }

  Database* db_;
  std::map<const Table*, dipbench::Table*> storage_;
  std::vector<std::unique_ptr<RowSet>> borrowed_;
};

/// What one pipeline execution returned and charged.
struct PipelineRun {
  Status status;
  RowSet result;
  uint64_t rows_processed = 0;
  uint64_t operator_invocations = 0;
  uint64_t rows_read = 0;
};

inline PipelineRun RunPipeline(const PlanPtr& plan, const Catalog& catalog) {
  ExecContext ctx;
  const uint64_t read_before = catalog.RowsRead();
  Result<RowSet> rs = plan->Execute(&ctx);
  PipelineRun run;
  run.status = rs.status();
  if (rs.ok()) run.result = std::move(rs).ValueOrDie();
  run.rows_processed = ctx.rows_processed;
  run.operator_invocations = ctx.operator_invocations;
  run.rows_read = catalog.RowsRead() - read_before;
  return run;
}

/// Runs `plan` through the pipeline and compares the run with `expected`,
/// the oracle's successful evaluation of `plan`: equal rows and schemas,
/// and every counter equal. A pipeline run that fails is a test failure.
inline void ExpectMatchesOracle(const Plan& plan, const Output& expected,
                                Catalog* catalog) {
  SCOPED_TRACE("plan:\n" + plan->ToString());
  PipelineRun run = RunPipeline(catalog->Lower(plan), *catalog);
  if (!run.status.ok()) {
    ADD_FAILURE() << "pipeline: " << run.status;
    return;
  }
  const Schema& want = expected.schema;
  const Schema& got = run.result.schema;
  EXPECT_EQ(want.num_columns(), got.num_columns());
  for (size_t c = 0; c < std::min(want.num_columns(), got.num_columns());
       ++c) {
    EXPECT_EQ(want.column(c).name, got.column(c).name) << "column " << c;
    EXPECT_EQ(DataTypeToString(want.column(c).type),
              DataTypeToString(got.column(c).type))
        << "column " << want.column(c).name;
  }
  EXPECT_EQ(expected.rows.size(), run.result.rows.size());
  for (size_t r = 0;
       r < std::min(expected.rows.size(), run.result.rows.size()); ++r) {
    if (RowText(expected.rows[r]) != RowText(run.result.rows[r])) {
      ADD_FAILURE() << "first differing row " << r
                    << "\n  oracle:   " << RowText(expected.rows[r])
                    << "\n  pipeline: " << RowText(run.result.rows[r]);
      break;
    }
  }
  EXPECT_EQ(expected.operator_invocations, run.operator_invocations);
  EXPECT_EQ(expected.rows_processed, run.rows_processed);
  EXPECT_EQ(expected.rows_read, run.rows_read);
}

}  // namespace oracle
}  // namespace dipbench

#endif  // DIPBENCH_TESTS_RA_ORACLE_PARITY_H_
