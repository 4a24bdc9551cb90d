// Unit tests for the spill layer: the row codec round-trip, run writers
// and readers, and merge-order determinism of the spilling operators.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ra/expr.h"
#include "src/ra/plan.h"
#include "src/storage/database.h"
#include "src/storage/spill.h"

namespace dipbench {
namespace {

TEST(SpillCodecTest, RowsRoundTripBitExactly) {
  std::vector<Row> rows = {
      {Value::Int(42), Value::Double(0.1 + 0.2), Value::String("héllo"),
       Value::Null(), Value::Bool(true), Value::DateYmd(2008, 4, 12)},
      {},  // empty row
      {Value::String(std::string("\0binary\xff", 8))},
  };
  std::string buf;
  for (const Row& r : rows) EncodeRow(r, &buf);
  size_t pos = 0;
  for (const Row& r : rows) {
    Row decoded;
    ASSERT_TRUE(DecodeRow(buf, &pos, &decoded));
    ASSERT_EQ(decoded.size(), r.size());
    for (size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(decoded[i], r[i]);
      EXPECT_EQ(decoded[i].type(), r[i].type());
    }
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(SpillRunTest, WriterReaderRoundTripWithTagsAndKeys) {
  SpillDir dir;
  SpillRunWriter writer(dir.RunPath("run0"));
  for (int i = 0; i < 3000; ++i) {
    writer.AddKeyed(static_cast<uint64_t>(i), "key" + std::to_string(i % 7),
                    {Value::Int(i), Value::String("v" + std::to_string(i))});
  }
  EXPECT_EQ(writer.rows(), 3000u);
  ASSERT_TRUE(writer.Finish().ok());

  SpillRunReader reader(dir.RunPath("run0"));
  uint64_t tag;
  std::string key;
  Row row;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(reader.Next(&tag, &key, &row)) << i;
    EXPECT_EQ(tag, static_cast<uint64_t>(i));
    EXPECT_EQ(key, "key" + std::to_string(i % 7));
    EXPECT_EQ(row[0], Value::Int(i));
  }
  EXPECT_FALSE(reader.Next(&tag, &key, &row));
}

TEST(SpillRunTest, StatsCountRunsRowsAndBytes) {
  SpillStats before = GetSpillStats();
  {
    SpillDir dir;
    SpillRunWriter writer(dir.RunPath("r"));
    writer.Add({Value::Int(1)});
    writer.Add({Value::Int(2)});
    ASSERT_TRUE(writer.Finish().ok());
  }
  SpillStats after = GetSpillStats();
  EXPECT_EQ(after.runs, before.runs + 1);
  EXPECT_EQ(after.rows, before.rows + 2);
  EXPECT_GT(after.bytes, before.bytes);
}

/// Spilling operators must emit the same rows in the same order as the
/// in-memory algorithms for ANY budget — runs are merged back with
/// deterministic tie-breaks (run index for the sort, global sequence
/// numbers for join/union, sorted group keys for aggregation).
class SpillOperatorDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s;
    s.AddColumn("k", DataType::kInt64, false)
        .AddColumn("grp", DataType::kInt64)
        .AddColumn("v", DataType::kDouble)
        .SetPrimaryKey({"k"});
    t_ = *db_.CreateTable("t", s);
    // Many duplicate sort/group keys so stability and per-group arrival
    // order are actually exercised, plus doubles whose summation order
    // would show in the last bit if a spill path reordered them.
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(t_->Insert({Value::Int(i), Value::Int(i % 17),
                              Value::Double((i % 97) * 0.3)})
                      .ok());
    }
  }

  std::string RunWithBudget(const PlanPtr& plan, size_t budget) {
    ScopedMemoryBudget scoped(budget);
    ExecContext ctx;
    auto rs = plan->Execute(&ctx);
    EXPECT_TRUE(rs.ok()) << rs.status();
    if (!rs.ok()) return std::string();
    std::string out;
    for (const Row& row : rs->rows) {
      for (const Value& v : row) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  /// Every budget from "everything fits" down to "a few rows per run"
  /// must reproduce the unlimited run byte for byte, and small budgets
  /// must actually write runs.
  void ExpectBudgetInvariant(const PlanPtr& plan) {
    std::string baseline = RunWithBudget(plan, 0);
    for (size_t budget : {size_t{1} << 20, size_t{4096}, size_t{512}}) {
      SpillStats before = GetSpillStats();
      EXPECT_EQ(baseline, RunWithBudget(plan, budget))
          << "budget=" << budget;
      if (budget <= 4096) {
        EXPECT_GT(GetSpillStats().runs, before.runs) << "budget=" << budget;
      }
    }
  }

  Database db_{"spill"};
  Table* t_ = nullptr;
};

TEST_F(SpillOperatorDeterminismTest, ExternalSortIsStable) {
  // Duplicate keys: a stable sort's tie order must survive the run merge.
  ExpectBudgetInvariant(Sort(ScanTable(t_), {{"grp", true}}));
  ExpectBudgetInvariant(
      Sort(ScanTable(t_), {{"v", false}, {"grp", true}}));
}

TEST_F(SpillOperatorDeterminismTest, AggregateSumsInArrivalOrder) {
  // Double sums are order-sensitive: the spill path partitions raw input
  // rows (preserving per-group arrival order), so sums match bit for bit.
  ExpectBudgetInvariant(Aggregate(ScanTable(t_), {"grp"},
                                  {{"total", AggFunc::kSum, "v"},
                                   {"avg", AggFunc::kAvg, "v"},
                                   {"n", AggFunc::kCount, ""},
                                   {"hi", AggFunc::kMax, "v"}}));
}

TEST_F(SpillOperatorDeterminismTest, GraceJoinPreservesProbeOrder) {
  // Build side big enough to overflow every tested budget, with two build
  // rows per key so the match order within one probe row matters too.
  RowSet lookup;
  lookup.schema.AddColumn("k", DataType::kInt64, false)
      .AddColumn("label", DataType::kString);
  for (int k = 0; k < 2500; ++k) {
    lookup.rows.push_back({Value::Int(k), Value::String("a")});
    lookup.rows.push_back({Value::Int(k), Value::String("b")});
  }
  ExpectBudgetInvariant(HashJoin(ScanTable(t_), ScanValues(std::move(lookup)),
                                 {"k"}, {"k"}));
}

TEST_F(SpillOperatorDeterminismTest, UnionDistinctKeepsFirstOccurrence) {
  auto evens = Filter(ScanTable(t_), Eq(Arith(ArithmeticOp::kMod, Col("k"),
                                              Lit(int64_t{2})),
                                        Lit(int64_t{0})));
  auto low = Filter(ScanTable(t_), Le(Col("k"), Lit(int64_t{3000})));
  ExpectBudgetInvariant(UnionDistinct({evens, low}, {"k"}));
  // Distinct on a narrow key with massive duplication.
  ExpectBudgetInvariant(
      UnionDistinct({ScanTable(t_), ScanTable(t_)}, {"grp"}));
}

}  // namespace
}  // namespace dipbench
