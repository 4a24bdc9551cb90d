// Parity tests for the batch-pipelined plan executor (Open/Next/Close
// cursor chains) against the reference evaluator of tests/ra_oracle.h.
// The contract is that they are observationally identical — same rows,
// same schemas, and the same ExecContext / storage counters, because
// those counters feed the cost model (ChargeRows -> Cc/Cm/Cp ledger ->
// Monitor CSV). The tests here enforce that contract for every plan
// operator, for composed plans, and at batch-boundary row counts
// (0 / 1 / capacity-1 / capacity / capacity+1 / multi-batch). Every
// cursor drains its input, so every counter must be equal.
//
// golden_test pins the Monitor CSV of full benchmark runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/ra/expr.h"
#include "tests/ra_oracle_parity.h"

namespace dipbench {
namespace oracle {
namespace {

class PipelineParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_.name = "orders";
    orders_.schema.AddColumn("orderkey", DataType::kInt64, false)
        .AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("total", DataType::kDouble)
        .AddColumn("orderdate", DataType::kDate)
        .SetPrimaryKey({"orderkey"});
    for (int i = 1; i <= 10; ++i) {
      orders_.rows.push_back({Value::Int(i), Value::Int(1 + i % 3),
                              Value::Double(i * 10.0),
                              Value::DateYmd(2008, 1 + i % 3, 1 + i)});
    }
    customer_.name = "customer";
    customer_.schema.AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .AddColumn("nation", DataType::kString)
        .SetPrimaryKey({"custkey"});
    for (int i = 1; i <= 3; ++i) {
      customer_.rows.push_back({Value::Int(i),
                                Value::String("c" + std::to_string(i)),
                                Value::String(i % 2 ? "DE" : "FR")});
    }
    ASSERT_TRUE(catalog_.Add(orders_).ok());
    ASSERT_TRUE(catalog_.Add(customer_).ok());
  }

  /// The core assertion: the pipeline returns the oracle's rows and
  /// charges exactly the oracle's work. Counter equality is what keeps the
  /// cost ledger (and therefore the Monitor's NAVG+ output) pinned to the
  /// operator rules of SPECIFICATION.md §9. Every fixed plan must
  /// succeed in the oracle, so a shared failure (expression binding,
  /// casts, name resolution) cannot pass unseen.
  void ExpectParity(const Plan& plan) {
    Result<Output> expected = Evaluate(plan);
    ASSERT_TRUE(expected.ok()) << expected.status() << "\n"
                               << plan->ToString();
    ExpectMatchesOracle(plan, *expected, &catalog_);
  }

  Database db_{"test"};
  Catalog catalog_{&db_};
  Table orders_;
  Table customer_;
};

TEST_F(PipelineParityTest, Scan) { ExpectParity(ScanTable(&orders_)); }

TEST_F(PipelineParityTest, Filter) {
  ExpectParity(Filter(ScanTable(&orders_), Gt(Col("total"), Lit(50.0))));
  // Everything filtered out.
  ExpectParity(Filter(ScanTable(&orders_), Gt(Col("total"), Lit(1e9))));
  // Short-circuiting logical predicate.
  ExpectParity(Filter(ScanTable(&orders_),
                      Or(Le(Col("orderkey"), Lit(int64_t{2})),
                         And(Eq(Col("custkey"), Lit(int64_t{1})),
                             Ge(Col("total"), Lit(40.0))))));
}

TEST_F(PipelineParityTest, Project) {
  ExpectParity(Project(
      ScanTable(&orders_),
      {{"orderkey", Col("orderkey"), DataType::kNull},
       {"gross", Mul(Col("total"), Lit(1.19)), DataType::kNull},
       {"total_int", Col("total"), DataType::kInt64},  // forced cast
       {"flag", IsNull(Col("orderdate")), DataType::kNull}}));
}

TEST_F(PipelineParityTest, HashJoin) {
  ExpectParity(HashJoin(ScanTable(&orders_), ScanTable(&customer_),
                        {"custkey"}, {"custkey"}));
  // Empty probe side.
  ExpectParity(HashJoin(
      Filter(ScanTable(&orders_), Gt(Col("total"), Lit(1e9))),
      ScanTable(&customer_), {"custkey"}, {"custkey"}));
  // Empty build side.
  ExpectParity(HashJoin(
      ScanTable(&orders_),
      Filter(ScanTable(&customer_), Eq(Col("nation"), Lit("XX"))),
      {"custkey"}, {"custkey"}));
}

/// Location tables shaped like the DWH's orders ⋈ city ⋈ nation ⋈ region
/// extract: every dimension has a `name`, so the joined schema carries
/// `name`, `r_name` and `r_r_name`. `city` has no primary key and holds a
/// duplicate citykey (3, rows "C3a" then "C3b") and a NULL one; probe
/// orders reference missing and NULL cities too, and one nation has a NULL
/// regionkey. The probe table is larger than one batch.
class NestedJoinParityTest : public PipelineParityTest {
 protected:
  void SetUp() override {
    PipelineParityTest::SetUp();
    region_.name = "region";
    region_.schema.AddColumn("regionkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .SetPrimaryKey({"regionkey"});
    for (int r = 0; r < 3; ++r) {
      region_.rows.push_back(
          {Value::Int(r), Value::String("R" + std::to_string(r))});
    }
    nation_.name = "nation";
    nation_.schema.AddColumn("nationkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .AddColumn("regionkey", DataType::kInt64)
        .SetPrimaryKey({"nationkey"});
    for (int n = 0; n < 6; ++n) {
      nation_.rows.push_back({Value::Int(n),
                              Value::String("N" + std::to_string(n)),
                              n == 5 ? Value::Null() : Value::Int(n % 3)});
    }
    city_.name = "city";  // no primary key: duplicate join keys allowed
    city_.schema.AddColumn("citykey", DataType::kInt64)
        .AddColumn("name", DataType::kString)
        .AddColumn("nationkey", DataType::kInt64);
    for (int c = 0; c < 10; ++c) {
      std::string name = "C" + std::to_string(c) + (c == 3 ? "a" : "");
      city_.rows.push_back(
          {Value::Int(c), Value::String(name), Value::Int(c % 6)});
    }
    city_.rows.push_back({Value::Int(3), Value::String("C3b"), Value::Int(4)});
    city_.rows.push_back(
        {Value::Null(), Value::String("Cnull"), Value::Int(1)});
    sales_.name = "sales";
    sales_.schema.AddColumn("okey", DataType::kInt64, false)
        .AddColumn("citykey", DataType::kInt64)
        .AddColumn("amount", DataType::kDouble)
        .SetPrimaryKey({"okey"});
    for (size_t i = 0; i < kBatchCapacity + 300; ++i) {
      const int64_t k = static_cast<int64_t>(i);
      sales_.rows.push_back(
          {Value::Int(k), i % 7 == 0 ? Value::Null() : Value::Int(k % 12),
           Value::Double(static_cast<double>(k % 50))});
    }
    for (const Table* t : {&region_, &nation_, &city_, &sales_}) {
      ASSERT_TRUE(catalog_.Add(*t).ok()) << t->name;
    }
  }

  /// sales ⋈ city ⋈ nation ⋈ region with the build sides given.
  Plan Chain(Plan city, Plan nation, Plan region) {
    return HashJoin(
        HashJoin(HashJoin(ScanTable(&sales_), std::move(city), {"citykey"},
                          {"citykey"}),
                 std::move(nation), {"nationkey"}, {"nationkey"}),
        std::move(region), {"regionkey"}, {"regionkey"});
  }
  Plan Chain() {
    return Chain(ScanTable(&city_), ScanTable(&nation_), ScanTable(&region_));
  }

  Table region_;
  Table nation_;
  Table city_;
  Table sales_;
};

TEST_F(NestedJoinParityTest, ThreeJoinChainWithFinalSelect) {
  ExpectParity(Chain());
  ExpectParity(Project(Chain(), {{"okey", Col("okey"), DataType::kNull},
                                 {"citykey", Col("citykey"), DataType::kNull},
                                 {"city", Col("name"), DataType::kNull},
                                 {"nation", Col("r_name"), DataType::kNull},
                                 {"region", Col("r_r_name"), DataType::kNull},
                                 {"gross", Mul(Col("amount"), Lit(1.19)),
                                  DataType::kNull}}));
}

TEST_F(NestedJoinParityTest, OwnedAndBorrowedBuildSides) {
  // Projections hand their build rows over owned; the table scans lend
  // theirs. Mixed along one chain, and as the probe side too.
  Plan owned_region =
      Project(ScanTable(&region_),
              {{"regionkey", Col("regionkey"), DataType::kNull},
               {"name", Func("coalesce", {Col("name"), Lit("?")}),
                DataType::kNull}});
  Plan owned_city = Project(
      ScanTable(&city_), {{"citykey", Col("citykey"), DataType::kNull},
                         {"name", Col("name"), DataType::kNull},
                         {"nationkey", Col("nationkey"), DataType::kNull}});
  ExpectParity(Chain(ScanTable(&city_), ScanTable(&nation_), owned_region));
  ExpectParity(Chain(owned_city, ScanTable(&nation_), ScanTable(&region_)));
  ExpectParity(HashJoin(
      Project(ScanTable(&sales_), {{"okey", Col("okey"), DataType::kNull},
                                  {"citykey", Col("citykey"),
                                   DataType::kNull}}),
      ScanTable(&city_), {"citykey"}, {"citykey"}));
  // A build side that is itself a join: two-row build tuples.
  ExpectParity(HashJoin(ScanTable(&sales_),
                        HashJoin(ScanTable(&city_), ScanTable(&nation_),
                                 {"nationkey"}, {"nationkey"}),
                        {"citykey"}, {"citykey"}));
}

TEST_F(NestedJoinParityTest, OperatorsAboveTheChain) {
  ExpectParity(Filter(Chain(), And(Gt(Col("amount"), Lit(20.0)),
                                   Ne(Col("r_r_name"), Lit("R1")))));
  ExpectParity(Aggregate(Chain(), {"r_r_name", "r_name"},
                         {{"n", AggFunc::kCount, ""},
                          {"total", AggFunc::kSum, "amount"},
                          {"lo", AggFunc::kMin, "amount"},
                          {"hi", AggFunc::kMax, "okey"},
                          {"mean", AggFunc::kAvg, "amount"}}));
  ExpectParity(Sort(Chain(), {{"r_r_name", true}, {"okey", false}}));
}

TEST_F(NestedJoinParityTest, DuplicateBuildKeysMatchNewestFirst) {
  // One probe row (citykey 3) meets two build rows with its key: they come
  // out in descending build-row order, "C3b" before "C3a".
  Plan plan = Project(
      HashJoin(Filter(ScanTable(&sales_), Eq(Col("okey"), Lit(int64_t{3}))),
               ScanTable(&city_), {"citykey"}, {"citykey"}),
      {{"city", Col("name"), DataType::kNull}});
  ExpectParity(plan);
  PipelineRun run = RunPipeline(catalog_.Lower(plan), catalog_);
  ASSERT_TRUE(run.status.ok()) << run.status;
  ASSERT_EQ(run.result.rows.size(), 2u);
  EXPECT_EQ(run.result.rows[0][0].AsString(), "C3b");
  EXPECT_EQ(run.result.rows[1][0].AsString(), "C3a");
}

TEST_F(PipelineParityTest, UnionDistinct) {
  auto first =
      Filter(ScanTable(&orders_), Le(Col("orderkey"), Lit(int64_t{6})));
  auto second =
      Filter(ScanTable(&orders_), Ge(Col("orderkey"), Lit(int64_t{4})));
  ExpectParity(UnionDistinct({first, second}, {"orderkey"}));
}

TEST_F(PipelineParityTest, Aggregate) {
  ExpectParity(Aggregate(ScanTable(&orders_), {},
                         {{"n", AggFunc::kCount, ""},
                          {"sum_total", AggFunc::kSum, "total"},
                          {"avg_total", AggFunc::kAvg, "total"}}));
  ExpectParity(Aggregate(ScanTable(&orders_), {"custkey"},
                         {{"n", AggFunc::kCount, ""},
                          {"max_total", AggFunc::kMax, "total"}}));
}

TEST_F(PipelineParityTest, Sort) {
  ExpectParity(Sort(ScanTable(&orders_), {{"total", false}}));
  ExpectParity(
      Sort(ScanTable(&orders_), {{"custkey", true}, {"orderkey", true}}));
}

TEST_F(PipelineParityTest, ComposedPipeline) {
  ExpectParity(
      Sort(Project(Filter(HashJoin(ScanTable(&orders_), ScanTable(&customer_),
                                   {"custkey"}, {"custkey"}),
                          Gt(Col("total"), Lit(20.0))),
                   {{"name", Col("name"), DataType::kNull},
                    {"total", Col("total"), DataType::kNull}}),
           {{"total", false}}));
}

// Row counts straddling the batch capacity: 0, 1, capacity-1, capacity,
// capacity+1, and a multi-batch count that is not a multiple of it.
TEST_F(PipelineParityTest, BatchBoundaries) {
  for (size_t n : {size_t{0}, size_t{1}, kBatchCapacity - 1, kBatchCapacity,
                   kBatchCapacity + 1, 2 * kBatchCapacity + 53}) {
    SCOPED_TRACE(testing::Message() << n << " rows");
    Table data;
    data.name = "data";
    data.schema.AddColumn("k", DataType::kInt64, false)
        .AddColumn("v", DataType::kDouble);
    for (size_t i = 0; i < n; ++i) {
      data.rows.push_back(
          {Value::Int(static_cast<int64_t>(i)), Value::Double(i * 0.5)});
    }
    Plan scan = ScanValues(&data);
    ExpectParity(scan);
    ExpectParity(Filter(scan, Eq(Arith(ArithmeticOp::kMod, Col("k"),
                                       Lit(int64_t{2})),
                                 Lit(int64_t{0}))));
    ExpectParity(
        Project(Filter(scan, Gt(Col("v"), Lit(10.0))),
                {{"doubled", Mul(Col("v"), Lit(2.0)), DataType::kNull}}));
  }
}

// Operators point into the rows a join was handed owned only once they stop
// growing: a slab's cells move while it grows. Build and probe sides built
// by a projection, longer than one batch, so the build slab grows across
// batches and the probe side arrives as several owned batches.
TEST_F(PipelineParityTest, OwnedJoinSidesAcrossBatches) {
  for (size_t n : {kBatchCapacity + 1, 2 * kBatchCapacity + 53}) {
    SCOPED_TRACE(testing::Message() << n << " rows");
    Table data;
    data.name = "data" + std::to_string(n);
    data.schema.AddColumn("k", DataType::kInt64, false)
        .AddColumn("v", DataType::kDouble);
    for (size_t i = 0; i < n; ++i) {
      data.rows.push_back(
          {Value::Int(static_cast<int64_t>(i)), Value::Double(i * 0.5)});
    }
    ASSERT_TRUE(catalog_.Add(data).ok());
    // Two build rows share each halved key.
    ExprPtr half = Div(Col("k"), Lit(int64_t{2}));
    Plan owned = Project(ScanTable(&data),
                         {{"k2", half, DataType::kNull},
                          {"w", Mul(Col("v"), Lit(2.0)), DataType::kNull}});
    Plan keyed = Project(ScanTable(&data), {{"k", Col("k"), DataType::kNull},
                                            {"k2", half, DataType::kNull}});
    ExpectParity(HashJoin(ScanValues(&data), owned, {"k"}, {"k2"}));
    ExpectParity(HashJoin(keyed, ScanTable(&data), {"k2"}, {"k"}));
    ExpectParity(HashJoin(keyed, owned, {"k"}, {"k2"}));
  }
}

// Four statements written out as plans, each labelled with the SELECT it
// computes: the pipeline matches the oracle exactly, and the work it
// charges stays pinned.
TEST_F(PipelineParityTest, StatementPlans) {
  Table t;
  t.name = "t";
  t.schema.AddColumn("k", DataType::kInt64, false)
      .AddColumn("grp", DataType::kInt64)
      .AddColumn("v", DataType::kDouble)
      .AddColumn("s", DataType::kString)
      .SetPrimaryKey({"k"});
  for (int i = 0; i < 40; ++i) {
    t.rows.push_back({Value::Int(i), Value::Int(i % 4), Value::Double(i * 1.5),
                      Value::String("s" + std::to_string(i % 7))});
  }
  ASSERT_TRUE(catalog_.Add(t).ok());
  auto col = [](const char* name) {
    return ProjectionItem{name, Col(name), DataType::kNull};
  };
  struct Statement {
    const char* select;
    Plan plan;
    uint64_t rows_processed;  ///< pinned
  };
  const Statement statements[] = {
      {"SELECT * FROM t", ScanTable(&t), 40},
      {"SELECT k, v * 2 AS twice FROM t WHERE grp = 1",
       Project(Filter(ScanTable(&t), Eq(Col("grp"), Lit(int64_t{1}))),
               {col("k"), {"twice", Mul(Col("v"), Lit(int64_t{2}))}}),
       90},
      {"SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY grp "
       "ORDER BY grp",
       Sort(Project(Aggregate(ScanTable(&t), {"grp"},
                              {{"n", AggFunc::kCount, ""},
                               {"total", AggFunc::kSum, "v"}}),
                    {col("grp"), col("n"), col("total")}),
            {{"grp", true}}),
       88},
      {"SELECT DISTINCT grp FROM t ORDER BY grp",
       Sort(UnionDistinct({Project(ScanTable(&t), {col("grp")})}, {}),
            {{"grp", true}}),
       124},
  };
  for (const Statement& stmt : statements) {
    SCOPED_TRACE(stmt.select);
    ExpectParity(stmt.plan);
    PipelineRun run = RunPipeline(catalog_.Lower(stmt.plan), catalog_);
    ASSERT_TRUE(run.status.ok()) << run.status;
    EXPECT_EQ(run.rows_processed, stmt.rows_processed);
  }
}

}  // namespace
}  // namespace oracle
}  // namespace dipbench
