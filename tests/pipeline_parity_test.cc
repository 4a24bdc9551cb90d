// Parity tests for the execution modes: the batch-pipelined production
// path (Open/Next/Close cursor chains), also crossed with an operator
// memory budget that forces blocking operators to spill partitioned runs
// to disk, against the materializing test reference (every operator
// produces a full RowSet). The contract is that all of them are
// observationally identical — same rows, same schemas, and the same
// ExecContext / storage counters, because those counters feed the cost
// model (ChargeRows -> Cc/Cm/Cp ledger -> Monitor CSV). The tests here
// enforce that contract at three levels:
//
//   1. operator level: every plan operator, including batch-boundary row
//      counts (0 / 1 / capacity-1 / capacity / capacity+1 / multi-batch);
//   2. SQL engine level: a battery of statements run under each mode;
//   3. benchmark level: full Client runs of the 15 process types must emit
//      byte-identical Monitor CSV and identical NAVG+ per process.
//
// The one deliberate exception (SPECIFICATION.md §14.4): LIMIT
// short-circuits in the pipeline, so for plans whose limit cuts a
// streaming prefix the pipeline may do LESS work than materialization
// (never more, and never different rows).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dipbench/client.h"
#include "src/dipbench/monitor.h"
#include "src/ra/expr.h"
#include "src/ra/plan.h"
#include "src/sql/engine.h"
#include "src/storage/database.h"
#include "src/storage/spill.h"

namespace dipbench {
namespace {

/// Canonical text form of a result: schema (names + types) and every value.
/// String comparison keeps failure output readable and catches schema drift
/// (e.g. a mode disagreeing on an inferred projection type).
std::string Dump(const RowSet& rs) {
  std::ostringstream out;
  for (size_t i = 0; i < rs.schema.num_columns(); ++i) {
    const Column& c = rs.schema.column(i);
    out << (i ? "," : "") << c.name << ":" << DataTypeToString(c.type);
  }
  out << "\n";
  for (const Row& row : rs.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? "," : "") << row[i].ToString();
    }
    out << "\n";
  }
  return out.str();
}

struct ModeRun {
  std::string dump;
  uint64_t rows_processed = 0;
  uint64_t operator_invocations = 0;
  uint64_t db_rows_read = 0;  ///< storage-level reads during the run
};

class PipelineParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema orders;
    orders.AddColumn("orderkey", DataType::kInt64, false)
        .AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("total", DataType::kDouble)
        .AddColumn("orderdate", DataType::kDate)
        .SetPrimaryKey({"orderkey"});
    orders_ = *db_.CreateTable("orders", orders);

    Schema customer;
    customer.AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .AddColumn("nation", DataType::kString)
        .SetPrimaryKey({"custkey"});
    customer_ = *db_.CreateTable("customer", customer);

    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(customer_
                      ->Insert({Value::Int(i),
                                Value::String("c" + std::to_string(i)),
                                Value::String(i % 2 ? "DE" : "FR")})
                      .ok());
    }
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(orders_
                      ->Insert({Value::Int(i), Value::Int(1 + i % 3),
                                Value::Double(i * 10.0),
                                Value::DateYmd(2008, 1 + i % 3, 1 + i)})
                      .ok());
    }
  }

  ModeRun RunIn(const PlanPtr& plan, ExecMode mode, size_t budget = 0) {
    ScopedExecMode scoped(mode);
    ScopedMemoryBudget scoped_budget(budget);
    ExecContext ctx;
    uint64_t reads_before = db_.TotalRowsRead();
    auto rs = plan->Execute(&ctx);
    EXPECT_TRUE(rs.ok()) << rs.status();
    ModeRun run;
    if (rs.ok()) run.dump = Dump(*rs);
    run.rows_processed = ctx.rows_processed;
    run.operator_invocations = ctx.operator_invocations;
    run.db_rows_read = db_.TotalRowsRead() - reads_before;
    return run;
  }

  /// The core assertion: identical rows AND identical counters between the
  /// modes, including a tiny spill-forcing memory budget. Counter equality is what keeps the cost ledger (and therefore
  /// the Monitor's NAVG+ output) independent of the execution mode.
  void ExpectParity(const PlanPtr& plan) {
    ModeRun mat = RunIn(plan, ExecMode::kMaterialize);
    struct Variant {
      const char* name;
      ExecMode mode;
      size_t budget;  ///< bytes; 512 spills after a handful of rows
    };
    constexpr Variant kVariants[] = {
        {"pipeline", ExecMode::kPipeline, 0},
        {"pipeline+spill", ExecMode::kPipeline, 512},
    };
    for (const Variant& v : kVariants) {
      SCOPED_TRACE(v.name);
      ModeRun run = RunIn(plan, v.mode, v.budget);
      EXPECT_EQ(mat.dump, run.dump);
      EXPECT_EQ(mat.rows_processed, run.rows_processed);
      EXPECT_EQ(mat.operator_invocations, run.operator_invocations);
      EXPECT_EQ(mat.db_rows_read, run.db_rows_read);
    }
  }

  /// Relaxed assertion for plans where a LIMIT cuts a streaming prefix:
  /// rows must still be identical in both modes, but the pipeline is
  /// allowed to do strictly less work (the short-circuit of
  /// SPECIFICATION.md §14.4) — never more.
  void ExpectRowsWithBoundedWork(const PlanPtr& plan) {
    ModeRun mat = RunIn(plan, ExecMode::kMaterialize);
    ModeRun run = RunIn(plan, ExecMode::kPipeline);
    EXPECT_EQ(mat.dump, run.dump);
    EXPECT_LE(run.rows_processed, mat.rows_processed);
    EXPECT_LE(run.db_rows_read, mat.db_rows_read);
  }

  Database db_{"test"};
  Table* orders_ = nullptr;
  Table* customer_ = nullptr;
};

TEST_F(PipelineParityTest, Scan) { ExpectParity(ScanTable(orders_)); }

TEST_F(PipelineParityTest, Filter) {
  ExpectParity(Filter(ScanTable(orders_), Gt(Col("total"), Lit(50.0))));
  // Everything filtered out.
  ExpectParity(Filter(ScanTable(orders_), Gt(Col("total"), Lit(1e9))));
  // Short-circuiting logical predicate.
  ExpectParity(Filter(ScanTable(orders_),
                      Or(Le(Col("orderkey"), Lit(int64_t{2})),
                         And(Eq(Col("custkey"), Lit(int64_t{1})),
                             Ge(Col("total"), Lit(40.0))))));
}

TEST_F(PipelineParityTest, Project) {
  ExpectParity(Project(
      ScanTable(orders_),
      {{"orderkey", Col("orderkey"), DataType::kNull},
       {"gross", Mul(Col("total"), Lit(1.19)), DataType::kNull},
       {"total_int", Col("total"), DataType::kInt64},  // forced cast
       {"flag", IsNull(Col("orderdate")), DataType::kNull}}));
}

TEST_F(PipelineParityTest, HashJoin) {
  ExpectParity(HashJoin(ScanTable(orders_), ScanTable(customer_),
                        {"custkey"}, {"custkey"}));
  // Empty probe side.
  ExpectParity(HashJoin(
      Filter(ScanTable(orders_), Gt(Col("total"), Lit(1e9))),
      ScanTable(customer_), {"custkey"}, {"custkey"}));
  // Empty build side.
  ExpectParity(HashJoin(
      ScanTable(orders_),
      Filter(ScanTable(customer_), Eq(Col("nation"), Lit("XX"))),
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
    Schema region;
    region.AddColumn("regionkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .SetPrimaryKey({"regionkey"});
    region_ = *db_.CreateTable("region", region);
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(region_
                      ->Insert({Value::Int(r),
                                Value::String("R" + std::to_string(r))})
                      .ok());
    }
    Schema nation;
    nation.AddColumn("nationkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .AddColumn("regionkey", DataType::kInt64)
        .SetPrimaryKey({"nationkey"});
    nation_ = *db_.CreateTable("nation", nation);
    for (int n = 0; n < 6; ++n) {
      ASSERT_TRUE(nation_
                      ->Insert({Value::Int(n),
                                Value::String("N" + std::to_string(n)),
                                n == 5 ? Value::Null() : Value::Int(n % 3)})
                      .ok());
    }
    Schema city;  // no primary key: duplicate join keys allowed
    city.AddColumn("citykey", DataType::kInt64)
        .AddColumn("name", DataType::kString)
        .AddColumn("nationkey", DataType::kInt64);
    city_ = *db_.CreateTable("city", city);
    for (int c = 0; c < 10; ++c) {
      std::string name = "C" + std::to_string(c) + (c == 3 ? "a" : "");
      ASSERT_TRUE(city_
                      ->Insert({Value::Int(c), Value::String(name),
                                Value::Int(c % 6)})
                      .ok());
    }
    ASSERT_TRUE(city_
                    ->Insert({Value::Int(3), Value::String("C3b"),
                              Value::Int(4)})
                    .ok());
    ASSERT_TRUE(city_
                    ->Insert({Value::Null(), Value::String("Cnull"),
                              Value::Int(1)})
                    .ok());
    Schema sales;
    sales.AddColumn("okey", DataType::kInt64, false)
        .AddColumn("citykey", DataType::kInt64)
        .AddColumn("amount", DataType::kDouble)
        .SetPrimaryKey({"okey"});
    sales_ = *db_.CreateTable("sales", sales);
    for (size_t i = 0; i < kBatchCapacity + 300; ++i) {
      const int64_t k = static_cast<int64_t>(i);
      ASSERT_TRUE(sales_
                      ->Insert({Value::Int(k),
                                i % 7 == 0 ? Value::Null() : Value::Int(k % 12),
                                Value::Double(static_cast<double>(k % 50))})
                      .ok());
    }
  }

  /// sales ⋈ city ⋈ nation ⋈ region with the build sides given.
  PlanPtr Chain(PlanPtr city, PlanPtr nation, PlanPtr region) {
    return HashJoin(
        HashJoin(HashJoin(ScanTable(sales_), std::move(city), {"citykey"},
                          {"citykey"}),
                 std::move(nation), {"nationkey"}, {"nationkey"}),
        std::move(region), {"regionkey"}, {"regionkey"});
  }
  PlanPtr Chain() {
    return Chain(ScanTable(city_), ScanTable(nation_), ScanTable(region_));
  }

  Table* region_ = nullptr;
  Table* nation_ = nullptr;
  Table* city_ = nullptr;
  Table* sales_ = nullptr;
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
  PlanPtr owned_region =
      Project(ScanTable(region_),
              {{"regionkey", Col("regionkey"), DataType::kNull},
               {"name", Func("lower", {Col("name")}), DataType::kNull}});
  PlanPtr owned_city = Project(
      ScanTable(city_), {{"citykey", Col("citykey"), DataType::kNull},
                         {"name", Col("name"), DataType::kNull},
                         {"nationkey", Col("nationkey"), DataType::kNull}});
  ExpectParity(Chain(ScanTable(city_), ScanTable(nation_), owned_region));
  ExpectParity(Chain(owned_city, ScanTable(nation_), ScanTable(region_)));
  ExpectParity(HashJoin(
      Project(ScanTable(sales_), {{"okey", Col("okey"), DataType::kNull},
                                  {"citykey", Col("citykey"),
                                   DataType::kNull}}),
      ScanTable(city_), {"citykey"}, {"citykey"}));
  // A build side that is itself a join: two-row build tuples.
  ExpectParity(HashJoin(ScanTable(sales_),
                        HashJoin(ScanTable(city_), ScanTable(nation_),
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
  ExpectParity(Limit(Chain(), 1u << 20));
  ExpectRowsWithBoundedWork(Limit(Chain(), 25));
}

TEST_F(NestedJoinParityTest, DuplicateBuildKeysMatchNewestFirst) {
  // One probe row (citykey 3) meets two build rows with its key: they come
  // out in descending build-row order, "C3b" before "C3a", in every mode.
  PlanPtr plan = Project(
      HashJoin(Filter(ScanTable(sales_), Eq(Col("okey"), Lit(int64_t{3}))),
               ScanTable(city_), {"citykey"}, {"citykey"}),
      {{"city", Col("name"), DataType::kNull}});
  ExpectParity(plan);
  for (ExecMode mode : {ExecMode::kMaterialize, ExecMode::kPipeline}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EXPECT_EQ(RunIn(plan, mode).dump, "city:STRING\nC3b\nC3a\n");
  }
}

TEST_F(PipelineParityTest, IndexRangeScan) {
  ASSERT_TRUE(orders_->CreateOrderedIndex("by_total", "total").ok());
  ExpectParity(IndexRangeScan(orders_, "by_total", Value::Double(25.0),
                              Value::Double(75.0)));
}

TEST_F(PipelineParityTest, UnionDistinct) {
  auto first =
      Filter(ScanTable(orders_), Le(Col("orderkey"), Lit(int64_t{6})));
  auto second =
      Filter(ScanTable(orders_), Ge(Col("orderkey"), Lit(int64_t{4})));
  ExpectParity(UnionDistinct({first, second}, {"orderkey"}));
}

TEST_F(PipelineParityTest, Aggregate) {
  ExpectParity(Aggregate(ScanTable(orders_), {},
                         {{"n", AggFunc::kCount, ""},
                          {"sum_total", AggFunc::kSum, "total"},
                          {"avg_total", AggFunc::kAvg, "total"}}));
  ExpectParity(Aggregate(ScanTable(orders_), {"custkey"},
                         {{"n", AggFunc::kCount, ""},
                          {"max_total", AggFunc::kMax, "total"}}));
}

TEST_F(PipelineParityTest, Sort) {
  ExpectParity(Sort(ScanTable(orders_), {{"total", false}}));
  ExpectParity(
      Sort(ScanTable(orders_), {{"custkey", true}, {"orderkey", true}}));
}

TEST_F(PipelineParityTest, Limit) {
  // The streaming Limit short-circuits (SPECIFICATION.md §14.4): rows are
  // identical in both modes, but the pipeline stops pulling once the
  // limit is reached, so its work counters are bounded by — not equal
  // to — the materializing run's.
  ExpectRowsWithBoundedWork(Limit(ScanTable(orders_), 0));
  ExpectRowsWithBoundedWork(Limit(ScanTable(orders_), 3));
  // A limit beyond the input drains everything: full counter parity.
  ExpectParity(Limit(ScanTable(orders_), 100));
}

// Regression for the LIMIT drain bug: the streaming cursor used to keep
// pulling its child to end of stream after the limit was hit, so a small
// LIMIT over a big scan still read the whole table. Now upstream work is
// bounded by O(limit + batch size).
TEST_F(PipelineParityTest, LimitShortCircuitBoundsUpstreamWork) {
  Schema s;
  s.AddColumn("k", DataType::kInt64, false).SetPrimaryKey({"k"});
  Table* big = *db_.CreateTable("big", s);
  const size_t n = 8 * kBatchCapacity;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(big->Insert({Value::Int(static_cast<int64_t>(i))}).ok());
  }
  const size_t limit = 5;
  PlanPtr plan = Limit(ScanTable(big), limit);
  ModeRun run = RunIn(plan, ExecMode::kPipeline);
  // Header line + one line per row.
  EXPECT_EQ(static_cast<size_t>(
                std::count(run.dump.begin(), run.dump.end(), '\n')),
            1 + limit);
  // One scan batch at most is pulled past the limit.
  EXPECT_LE(run.db_rows_read, limit + kBatchCapacity);
  EXPECT_LE(run.rows_processed, 2 * (limit + kBatchCapacity));
  // Materializing mode still reads everything — that asymmetry is the bug
  // fix, and it is documented rather than hidden.
  ModeRun mat = RunIn(plan, ExecMode::kMaterialize);
  EXPECT_EQ(mat.db_rows_read, n);
}

TEST_F(PipelineParityTest, ComposedPipeline) {
  ExpectParity(Limit(
      Sort(Project(Filter(HashJoin(ScanTable(orders_), ScanTable(customer_),
                                   {"custkey"}, {"custkey"}),
                          Gt(Col("total"), Lit(20.0))),
                   {{"name", Col("name"), DataType::kNull},
                    {"total", Col("total"), DataType::kNull}}),
           {{"total", false}}),
      4));
}

// Row counts straddling the batch capacity: 0, 1, capacity-1, capacity,
// capacity+1, and a multi-batch count that is not a multiple of it.
TEST_F(PipelineParityTest, BatchBoundaries) {
  for (size_t n : {size_t{0}, size_t{1}, kBatchCapacity - 1, kBatchCapacity,
                   kBatchCapacity + 1, 2 * kBatchCapacity + 53}) {
    Schema s;
    s.AddColumn("k", DataType::kInt64, false)
        .AddColumn("v", DataType::kDouble);
    RowSet data;
    data.schema = s;
    for (size_t i = 0; i < n; ++i) {
      data.rows.push_back(
          {Value::Int(static_cast<int64_t>(i)), Value::Double(i * 0.5)});
    }
    PlanPtr scan = ScanValues(std::move(data));
    ExpectParity(scan);
    ExpectParity(Filter(scan, Eq(Arith(ArithmeticOp::kMod, Col("k"),
                                       Lit(int64_t{2})),
                                 Lit(int64_t{0}))));
    ExpectParity(
        Project(Filter(scan, Gt(Col("v"), Lit(10.0))),
                {{"doubled", Mul(Col("v"), Lit(2.0)), DataType::kNull}}));
    // LIMIT cuts a streaming prefix: rows identical, work bounded
    // (SPECIFICATION.md §14.4).
    ExpectRowsWithBoundedWork(Limit(scan, n / 2 + 1));
  }
}

TEST_F(PipelineParityTest, SqlEngineBattery) {
  const char* ddl =
      "CREATE TABLE t (k INT NOT NULL, grp INT, v DOUBLE, s VARCHAR, "
      "PRIMARY KEY (k))";
  const char* statements[] = {
      "SELECT * FROM t",
      "SELECT k, v * 2 AS twice FROM t WHERE grp = 1",
      "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT DISTINCT grp FROM t ORDER BY grp",
      "SELECT s, v FROM t ORDER BY v DESC LIMIT 5",
      "SELECT * FROM t JOIN grps ON grp = gid LIMIT 7",
  };

  auto run_mode = [&](ExecMode mode, std::vector<std::string>* dumps,
                      std::vector<uint64_t>* work) {
    ScopedExecMode scoped(mode);
    Database db("sql_parity");
    sql::SqlEngine engine(&db);
    ASSERT_TRUE(engine.Execute(ddl).ok());
    ASSERT_TRUE(engine
                    .Execute("CREATE TABLE grps (gid INT NOT NULL, "
                             "label VARCHAR, PRIMARY KEY (gid))")
                    .ok());
    for (int g = 0; g < 4; ++g) {
      std::ostringstream ins;
      ins << "INSERT INTO grps VALUES (" << g << ", 'g" << g << "')";
      ASSERT_TRUE(engine.Execute(ins.str()).ok());
    }
    for (int i = 0; i < 40; ++i) {
      std::ostringstream ins;
      ins << "INSERT INTO t VALUES (" << i << ", " << i % 4 << ", "
          << (i * 1.5) << ", 's" << i % 7 << "')";
      ASSERT_TRUE(engine.Execute(ins.str()).ok());
    }
    for (const char* stmt : statements) {
      auto result = engine.Execute(stmt);
      if (!result.ok()) {
        // Statement shape unsupported by the mini-parser: both modes must
        // at least agree on that.
        dumps->push_back("ERROR: " + result.status().ToString());
        work->push_back(0);
        continue;
      }
      dumps->push_back(Dump(result->rows));
      work->push_back(engine.last_exec().rows_processed);
    }
  };

  std::vector<std::string> mat_dumps, pipe_dumps;
  std::vector<uint64_t> mat_work, pipe_work;
  run_mode(ExecMode::kMaterialize, &mat_dumps, &mat_work);
  run_mode(ExecMode::kPipeline, &pipe_dumps, &pipe_work);
  ASSERT_EQ(mat_dumps.size(), pipe_dumps.size());
  for (size_t i = 0; i < mat_dumps.size(); ++i) {
    EXPECT_EQ(mat_dumps[i], pipe_dumps[i]) << statements[i];
    // LIMIT statements short-circuit in the pipeline (§14.4): work is
    // bounded by the materializing run, equal for everything else.
    if (std::string(statements[i]).find("LIMIT") != std::string::npos) {
      EXPECT_LE(pipe_work[i], mat_work[i]) << statements[i];
    } else {
      EXPECT_EQ(mat_work[i], pipe_work[i]) << statements[i];
    }
  }
}

// The top-level contract from the paper's point of view: a full benchmark
// run — all 15 process types over TinyConfig periods — must produce a
// byte-identical Monitor CSV (every NAVG, sigma+, NAVG+, Cc/Cm/Cp column)
// and identical verification totals in both modes. This is what makes the
// pipelined engine a pure performance refactor rather than a semantic one.
TEST_F(PipelineParityTest, FullBenchmarkMonitorCsvIsByteIdentical) {
  ScaleConfig cfg;
  cfg.datasize = 0.02;
  cfg.periods = 2;
  cfg.seed = 7;

  struct BenchRun {
    std::string csv;
    std::vector<double> navg_plus;
    size_t dwh_orders = 0;
    double dwh_revenue = 0.0;
    size_t mart_orders_total = 0;
    size_t failed_messages = 0;
  };
  auto run = [&](bool federated, ExecMode mode,
                 size_t budget = 0) -> BenchRun {
    ScopedExecMode scoped(mode);
    ScaleConfig run_cfg = cfg;
    run_cfg.operator_memory_budget = budget;
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    std::unique_ptr<core::IntegrationSystem> engine;
    if (federated) {
      engine = std::make_unique<core::FederatedEngine>(scenario->network());
    } else {
      engine = std::make_unique<core::DataflowEngine>(scenario->network());
    }
    Client client(scenario.get(), engine.get(), run_cfg);
    auto result = client.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    BenchRun br;
    if (!result.ok()) return br;
    br.csv = Monitor::ToCsv(result->per_process);
    for (int p = 1; p <= 15; ++p) {
      char id[8];
      std::snprintf(id, sizeof(id), "P%02d", p);
      br.navg_plus.push_back(result->NavgPlus(id));
    }
    br.dwh_orders = result->verification.dwh_orders;
    br.dwh_revenue = result->verification.dwh_revenue;
    br.mart_orders_total = result->verification.mart_orders_total;
    br.failed_messages = result->verification.failed_messages;
    return br;
  };

  auto expect_same = [&](const BenchRun& mat, const BenchRun& other) {
    EXPECT_EQ(mat.csv, other.csv);  // byte-identical Monitor output
    ASSERT_EQ(mat.navg_plus.size(), other.navg_plus.size());
    for (size_t i = 0; i < mat.navg_plus.size(); ++i) {
      EXPECT_EQ(mat.navg_plus[i], other.navg_plus[i]) << "P" << (i + 1);
    }
    EXPECT_EQ(mat.dwh_orders, other.dwh_orders);
    EXPECT_EQ(mat.dwh_revenue, other.dwh_revenue);
    EXPECT_EQ(mat.mart_orders_total, other.mart_orders_total);
    EXPECT_EQ(mat.failed_messages, other.failed_messages);
  };

  for (bool federated : {true, false}) {
    SCOPED_TRACE(federated ? "FederatedEngine" : "DataflowEngine");
    BenchRun mat = run(federated, ExecMode::kMaterialize);
    {
      SCOPED_TRACE("pipeline");
      expect_same(mat, run(federated, ExecMode::kPipeline));
    }
    {
      // A 4 KiB budget forces the benchmark's blocking operators out of
      // core; the Monitor CSV must not move by a byte.
      SCOPED_TRACE("pipeline+spill");
      expect_same(mat, run(federated, ExecMode::kPipeline, 4096));
    }
  }
}

// Satellite battery across datasize x seed: every (mode, budget) variant of
// a full benchmark run reproduces the materializing run's Monitor CSV byte
// for byte, and the budgeted run demonstrably engages the spill path (run
// files actually written).
TEST_F(PipelineParityTest, MonitorCsvParityAcrossDatasizesAndSeeds) {
  struct Point {
    double datasize;
    uint64_t seed;
  };
  const Point points[] = {{0.01, 7}, {0.01, 42}, {0.1, 7}, {0.1, 42}};

  for (const Point& pt : points) {
    SCOPED_TRACE(testing::Message()
                 << "d=" << pt.datasize << " seed=" << pt.seed);
    ScaleConfig cfg;
    cfg.datasize = pt.datasize;
    cfg.periods = 1;
    cfg.seed = pt.seed;

    auto run = [&](ExecMode mode, size_t budget) -> std::string {
      ScopedExecMode scoped(mode);
      ScaleConfig run_cfg = cfg;
      run_cfg.operator_memory_budget = budget;
      auto scenario = std::move(Scenario::Create()).ValueOrDie();
      core::DataflowEngine engine(scenario->network());
      Client client(scenario.get(), &engine, run_cfg);
      auto result = client.Run();
      EXPECT_TRUE(result.ok()) << result.status();
      return result.ok() ? Monitor::ToCsv(result->per_process)
                         : std::string();
    };

    std::string baseline = run(ExecMode::kMaterialize, 0);
    EXPECT_EQ(baseline, run(ExecMode::kPipeline, 0));
    SpillStats before = GetSpillStats();
    EXPECT_EQ(baseline, run(ExecMode::kPipeline, 2048));
    SpillStats after = GetSpillStats();
    // The 2 KiB budget must actually push blocking operators out of core —
    // otherwise the "spill parity" above would be vacuously true.
    EXPECT_GT(after.runs, before.runs);
    EXPECT_GT(after.rows, before.rows);
  }
}

}  // namespace
}  // namespace dipbench
