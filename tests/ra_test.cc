#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ra/expr.h"
#include "src/ra/plan.h"
#include "src/ra/query.h"
#include "src/storage/database.h"

namespace dipbench {
namespace {

/// Test rows as one slab; they share one width.
RowSlab Slab(const std::vector<Row>& rows) {
  return RowSlab::FromRows(rows).ValueOrDie();
}

class RaTest : public ::testing::Test {
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
                      ->Insert({Value::Int(i), Value::String("c" +
                                                             std::to_string(i)),
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

  Database db_{"test"};
  Table* orders_ = nullptr;
  Table* customer_ = nullptr;
  ExecContext ctx_;
};

TEST_F(RaTest, ScanReturnsAllRows) {
  auto rs = ScanTable(orders_)->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 10u);
  EXPECT_EQ(rs->schema.num_columns(), 4u);
  EXPECT_GE(ctx_.rows_processed, 10u);
}

TEST_F(RaTest, FilterByPredicate) {
  auto rs = Filter(ScanTable(orders_), Gt(Col("total"), Lit(50.0)))
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 5u);
}

// Predicate semantics of the row path: a comparison with
// NULL is false, AND/OR/NOT see such a comparison as false (NOT makes it
// true), INT64 and DOUBLE compare through Value::Compare, and strings
// compare lexicographically. Expected rows come from a C++ oracle over the
// generator index, not from the evaluator under test.
TEST_F(RaTest, FilterPredicateSemantics) {
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("v", DataType::kDouble)
      .AddColumn("tag", DataType::kString)
      .AddColumn("flag", DataType::kBool)
      .SetPrimaryKey({"k"});
  Table* t = *db_.CreateTable("mixed", s);
  auto v_null = [](int i) { return i % 7 == 0; };
  auto v = [](int i) { return i * 0.25; };
  auto tag = [](int i) -> std::string {
    return i % 3 == 0 ? "fizz" : (i % 5 == 0 ? "buzz" : "plain");
  };
  auto flag = [](int i) { return i % 2 == 0; };
  constexpr int kRows = 200;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i),
                           v_null(i) ? Value::Null() : Value::Double(v(i)),
                           Value::String(tag(i)), Value::Bool(flag(i))})
                    .ok());
  }
  // v > x and v < x for a non-NULL v only: the oracle's view of NULL.
  auto v_gt = [&](int i, double x) { return !v_null(i) && v(i) > x; };
  auto v_lt = [&](int i, double x) { return !v_null(i) && v(i) < x; };

  struct Case {
    PlanPtr plan;
    std::function<bool(int)> keep;
  };
  auto filter = [&](ExprPtr pred) { return Filter(ScanTable(t), pred); };
  const std::vector<Case> cases = {
      // Numeric comparisons, literal on either side.
      {filter(Gt(Col("v"), Lit(20.0))), [&](int i) { return v_gt(i, 20.0); }},
      {filter(Lt(Lit(30.0), Col("v"))), [&](int i) { return v_gt(i, 30.0); }},
      {filter(Le(Col("k"), Lit(int64_t{42}))), [](int i) { return i <= 42; }},
      // INT64 against DOUBLE, literal and column.
      {filter(Ge(Col("k"), Lit(99.5))), [](int i) { return i >= 100; }},
      {filter(Gt(Col("v"), Col("k"))), [](int) { return false; }},
      {filter(Lt(Col("v"), Col("k"))),
       [&](int i) { return !v_null(i) && i > 0; }},
      // Strings.
      {filter(Eq(Col("tag"), Lit("fizz"))),
       [&](int i) { return tag(i) == "fizz"; }},
      {filter(Ne(Col("tag"), Lit("plain"))),
       [&](int i) { return tag(i) != "plain"; }},
      {filter(Eq(Col("tag"), Lit("absent"))), [](int) { return false; }},
      {filter(Ne(Col("tag"), Lit("absent"))), [](int) { return true; }},
      {filter(Lt(Col("tag"), Lit("fizz"))),
       [&](int i) { return tag(i) == "buzz"; }},
      // Connectives, IS NULL, and comparisons over NULL inside them.
      {filter(And(Gt(Col("v"), Lit(5.0)), Eq(Col("tag"), Lit("plain")))),
       [&](int i) { return v_gt(i, 5.0) && tag(i) == "plain"; }},
      {filter(Or(Eq(Col("tag"), Lit("fizz")), Le(Col("k"), Lit(int64_t{10})))),
       [&](int i) { return tag(i) == "fizz" || i <= 10; }},
      {filter(Not(Eq(Col("tag"), Lit("buzz")))),
       [&](int i) { return tag(i) != "buzz"; }},
      {filter(IsNull(Col("v"))), v_null},
      {filter(Not(IsNull(Col("v")))), [&](int i) { return !v_null(i); }},
      {filter(Or(Gt(Col("v"), Lit(1e9)), Col("flag"))), flag},
      {filter(And(Gt(Col("v"), Lit(0.0)), Col("flag"))),
       [&](int i) { return v_gt(i, 0.0) && flag(i); }},
      {filter(Not(Gt(Col("v"), Lit(10.0)))),
       [&](int i) { return !v_gt(i, 10.0); }},
      {filter(Not(Lt(Col("v"), Lit(10.0)))),
       [&](int i) { return !v_lt(i, 10.0); }},
      // A filter over a filter keeps the conjunction.
      {Filter(filter(Gt(Col("v"), Lit(10.0))), Eq(Col("tag"), Lit("fizz"))),
       [&](int i) { return v_gt(i, 10.0) && tag(i) == "fizz"; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.plan->ToString());
    auto rs = c.plan->Execute(&ctx_);
    ASSERT_TRUE(rs.ok()) << rs.status();
    std::vector<int64_t> kept, expected;
    for (RowView row : rs->rows) kept.push_back(row[0].AsInt());
    for (int i = 0; i < kRows; ++i) {
      if (c.keep(i)) expected.push_back(i);
    }
    EXPECT_EQ(kept, expected);
  }
}

TEST_F(RaTest, FilterUnknownColumnErrors) {
  auto rs = Filter(ScanTable(orders_), Gt(Col("missing"), Lit(1.0)))
                ->Execute(&ctx_);
  EXPECT_TRUE(rs.status().IsNotFound());
}

TEST_F(RaTest, ProjectRenamesAndComputes) {
  auto rs = Project(ScanTable(orders_),
                    {{"okey", Col("orderkey"), DataType::kNull},
                     {"total_cents", Mul(Col("total"), Lit(100.0)),
                      DataType::kNull},
                     {"y", Func("year", {Col("orderdate")}), DataType::kNull}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->schema.column(0).name, "okey");
  EXPECT_DOUBLE_EQ(rs->rows[0][1].AsDouble(), 1000.0);
  EXPECT_EQ(rs->rows[0][2].AsInt(), 2008);
}

TEST_F(RaTest, ProjectWithCast) {
  auto rs = Project(ScanTable(orders_),
                    {{"okey_str", Col("orderkey"), DataType::kString}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsString(), "1");
  EXPECT_EQ(rs->schema.column(0).type, DataType::kString);
}

TEST_F(RaTest, HashJoinMatchesForeignKeys) {
  auto rs = HashJoin(ScanTable(orders_), ScanTable(customer_), {"custkey"},
                     {"custkey"})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 10u);  // every order has a customer
  // Right-side custkey collides -> prefixed.
  EXPECT_TRUE(rs->schema.HasColumn("r_custkey"));
  EXPECT_TRUE(rs->schema.HasColumn("name"));
}

TEST_F(RaTest, HashJoinNoMatches) {
  Schema s;
  s.AddColumn("custkey", DataType::kInt64, false);
  RowSet lonely{std::move(s), Slab({{Value::Int(999)}})};
  auto rs = HashJoin(ScanValues(std::move(lonely)), ScanTable(customer_),
                     {"custkey"}, {"custkey"})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(RaTest, UnionDistinctByKey) {
  // Two overlapping order sets, distinct on orderkey.
  auto first = Filter(ScanTable(orders_), Le(Col("orderkey"), Lit(int64_t{6})));
  auto second = Filter(ScanTable(orders_), Ge(Col("orderkey"), Lit(int64_t{4})));
  auto rs = UnionDistinct({first, second}, {"orderkey"})->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 10u);
}

TEST_F(RaTest, DistinctWholeRow) {
  Schema s;
  s.AddColumn("v", DataType::kInt64);
  RowSet dup{s, Slab({{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}})};
  auto rs = UnionDistinct({ScanValues(std::move(dup))}, {})->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST_F(RaTest, AggregateGlobal) {
  auto rs = Aggregate(ScanTable(orders_), {},
                      {{"n", AggFunc::kCount, ""},
                       {"sum_total", AggFunc::kSum, "total"},
                       {"avg_total", AggFunc::kAvg, "total"},
                       {"max_total", AggFunc::kMax, "total"}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 10);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].AsDouble(), 550.0);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].AsDouble(), 55.0);
  EXPECT_DOUBLE_EQ(rs->rows[0][3].AsDouble(), 100.0);
}

TEST_F(RaTest, AggregateGrouped) {
  auto rs = Aggregate(ScanTable(orders_), {"custkey"},
                      {{"n", AggFunc::kCount, ""}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
  int64_t total = 0;
  for (const auto& r : rs->rows) total += r[1].AsInt();
  EXPECT_EQ(total, 10);
}

TEST_F(RaTest, AggregateGroupIdentityAcrossKeyMigration) {
  // INT64 keys start on the raw-integer group table; Double(5.0) migrates
  // it to the serialized-key map mid-input. Identity is the serialized key
  // ("5" for Int(5) and Double(5.0)), a group keeps its first row's key
  // cells, and groups come out in serialized-key order: "" < "10" < "5".
  Schema s;
  s.AddColumn("k", DataType::kInt64).AddColumn("v", DataType::kInt64);
  RowSet in{s, Slab({{Value::Int(10), Value::Int(1)},
                     {Value::Int(5), Value::Int(2)},
                     {Value::Double(5.0), Value::Int(3)},
                     {Value::Null(), Value::Int(4)},
                     {Value::Int(5), Value::Int(5)}})};
  auto rs = Aggregate(ScanValues(in), {"k"},
                      {{"n", AggFunc::kCount, ""},
                       {"sum_v", AggFunc::kSum, "v"}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_TRUE(rs->rows[0][0].is_null());
  EXPECT_EQ(rs->rows[0][1].AsInt(), 1);
  EXPECT_EQ(rs->rows[1][0].type(), DataType::kInt64);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 10);
  EXPECT_EQ(rs->rows[1][1].AsInt(), 1);
  EXPECT_EQ(rs->rows[2][0].type(), DataType::kInt64);
  EXPECT_EQ(rs->rows[2][0].AsInt(), 5);
  EXPECT_EQ(rs->rows[2][1].AsInt(), 3);
  EXPECT_EQ(rs->rows[2][2].AsInt(), 10);
}

// SUM over INT64 inputs is exact and checked. The inputs come from a table
// scan, so the pipeline folds the table's rows in place.
Table* IntTable(Database* db,
                const std::vector<std::pair<int64_t, int64_t>>& rows) {
  Schema s;
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("g", DataType::kInt64, false)
      .AddColumn("v", DataType::kInt64)
      .SetPrimaryKey({"id"});
  Table* t = *db->CreateTable("ints", s);
  int64_t id = 0;
  for (const auto& [g, v] : rows) {
    EXPECT_TRUE(
        t->Insert({Value::Int(id++), Value::Int(g), Value::Int(v)}).ok());
  }
  return t;
}

Result<RowSet> SumByGroup(const Table* t, ExecContext* ctx) {
  return Aggregate(ScanTable(t), {"g"}, {{"total", AggFunc::kSum, "v"}})
      ->Execute(ctx);
}

TEST_F(RaTest, Int64SumIsExact) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  // Group 1: 2^53 + 1, which a double sum rounds to 2^53. Group 2:
  // INT64_MAX - 1, whose double sum is out of INT64's range.
  Table* t = IntTable(&db_, {{1, kTwo53}, {1, 1}, {2, kMax}, {2, -1}});
  auto rs = SumByGroup(t, &ctx_);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][1].type(), DataType::kInt64);
  EXPECT_EQ(rs->rows[0][1].AsInt(), kTwo53 + 1);
  EXPECT_EQ(rs->rows[1][1].type(), DataType::kInt64);
  EXPECT_EQ(rs->rows[1][1].AsInt(), kMax - 1);
}

TEST_F(RaTest, Int64SumOverflowFailsTheQuery) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Table* t = IntTable(&db_, {{1, 5}, {2, kMax}, {2, 1}});
  auto rs = SumByGroup(t, &ctx_);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument) << rs.status();
}

TEST_F(RaTest, SumThatSeesADoubleKeepsDoubleArithmetic) {
  // Once a DOUBLE arrives the group is summed in doubles from its first
  // input on: 2^53 + 1 rounds back to 2^53 before the 1.0 is added.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  Schema s;
  s.AddColumn("v", DataType::kDouble);
  RowSet in{s, Slab({{Value::Int(kTwo53)}, {Value::Int(1)},
                     {Value::Double(1.0)}})};
  auto rs = Aggregate(ScanValues(in), {}, {{"total", AggFunc::kSum, "v"}})
                ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].type(), DataType::kDouble);
  EXPECT_EQ(rs->rows[0][0].AsDouble(), static_cast<double>(kTwo53));
}

TEST_F(RaTest, SortAscendingDescending) {
  auto rs = Sort(ScanTable(orders_), {{"total", false}})->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0][2].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(rs->rows[rs->rows.size() - 1][2].AsDouble(), 10.0);
}

TEST_F(RaTest, SortMultiKeyStable) {
  auto rs =
      Sort(ScanTable(orders_), {{"custkey", true}, {"orderkey", true}})
          ->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 1; i < rs->rows.size(); ++i) {
    int64_t prev = rs->rows[i - 1][1].AsInt();
    int64_t cur = rs->rows[i][1].AsInt();
    EXPECT_LE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(rs->rows[i - 1][0].AsInt(), rs->rows[i][0].AsInt());
    }
  }
}

TEST_F(RaTest, QueryBuilderPipeline) {
  auto rs = Query::From(orders_)
                .Where(Gt(Col("total"), Lit(30.0)))
                .Join(Query::From(customer_), {"custkey"}, {"custkey"})
                .Select({{"name", Col("name"), DataType::kNull},
                         {"total", Col("total"), DataType::kNull}})
                .OrderBy({{"total", false}})
                .Run(&ctx_);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 7u);  // orders 4..10
  EXPECT_DOUBLE_EQ(rs->rows[0][1].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(rs->rows[6][1].AsDouble(), 40.0);
}

TEST_F(RaTest, InsertIntoSkipsDuplicates) {
  Schema target_schema;
  target_schema.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("total", DataType::kDouble)
      .AddColumn("orderdate", DataType::kDate)
      .SetPrimaryKey({"orderkey"});
  Table* target = *db_.CreateTable("orders_copy", std::move(target_schema));
  auto rs = ScanTable(orders_)->Execute(&ctx_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(*InsertInto(target, *rs), 10u);
  EXPECT_EQ(*InsertInto(target, *rs), 0u);  // all duplicates skipped
  EXPECT_EQ(target->size(), 10u);
  EXPECT_EQ(*UpsertInto(target, *rs), 10u);
  EXPECT_EQ(target->size(), 10u);
}

TEST_F(RaTest, ExprArithmeticAndLogic) {
  Schema s;
  s.AddColumn("a", DataType::kInt64).AddColumn("b", DataType::kInt64);
  Row r{Value::Int(7), Value::Int(3)};
  EXPECT_EQ(Add(Col("a"), Col("b"))->Eval(r, s)->AsInt(), 10);
  EXPECT_EQ(Sub(Col("a"), Col("b"))->Eval(r, s)->AsInt(), 4);
  EXPECT_EQ(Mul(Col("a"), Col("b"))->Eval(r, s)->AsInt(), 21);
  EXPECT_EQ(Div(Col("a"), Col("b"))->Eval(r, s)->AsInt(), 2);
  EXPECT_FALSE(Div(Col("a"), Lit(int64_t{0}))->Eval(r, s).ok());
  EXPECT_TRUE(
      And(Gt(Col("a"), Lit(int64_t{5})), Lt(Col("b"), Lit(int64_t{5})))
          ->Eval(r, s)
          ->AsBool());
  EXPECT_FALSE(Not(Gt(Col("a"), Lit(int64_t{5})))->Eval(r, s)->AsBool());
  EXPECT_TRUE(Or(Lt(Col("a"), Lit(int64_t{0})), Eq(Col("b"), Lit(int64_t{3})))
                  ->Eval(r, s)
                  ->AsBool());
}

// SPECIFICATION.md §9.1: INT64 arithmetic is checked. Each case runs
// through the scalar Expr::Eval and through a Project plan, whose cursor
// evaluates it with EvalBatch; both must fail or both must compute `want`.
TEST_F(RaTest, Int64ArithmeticIsChecked) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kTwo32 = int64_t{1} << 32;
  Schema s;
  s.AddColumn("x", DataType::kInt64).AddColumn("y", DataType::kInt64);
  auto arith = [](ArithmeticOp op) { return Arith(op, Col("x"), Col("y")); };
  auto check = [&](const ExprPtr& expr, int64_t x, int64_t y,
                   std::optional<int64_t> want) {
    SCOPED_TRACE(expr->ToString() + " at x=" + std::to_string(x) +
                 ", y=" + std::to_string(y));
    const Row row{Value::Int(x), Value::Int(y)};
    Result<Value> scalar = expr->Eval(row, s);
    Result<RowSet> batch = Project(ScanValues(RowSet{s, Slab({row})}),
                                   {{"r", expr, DataType::kNull}})
                               ->Execute(&ctx_);
    if (!want) {
      for (const Status& st : {scalar.status(), batch.status()}) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
        EXPECT_NE(st.message().find("INT64 overflow"), std::string::npos)
            << st;
      }
      return;
    }
    ASSERT_TRUE(scalar.ok()) << scalar.status();
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(scalar->AsInt(), *want);
    ASSERT_EQ(batch->rows.size(), 1u);
    EXPECT_EQ(batch->rows[0][0].AsInt(), *want);
  };
  check(arith(ArithmeticOp::kAdd), kMax, 1, std::nullopt);
  check(arith(ArithmeticOp::kSub), kMin, 1, std::nullopt);
  check(arith(ArithmeticOp::kMul), kTwo32, kTwo32, std::nullopt);
  check(arith(ArithmeticOp::kDiv), kMin, -1, std::nullopt);
  check(arith(ArithmeticOp::kMod), kMin, -1, std::nullopt);
  // The neighbours that fit.
  check(arith(ArithmeticOp::kAdd), kMax - 1, 1, kMax);
  check(arith(ArithmeticOp::kDiv), -kMax, -1, kMax);
  check(arith(ArithmeticOp::kMod), kMin, 10, -8);
}

TEST_F(RaTest, ExprNullSemantics) {
  Schema s;
  s.AddColumn("a", DataType::kInt64);
  Row r{Value::Null()};
  EXPECT_TRUE(IsNull(Col("a"))->Eval(r, s)->AsBool());
  // NULL comparisons are false.
  EXPECT_FALSE(Eq(Col("a"), Lit(int64_t{1}))->Eval(r, s)->AsBool());
  // NULL arithmetic is NULL.
  EXPECT_TRUE(Add(Col("a"), Lit(int64_t{1}))->Eval(r, s)->is_null());
}

TEST_F(RaTest, ExprScalarFunctions) {
  Schema s;
  s.AddColumn("d", DataType::kDate)
      .AddColumn("name", DataType::kString)
      .AddColumn("q", DataType::kInt64);
  Row r{Value::DateYmd(2008, 4, 12), Value::String("Hamburg"), Value::Null()};
  EXPECT_EQ(Func("year", {Col("d")})->Eval(r, s)->AsInt(), 2008);
  EXPECT_EQ(Func("month", {Col("d")})->Eval(r, s)->AsInt(), 4);
  EXPECT_TRUE(Func("year", {Col("q")})->Eval(r, s)->is_null());
  EXPECT_FALSE(Func("month", {Col("name")})->Eval(r, s).ok());
  EXPECT_EQ(Func("coalesce", {Col("q"), Lit(int64_t{1})})->Eval(r, s)->AsInt(),
            1);
  EXPECT_EQ(
      Func("coalesce", {Lit(Value::Null()), Col("name")})->Eval(r, s)
          ->AsString(),
      "Hamburg");
  // decode(x, k1, v1, ..., [default]): the first matching key's value,
  // else the default, else NULL.
  auto decode = [&](std::vector<ExprPtr> args) {
    args.insert(args.begin(), Col("name"));
    return Func("decode", std::move(args))->Eval(r, s);
  };
  EXPECT_EQ(decode({Lit("Paris"), Lit("FR"), Lit("Hamburg"), Lit("DE")})
                ->AsString(),
            "DE");
  EXPECT_EQ(decode({Lit("Paris"), Lit("FR"), Lit("??")})->AsString(), "??");
  EXPECT_TRUE(decode({Lit("Paris"), Lit("FR")})->is_null());
  EXPECT_FALSE(decode({Lit("Paris")}).ok());
  EXPECT_FALSE(Func("nonsense", {Col("name")})->Eval(r, s).ok());
}

TEST_F(RaTest, PlanToStringIsDescriptive) {
  auto plan = Filter(ScanTable(orders_), Gt(Col("total"), Lit(50.0)));
  EXPECT_NE(plan->ToString().find("Filter"), std::string::npos);
  EXPECT_NE(ScanTable(orders_)->ToString().find("orders"), std::string::npos);
}

}  // namespace
}  // namespace dipbench
