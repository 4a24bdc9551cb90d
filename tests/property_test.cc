// Property-based tests: invariants of the relational algebra, random plans
// against the reference evaluator (tests/ra_oracle.h), the value ordering,
// the storage engine (model-based against std::map), and the XML round
// trip — swept over sizes, seeds and data distributions with parameterized
// gtest.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/random.h"
#include "src/ra/query.h"
#include "src/storage/table.h"
#include "src/xml/parser.h"
#include "src/xml/stx.h"
#include "tests/ra_oracle_parity.h"

namespace dipbench {
namespace {

struct SweepParam {
  size_t rows;
  uint64_t seed;
  Distribution dist;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "n" + std::to_string(info.param.rows) + "_s" +
         std::to_string(info.param.seed) + "_" +
         DistributionToString(info.param.dist);
}

RowSet MakeData(const SweepParam& p) {
  RowSet rs;
  rs.schema.AddColumn("k", DataType::kInt64, false)
      .AddColumn("grp", DataType::kInt64)
      .AddColumn("v", DataType::kDouble)
      .AddColumn("s", DataType::kString);
  Rng rng(p.seed);
  DistributionSampler grp(p.dist, 10, p.seed ^ 0x9E);
  for (size_t i = 0; i < p.rows; ++i) {
    EXPECT_TRUE(rs.rows
                    .Append({Value::Int(static_cast<int64_t>(i)),
                             Value::Int(static_cast<int64_t>(grp.Sample())),
                             Value::Double(rng.NextDoubleIn(-100, 100)),
                             Value::String(rng.NextString(4))})
                    .ok());
  }
  return rs;
}

class RaPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RaPropertyTest, FilterSplitEquivalence) {
  // sigma_{a AND b}(R) == sigma_a(sigma_b(R)).
  RowSet data = MakeData(GetParam());
  ExprPtr a = Gt(Col("v"), Lit(0.0));
  ExprPtr b = Lt(Col("grp"), Lit(int64_t{5}));
  ExecContext ctx;
  auto combined = Filter(ScanValues(data), And(a, b))->Execute(&ctx);
  auto chained = Filter(Filter(ScanValues(data), b), a)->Execute(&ctx);
  ASSERT_TRUE(combined.ok());
  ASSERT_TRUE(chained.ok());
  ASSERT_EQ(combined->rows.size(), chained->rows.size());
  for (size_t i = 0; i < combined->rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(combined->rows[i], chained->rows[i]));
  }
}

TEST_P(RaPropertyTest, FilterPartitionCountsAdd) {
  // |sigma_p(R)| + |sigma_{NOT p}(R)| == |R| for a NULL-free column.
  RowSet data = MakeData(GetParam());
  ExprPtr p = Ge(Col("v"), Lit(0.0));
  ExecContext ctx;
  auto pos = Filter(ScanValues(data), p)->Execute(&ctx);
  auto neg = Filter(ScanValues(data), Not(p))->Execute(&ctx);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(pos->rows.size() + neg->rows.size(), data.rows.size());
}

TEST_P(RaPropertyTest, DistinctIsIdempotent) {
  RowSet data = MakeData(GetParam());
  // Duplicate every row once.
  RowSet doubled = data;
  for (RowView row : data.rows) ASSERT_TRUE(doubled.rows.Append(row).ok());
  ExecContext ctx;
  auto once = UnionDistinct({ScanValues(doubled)}, {})->Execute(&ctx);
  ASSERT_TRUE(once.ok());
  auto twice = UnionDistinct({ScanValues(*once)}, {})->Execute(&ctx);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->rows.size(), data.rows.size());  // keys are unique
  EXPECT_EQ(twice->rows.size(), once->rows.size());
}

TEST_P(RaPropertyTest, UnionDistinctCommutesOnKeys) {
  RowSet data = MakeData(GetParam());
  if (data.rows.size() < 4) return;
  RowSet first{data.schema, RowSlab()}, second{data.schema, RowSlab()};
  for (size_t i = 0; i < data.rows.size(); ++i) {
    if (i < data.rows.size() * 2 / 3) {
      ASSERT_TRUE(first.rows.Append(data.rows[i]).ok());
    }
    if (i >= data.rows.size() / 3) {
      ASSERT_TRUE(second.rows.Append(data.rows[i]).ok());
    }
  }
  ExecContext ctx;
  auto ab = UnionDistinct({ScanValues(first), ScanValues(second)}, {"k"})
                ->Execute(&ctx);
  auto ba = UnionDistinct({ScanValues(second), ScanValues(first)}, {"k"})
                ->Execute(&ctx);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ab->rows.size(), ba->rows.size());
  EXPECT_EQ(ab->rows.size(), data.rows.size());  // the two slices cover R
}

TEST_P(RaPropertyTest, SortIsPermutationAndOrdered) {
  RowSet data = MakeData(GetParam());
  ExecContext ctx;
  auto sorted = Sort(ScanValues(data), {{"v", true}})->Execute(&ctx);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->rows.size(), data.rows.size());
  for (size_t i = 1; i < sorted->rows.size(); ++i) {
    EXPECT_LE(sorted->rows[i - 1][2].AsDouble(), sorted->rows[i][2].AsDouble());
  }
  // Same multiset of keys.
  std::multiset<int64_t> before, after;
  for (const auto& r : data.rows) before.insert(r[0].AsInt());
  for (const auto& r : sorted->rows) after.insert(r[0].AsInt());
  EXPECT_EQ(before, after);
}

TEST_P(RaPropertyTest, AggregateCountsMatchGroups) {
  RowSet data = MakeData(GetParam());
  ExecContext ctx;
  auto agg = Aggregate(ScanValues(data), {"grp"},
                       {{"n", AggFunc::kCount, ""},
                        {"total", AggFunc::kSum, "v"},
                        {"lo", AggFunc::kMin, "v"},
                        {"hi", AggFunc::kMax, "v"}})
                 ->Execute(&ctx);
  ASSERT_TRUE(agg.ok());
  // Reference aggregation.
  std::map<int64_t, std::pair<int64_t, double>> ref;
  for (const auto& r : data.rows) {
    auto& [count, sum] = ref[r[1].AsInt()];
    ++count;
    sum += r[2].AsDouble();
  }
  ASSERT_EQ(agg->rows.size(), ref.size());
  int64_t total_count = 0;
  for (const auto& r : agg->rows) {
    const auto& [count, sum] = ref.at(r[0].AsInt());
    EXPECT_EQ(r[1].AsInt(), count);
    EXPECT_NEAR(r[2].AsDouble(), sum, 1e-6);
    EXPECT_LE(r[3].AsDouble(), r[4].AsDouble());  // min <= max
    total_count += r[1].AsInt();
  }
  EXPECT_EQ(total_count, static_cast<int64_t>(data.rows.size()));
}

TEST_P(RaPropertyTest, JoinWithSelfOnKeyYieldsAllRows) {
  // R join R on unique key k == R (row count; left-side columns equal).
  RowSet data = MakeData(GetParam());
  ExecContext ctx;
  auto joined =
      HashJoin(ScanValues(data), ScanValues(data), {"k"}, {"k"})
          ->Execute(&ctx);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->rows.size(), data.rows.size());
}

TEST_P(RaPropertyTest, ProjectionPreservesCardinality) {
  RowSet data = MakeData(GetParam());
  ExecContext ctx;
  auto proj = Project(ScanValues(data),
                      {{"twice", Mul(Col("v"), Lit(2.0)), DataType::kNull}})
                  ->Execute(&ctx);
  ASSERT_TRUE(proj.ok());
  ASSERT_EQ(proj->rows.size(), data.rows.size());
  for (size_t i = 0; i < proj->rows.size(); ++i) {
    EXPECT_NEAR(proj->rows[i][0].AsDouble(), data.rows[i][2].AsDouble() * 2,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RaPropertyTest,
    ::testing::Values(SweepParam{0, 1, Distribution::kUniform},
                      SweepParam{1, 2, Distribution::kUniform},
                      SweepParam{64, 3, Distribution::kUniform},
                      SweepParam{64, 4, Distribution::kZipf},
                      SweepParam{64, 5, Distribution::kNormal},
                      SweepParam{500, 6, Distribution::kUniform},
                      SweepParam{500, 7, Distribution::kZipf}),
    ParamName);

// --- Random plans against the reference oracle -----------------------------

}  // namespace

namespace oracle {
namespace {

/// What the plan generator knows of a column: its name, whether every
/// non-NULL value is numeric (so SUM/AVG/MIN/MAX and arithmetic cannot
/// fail), and whether it is a near-unique key (so joining on it cannot
/// multiply the row count).
struct GenColumn {
  std::string name;
  bool numeric = true;
  bool key = false;
};

struct GenPlan {
  Plan plan;
  std::vector<GenColumn> cols;
};

/// Seeded random tables and plans over them. Every table has the columns
/// k (a key with duplicates and NULLs), g (a small group domain), v
/// (quarter-step DOUBLEs, -0.0 among them), s (strings, and INT64 in
/// values tables) and n (small INT64s and some near 2^50). Storage tables
/// are typed; values tables mix INT64 and DOUBLE cells, so Int(5) meets
/// Double(5.0). Plans are at most four operators deep, use every plan
/// factory, and never fail at run time: the oracle must evaluate each.
class PlanGenerator {
 public:
  explicit PlanGenerator(uint64_t seed) : rng_(seed) {}

  Table MakeTable(const std::string& name, bool stored) {
    static const size_t kSizes[] = {0, 1, 1023, 1024, 1025, 2 * 1024 + 77};
    const size_t rows = kSizes[rng_.NextBounded(6)];
    Table t;
    t.name = name;
    t.schema.AddColumn("k", DataType::kInt64)
        .AddColumn("g", DataType::kInt64)
        .AddColumn("v", DataType::kDouble)
        .AddColumn("s", DataType::kString)
        .AddColumn("n", DataType::kInt64);
    static const char* kStrings[] = {"", "a", "b", "a,b", "5", "x y"};
    for (size_t i = 0; i < rows; ++i) {
      int64_t k = static_cast<int64_t>(i);
      if (rng_.NextBool(0.1)) k = static_cast<int64_t>(rng_.NextBounded(i + 1));
      const int64_t g = rng_.NextInt(0, 5);
      double v = static_cast<double>(rng_.NextInt(-20, 20)) * 0.25;
      if (v == 0.0 && rng_.NextBool()) v = -0.0;
      int64_t n = rng_.NextInt(-50, 50);
      if (rng_.NextBool(0.125)) n += int64_t{1} << 50;
      // Values tables: an integral cell is INT64 or DOUBLE at random.
      auto integral = [&](int64_t x) {
        if (stored || rng_.NextBool()) return Value::Int(x);
        return Value::Double(static_cast<double>(x));
      };
      Row row = {integral(k), integral(g), Value::Double(v),
                 Value::String(kStrings[rng_.NextBounded(6)]), Value::Int(n)};
      if (!stored && rng_.NextBool(0.2)) row[3] = Value::Int(5);
      for (Value& cell : row) {
        if (rng_.NextBool(0.08)) cell = Value::Null();
      }
      t.rows.push_back(std::move(row));
    }
    return t;
  }

  /// A random plan over the given tables.
  Plan Generate(const std::vector<const Table*>& stored,
                const std::vector<const Table*>& values) {
    stored_ = &stored;
    values_ = &values;
    joins_ = 0;
    return Subplan(4).plan;
  }

 private:
  template <typename T>
  const T& Pick(const std::vector<T>& from) {
    return from[rng_.NextBounded(from.size())];
  }

  GenPlan Subplan(int depth) {
    if (depth == 0 || rng_.NextBool(0.15)) return Leaf();
    switch (rng_.NextBounded(7)) {
      case 0: {
        GenPlan child = Subplan(depth - 1);
        return {Filter(child.plan, Predicate(child.cols, 2)), child.cols};
      }
      case 1:
        return ProjectOf(Subplan(depth - 1));
      case 2:
        return JoinOf(depth);
      case 3:
        return UnionOf(depth);
      case 4: {  // whole-row DISTINCT
        GenPlan child = Subplan(depth - 1);
        return {UnionDistinct({child.plan}, {}), child.cols};
      }
      case 5:
        return AggregateOf(Subplan(depth - 1));
      default: {
        GenPlan child = Subplan(depth - 1);
        std::vector<SortKey> keys;
        for (size_t i = 0, n = 1 + rng_.NextBounded(2); i < n; ++i) {
          keys.push_back({Pick(child.cols).name, rng_.NextBool()});
        }
        return {Sort(child.plan, std::move(keys)), child.cols};
      }
    }
  }

  GenPlan Leaf() {
    const std::vector<GenColumn> cols = {
        {"k", true, true}, {"g"}, {"v"}, {"s", false}, {"n"}};
    if (rng_.NextBool()) return {ScanTable(Pick(*stored_)), cols};
    const Table* t = Pick(*values_);
    return {rng_.NextBool() ? ScanValues(t) : ScanValuesRef(t), cols};
  }

  Value Literal() {
    switch (rng_.NextBounded(5)) {
      case 0:
        return Value::Int(rng_.NextInt(-3, 8));
      case 1:
        return Value::Double(rng_.NextInt(-12, 12) * 0.25);
      case 2:
        return Value::String(rng_.NextBool() ? "a" : "5");
      case 3:
        return Value::Null();
      default:
        return Value::Int(5);
    }
  }

  /// A predicate that evaluates without error on any row.
  ExprPtr Predicate(const std::vector<GenColumn>& cols, int depth) {
    const uint64_t kind = rng_.NextBounded(depth > 0 ? 7 : 4);
    const CompareOp op = static_cast<CompareOp>(rng_.NextBounded(6));
    switch (kind) {
      case 0:
        return Cmp(op, Col(Pick(cols).name), Lit(Literal()));
      case 1:
        return Cmp(op, Col(Pick(cols).name), Col(Pick(cols).name));
      case 2:
        return IsNull(Col(Pick(cols).name));
      case 3: {
        // Membership in a two-literal list. The first equality is built
        // apart so the two literal draws happen in a fixed order.
        const std::string name = Pick(cols).name;
        ExprPtr first = Eq(Col(name), Lit(Literal()));
        return Or(std::move(first), Eq(Col(name), Lit(Literal())));
      }
      case 4:
        return And(Predicate(cols, depth - 1), Predicate(cols, depth - 1));
      case 5:
        return Or(Predicate(cols, depth - 1), Predicate(cols, depth - 1));
      default:
        return Not(Predicate(cols, depth - 1));
    }
  }

  std::string Fresh(const char* prefix) {
    return prefix + std::to_string(next_name_++);
  }

  GenPlan ProjectOf(GenPlan child) {
    std::vector<ProjectionItem> items;
    std::vector<GenColumn> cols;
    std::vector<GenColumn> numeric;
    for (const GenColumn& c : child.cols) {
      if (c.numeric) numeric.push_back(c);
    }
    for (size_t i = 0, n = 1 + rng_.NextBounded(4); i < n; ++i) {
      const GenColumn& c = Pick(child.cols);
      switch (rng_.NextBounded(numeric.empty() ? 4 : 6)) {
        case 0:
        case 1: {
          bool taken = false;
          for (const GenColumn& o : cols) taken = taken || o.name == c.name;
          if (taken) continue;
          items.push_back({c.name, Col(c.name), DataType::kNull});
          cols.push_back(c);
          break;
        }
        case 2: {
          std::string name = Fresh("e");
          items.push_back({name, Col(c.name), DataType::kString});
          cols.push_back({name, false});
          break;
        }
        case 3: {
          std::string name = Fresh("e");
          items.push_back({name, Predicate(child.cols, 1), DataType::kNull});
          cols.push_back({name});
          break;
        }
        default: {
          static const ArithmeticOp kOps[] = {
              ArithmeticOp::kAdd, ArithmeticOp::kSub, ArithmeticOp::kMul,
              ArithmeticOp::kDiv, ArithmeticOp::kMod};
          ExprPtr rhs = rng_.NextBool() ? Lit(rng_.NextInt(1, 4))
                                        : Lit(rng_.NextInt(1, 8) * 0.5);
          std::string name = Fresh("e");
          items.push_back({name,
                           Arith(kOps[rng_.NextBounded(5)],
                                 Col(Pick(numeric).name), rhs),
                           DataType::kNull});
          cols.push_back({name});
          break;
        }
      }
    }
    if (items.empty()) {
      items.push_back({child.cols[0].name, Col(child.cols[0].name)});
      cols.push_back(child.cols[0]);
    }
    return {Project(child.plan, std::move(items)), std::move(cols)};
  }

  GenPlan JoinOf(int depth) {
    GenPlan probe = Subplan(depth - 1);
    GenPlan build = Subplan(depth - 1);
    std::vector<std::string> pk, bk;
    for (const GenColumn& c : probe.cols) {
      if (c.key) pk.push_back(c.name);
    }
    for (const GenColumn& c : build.cols) {
      if (c.key) bk.push_back(c.name);
    }
    if (pk.empty() || bk.empty() || ++joins_ > 2) {
      return {Filter(probe.plan, Predicate(probe.cols, 2)), probe.cols};
    }
    std::vector<std::string> probe_keys = {Pick(pk)};
    std::vector<std::string> build_keys = {Pick(bk)};
    if (rng_.NextBool(0.3)) {  // a second, low-cardinality key pair
      probe_keys.push_back(Pick(probe.cols).name);
      build_keys.push_back(Pick(build.cols).name);
    }
    std::vector<GenColumn> cols = probe.cols;
    for (GenColumn c : build.cols) {
      bool taken = true;
      while (taken) {
        taken = false;
        for (const GenColumn& o : cols) taken = taken || o.name == c.name;
        if (taken) c.name = "r_" + c.name;
      }
      cols.push_back(c);
    }
    return {HashJoin(probe.plan, build.plan, probe_keys, build_keys), cols};
  }

  /// A union column is numeric (a key) only if it is in every input.
  GenPlan UnionOf(int depth) {
    GenPlan first = Subplan(depth - 1);
    std::vector<Plan> children = {first.plan};
    std::vector<GenColumn> cols = first.cols;
    for (size_t i = 0, n = 1 + rng_.NextBounded(2); i < n; ++i) {
      GenPlan other = Subplan(depth - 1);
      std::vector<ProjectionItem> items;
      for (size_t c = 0; c < cols.size(); ++c) {
        const GenColumn& from = other.cols[c % other.cols.size()];
        items.push_back({cols[c].name, Col(from.name), DataType::kNull});
        cols[c].numeric = cols[c].numeric && from.numeric;
        cols[c].key = cols[c].key && from.key;
      }
      if (other.cols.size() != cols.size()) {
        other.plan = Project(other.plan, std::move(items));
      }
      children.push_back(other.plan);
    }
    std::vector<std::string> keys;
    for (size_t i = 0, n = rng_.NextBounded(3); i < n; ++i) {
      keys.push_back(Pick(cols).name);
    }
    return {UnionDistinct(std::move(children), std::move(keys)), cols};
  }

  GenPlan AggregateOf(GenPlan child) {
    std::vector<std::string> group_by;
    std::vector<GenColumn> cols;
    for (size_t i = 0, n = rng_.NextBounded(3); i < n; ++i) {
      const GenColumn& c = Pick(child.cols);
      bool taken = false;
      for (const GenColumn& o : cols) taken = taken || o.name == c.name;
      if (taken) continue;
      group_by.push_back(c.name);
      cols.push_back(c);
    }
    std::vector<GenColumn> numeric;
    for (const GenColumn& c : child.cols) {
      if (c.numeric) numeric.push_back(c);
    }
    std::vector<AggregateItem> aggs;
    for (size_t i = 0, n = 1 + rng_.NextBounded(3); i < n; ++i) {
      AggregateItem a{Fresh("a"), AggFunc::kCount, ""};
      const uint64_t kind = rng_.NextBounded(numeric.empty() ? 2 : 6);
      if (kind == 1) {
        a.input_column = Pick(child.cols).name;
      } else if (kind > 1) {
        static const AggFunc kFuncs[] = {AggFunc::kSum, AggFunc::kMin,
                                         AggFunc::kMax, AggFunc::kAvg};
        a.func = kFuncs[kind - 2];
        a.input_column = Pick(numeric).name;
      }
      cols.push_back({a.output_name});
      aggs.push_back(std::move(a));
    }
    return {Aggregate(child.plan, std::move(group_by), std::move(aggs)),
            std::move(cols)};
  }

  Rng rng_;
  const std::vector<const Table*>* stored_ = nullptr;
  const std::vector<const Table*>* values_ = nullptr;
  int next_name_ = 0;
  int joins_ = 0;  ///< in the current plan
};

void CollectOps(const Node& node, std::set<Op>* ops) {
  ops->insert(node.op);
  for (const Plan& input : node.inputs) CollectOps(*input, ops);
}

class RaOracleTest : public ::testing::TestWithParam<uint64_t> {};

// Random tables x random plans: every plan runs through the oracle and
// through the pipeline; rows, schemas and work counters must agree
// (tests/ra_oracle_parity.h).
TEST_P(RaOracleTest, RandomPlansMatchTheOracle) {
  const uint64_t seed = GetParam();
  PlanGenerator gen(seed);
  Table s0 = gen.MakeTable("s0", true), s1 = gen.MakeTable("s1", true);
  Table v0 = gen.MakeTable("v0", false), v1 = gen.MakeTable("v1", false);
  Database db("oracle");
  Catalog catalog(&db);
  ASSERT_TRUE(catalog.Add(s0).ok());
  ASSERT_TRUE(catalog.Add(s1).ok());
  const std::vector<const Table*> stored = {&s0, &s1};
  const std::vector<const Table*> values = {&v0, &v1};
  std::set<Op> ops;
  constexpr int kPlans = 40;
  for (int i = 0; i < kPlans; ++i) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", plan " << i);
    Plan plan = gen.Generate(stored, values);
    CollectOps(*plan, &ops);
    Result<Output> expected = Evaluate(plan);
    ASSERT_TRUE(expected.ok()) << expected.status() << "\n"
                               << plan->ToString();
    ExpectMatchesOracle(plan, *expected, &catalog);
    if (HasFailure()) break;
  }
  EXPECT_EQ(ops.size(), 9u) << "the plans must use every plan factory";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace oracle

namespace {

// --- Value ordering properties -------------------------------------------

class ValueOrderTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<Value> RandomValues(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Value> out;
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(5)) {
      case 0:
        out.push_back(Value::Null());
        break;
      case 1:
        out.push_back(Value::Int(rng.NextInt(-50, 50)));
        break;
      case 2:
        out.push_back(Value::Double(rng.NextDoubleIn(-50, 50)));
        break;
      case 3:
        out.push_back(Value::String(rng.NextString(3)));
        break;
      default:
        out.push_back(Value::Bool(rng.NextBool()));
        break;
    }
  }
  return out;
}

TEST_P(ValueOrderTest, CompareIsAntisymmetric) {
  auto values = RandomValues(GetParam(), 40);
  for (const auto& a : values) {
    for (const auto& b : values) {
      int ab = a.Compare(b);
      int ba = b.Compare(a);
      EXPECT_EQ(ab, -ba) << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST_P(ValueOrderTest, CompareIsTransitiveOnHomogeneousValues) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) values.push_back(Value::Int(rng.NextInt(0, 9)));
  for (const auto& a : values) {
    for (const auto& b : values) {
      for (const auto& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST_P(ValueOrderTest, EqualValuesHashEqually) {
  auto values = RandomValues(GetParam(), 60);
  for (const auto& a : values) {
    for (const auto& b : values) {
      if (a.Compare(b) == 0) {
        EXPECT_EQ(a.Hash(), b.Hash())
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderTest,
                         ::testing::Values(11, 22, 33, 44));

// --- Storage model-based test ---------------------------------------------

class StorageModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageModelTest, MatchesMapReference) {
  Schema schema;
  schema.AddColumn("k", DataType::kInt64, false)
      .AddColumn("v", DataType::kString)
      .SetPrimaryKey({"k"});
  Table table("t", schema);
  std::map<int64_t, std::string> model;
  Rng rng(GetParam());

  for (int step = 0; step < 2000; ++step) {
    int64_t key = rng.NextInt(0, 60);
    switch (rng.NextBounded(5)) {
      case 0: {  // insert
        std::string v = rng.NextString(3);
        Status st = table.Insert({Value::Int(key), Value::String(v)});
        if (model.count(key)) {
          EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
        } else {
          EXPECT_TRUE(st.ok());
          model[key] = v;
        }
        break;
      }
      case 1: {  // upsert
        std::string v = rng.NextString(3);
        EXPECT_TRUE(
            table.InsertOrReplace({Value::Int(key), Value::String(v)}).ok());
        model[key] = v;
        break;
      }
      case 2: {  // delete
        size_t removed = table.DeleteWhere(
            [key](RowView r) { return r[0].AsInt() == key; });
        EXPECT_EQ(removed, model.erase(key));
        break;
      }
      case 3: {  // point lookup
        const uint64_t read_before = table.rows_read();
        const Value cell = Value::Int(key);
        auto ref = table.FindByKeyRef({&cell, 1});
        ASSERT_TRUE(ref.ok());
        EXPECT_EQ(table.rows_read() - read_before, 1u)
            << "a lookup charges one row read, hit or miss";
        if (model.count(key)) {
          ASSERT_FALSE(ref->empty());
          EXPECT_EQ((*ref)[1].AsString(), model[key]);
        } else {
          EXPECT_TRUE(ref->empty());
        }
        break;
      }
      default: {  // update
        auto updated = table.UpdateWhere(
            [key](RowView r) { return r[0].AsInt() == key; },
            [](MutableRowView r) { r[1] = Value::String("UPD"); });
        ASSERT_TRUE(updated.ok());
        EXPECT_EQ(*updated, model.count(key));
        if (model.count(key)) model[key] = "UPD";
        break;
      }
    }
    ASSERT_EQ(table.size(), model.size());
  }
  // Final full-content comparison.
  auto rows = table.ScanAll();
  ASSERT_EQ(rows.size(), model.size());
  for (RowView r : rows) {
    auto it = model.find(r[0].AsInt());
    ASSERT_NE(it, model.end());
    EXPECT_EQ(r[1].AsString(), it->second);
  }
}

// The shape of the CDB and DWH `orders` keys: a composite (INT64, STRING)
// primary key. Over a wider key space than above, so the flat index grows
// through several capacities, with bursts that insert and then delete a run
// of keys (many deleted entries to reuse), Clear() steps, and key-changing
// updates the table must reject without a trace.
TEST_P(StorageModelTest, CompositeKeyMatchesMapReference) {
  Schema schema;
  schema.AddColumn("k", DataType::kInt64, false)
      .AddColumn("src", DataType::kString, false)
      .AddColumn("v", DataType::kString)
      .SetPrimaryKey({"k", "src"});
  Table table("orders", schema);
  using Key = std::pair<int64_t, std::string>;
  std::map<Key, std::string> model;
  Rng rng(GetParam());
  // Sources whose comma-joined renderings would collide with each other.
  const std::vector<std::string> sources = {"", "a", "a,b", "b", "b,"};
  auto random_key = [&]() -> Key {
    return {rng.NextInt(0, 400),
            sources[rng.NextBounded(static_cast<uint64_t>(sources.size()))]};
  };
  auto row_of = [](const Key& k, const std::string& v) {
    return Row{Value::Int(k.first), Value::String(k.second),
               Value::String(v)};
  };
  auto is_key = [](const Key& k) {
    return [k](RowView r) {
      return r[0].AsInt() == k.first && r[1].AsString() == k.second;
    };
  };

  for (int step = 0; step < 3000; ++step) {
    Key key = random_key();
    const uint64_t op = rng.NextBounded(100);
    if (op < 30) {  // insert
      std::string v = rng.NextString(3);
      Status st = table.Insert(row_of(key, v));
      if (model.count(key)) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        EXPECT_TRUE(st.ok()) << st;
        model[key] = v;
      }
    } else if (op < 45) {  // upsert
      std::string v = rng.NextString(3);
      EXPECT_TRUE(table.InsertOrReplace(row_of(key, v)).ok());
      model[key] = v;
    } else if (op < 60) {  // delete
      EXPECT_EQ(table.DeleteWhere(is_key(key)), model.erase(key));
    } else if (op < 75) {  // point lookups charge one read each, hit or miss
      const uint64_t read_before = table.rows_read();
      const Value cells[] = {Value::Int(key.first), Value::String(key.second)};
      auto ref = table.FindByKeyRef(cells);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(table.rows_read() - read_before, 1u);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(ref->empty());
      } else {
        ASSERT_FALSE(ref->empty());
        EXPECT_EQ((*ref)[2].AsString(), it->second);
      }
    } else if (op < 85) {  // non-key update
      auto updated = table.UpdateWhere(
          is_key(key), [](MutableRowView r) { r[2] = Value::String("UPD"); });
      ASSERT_TRUE(updated.ok());
      EXPECT_EQ(*updated, model.count(key));
      if (model.count(key)) model[key] = "UPD";
    } else if (op < 93) {  // key-changing update: rejected, row untouched
      Key target = random_key();
      auto updated = table.UpdateWhere(is_key(key), [&](MutableRowView r) {
        r[0] = Value::Int(target.first);
        r[1] = Value::String(target.second);
        r[2] = Value::String("MOVED");
      });
      if (model.count(key) && target != key) {
        EXPECT_EQ(updated.status().code(), StatusCode::kConstraintViolation);
      } else {
        ASSERT_TRUE(updated.ok());
        if (model.count(key)) model[key] = "MOVED";
      }
    } else if (op < 99) {  // burst: a run of fresh keys in, then out again
      const int64_t base = 1000 + rng.NextInt(0, 1000) * 100;
      const size_t n = 20 + rng.NextBounded(80);
      for (size_t i = 0; i < n; ++i) {
        Key k{base + static_cast<int64_t>(i), sources[i % sources.size()]};
        if (model.count(k)) continue;
        ASSERT_TRUE(table.Insert(row_of(k, "burst")).ok());
        model[k] = "burst";
      }
      ASSERT_EQ(table.size(), model.size());
      for (size_t i = 0; i < n; i += 2) {
        Key k{base + static_cast<int64_t>(i), sources[i % sources.size()]};
        EXPECT_EQ(table.DeleteWhere(is_key(k)), model.erase(k));
      }
    } else {  // clear
      table.Clear();
      model.clear();
    }
    ASSERT_EQ(table.size(), model.size());
  }
  // Every model key is found through the index, and the scan agrees.
  for (const auto& [key, v] : model) {
    const Value cells[] = {Value::Int(key.first), Value::String(key.second)};
    auto found = table.FindByKeyRef(cells);
    ASSERT_TRUE(found.ok() && !found->empty())
        << key.first << "/" << key.second;
    EXPECT_EQ((*found)[2].AsString(), v);
  }
  auto rows = table.ScanAll();
  ASSERT_EQ(rows.size(), model.size());
  for (RowView r : rows) {
    auto it = model.find({r[0].AsInt(), std::string(r[1].AsString())});
    ASSERT_NE(it, model.end());
    EXPECT_EQ(r[2].AsString(), it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- XML round-trip property ----------------------------------------------

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

xml::Node RandomTree(Rng* rng, int depth) {
  xml::Node node("n" + std::to_string(rng->NextBounded(8)));
  if (rng->NextBool(0.5)) {
    node.SetAttr("a" + std::to_string(rng->NextBounded(4)),
                 rng->NextString(3) + "<&>\"'");
  }
  if (depth > 0 && rng->NextBool(0.7)) {
    size_t children = rng->NextBounded(4);
    for (size_t i = 0; i < children; ++i) {
      node.AddChild(RandomTree(rng, depth - 1));
    }
  }
  if (node.children().empty() && rng->NextBool(0.6)) {
    node.set_text(rng->NextString(5) + "&<>" + rng->NextString(2));
  }
  return node;
}

TEST_P(XmlRoundTripTest, WriteParseIdentity) {
  Rng rng(GetParam());
  const xml::StxTransformer identity;  // no rules: copies every element
  for (int i = 0; i < 40; ++i) {
    xml::Node tree = RandomTree(&rng, 4);
    for (int indent : {-1, 0, 2}) {
      std::string text = xml::WriteXml(tree, indent);
      auto parsed = xml::ParseXml(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
      EXPECT_TRUE(tree.Equals(*parsed)) << text;
    }
    size_t visited = 0;
    auto transformed = identity.Transform(tree, &visited);
    ASSERT_TRUE(transformed.ok()) << transformed.status();
    EXPECT_TRUE(tree.Equals(*transformed)) << xml::WriteXml(tree);
    EXPECT_EQ(visited, tree.SubtreeSize());
    EXPECT_TRUE(tree.Equals(tree.Clone())) << xml::WriteXml(tree);
  }
}

TEST_P(XmlRoundTripTest, CloneEqualsOriginal) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  for (int i = 0; i < 20; ++i) {
    xml::Node tree = RandomTree(&rng, 3);
    xml::Node copy = tree.Clone();
    EXPECT_TRUE(tree.Equals(copy));
    EXPECT_EQ(tree.SubtreeSize(), copy.SubtreeSize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace dipbench
