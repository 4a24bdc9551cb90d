// Property-based tests: invariants of the relational algebra, the value
// ordering, the storage engine (model-based against std::map), and the XML
// round trip — swept over sizes, seeds and data distributions with
// parameterized gtest.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/random.h"
#include "src/ra/query.h"
#include "src/storage/table.h"
#include "src/xml/parser.h"
#include "src/xml/stx.h"

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
    rs.rows.push_back({Value::Int(static_cast<int64_t>(i)),
                       Value::Int(static_cast<int64_t>(grp.Sample())),
                       Value::Double(rng.NextDoubleIn(-100, 100)),
                       Value::String(rng.NextString(4))});
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
  doubled.rows.insert(doubled.rows.end(), data.rows.begin(), data.rows.end());
  ExecContext ctx;
  auto once = Distinct(ScanValues(doubled))->Execute(&ctx);
  ASSERT_TRUE(once.ok());
  auto twice = Distinct(ScanValues(*once))->Execute(&ctx);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->rows.size(), data.rows.size());  // keys are unique
  EXPECT_EQ(twice->rows.size(), once->rows.size());
}

TEST_P(RaPropertyTest, UnionDistinctCommutesOnKeys) {
  RowSet data = MakeData(GetParam());
  if (data.rows.size() < 4) return;
  RowSet first = data, second = data;
  first.rows.resize(data.rows.size() * 2 / 3);
  second.rows.erase(second.rows.begin(),
                    second.rows.begin() + data.rows.size() / 3);
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

TEST_P(RaPropertyTest, LimitNeverExceeds) {
  RowSet data = MakeData(GetParam());
  for (size_t limit : {size_t{0}, size_t{1}, data.rows.size(),
                       data.rows.size() + 10}) {
    ExecContext ctx;
    auto out = Limit(ScanValues(data), limit)->Execute(&ctx);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->rows.size(), std::min(limit, data.rows.size()));
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
            [key](const Row& r) { return r[0].AsInt() == key; });
        EXPECT_EQ(removed, model.erase(key));
        break;
      }
      case 3: {  // point lookup, copying and borrowed
        const uint64_t read_before = table.rows_read();
        auto found = table.FindByKey({Value::Int(key)});
        const Value cell = Value::Int(key);
        auto ref = table.FindByKeyRef({&cell, 1});
        ASSERT_TRUE(ref.ok());
        EXPECT_EQ(table.rows_read() - read_before, 2u)
            << "each lookup charges one row read, hit or miss";
        if (model.count(key)) {
          ASSERT_TRUE(found.ok());
          EXPECT_EQ((*found)[1].AsString(), model[key]);
          ASSERT_NE(*ref, nullptr);
          EXPECT_EQ((**ref)[1].AsString(), model[key]);
        } else {
          EXPECT_TRUE(found.status().IsNotFound());
          EXPECT_EQ(*ref, nullptr);
        }
        break;
      }
      default: {  // update
        auto updated = table.UpdateWhere(
            [key](const Row& r) { return r[0].AsInt() == key; },
            [](Row* r) { (*r)[1] = Value::String("UPD"); });
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
  for (const auto& r : rows) {
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
    return [k](const Row& r) {
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
      auto found = table.FindByKey({Value::Int(key.first),
                                    Value::String(key.second)});
      const Value cells[] = {Value::Int(key.first), Value::String(key.second)};
      auto ref = table.FindByKeyRef(cells);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(table.rows_read() - read_before, 2u);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(found.status().IsNotFound());
        EXPECT_EQ(*ref, nullptr);
      } else {
        ASSERT_TRUE(found.ok());
        EXPECT_EQ((*found)[2].AsString(), it->second);
        ASSERT_NE(*ref, nullptr);
        EXPECT_EQ((**ref)[2].AsString(), it->second);
      }
    } else if (op < 85) {  // non-key update
      auto updated = table.UpdateWhere(
          is_key(key), [](Row* r) { (*r)[2] = Value::String("UPD"); });
      ASSERT_TRUE(updated.ok());
      EXPECT_EQ(*updated, model.count(key));
      if (model.count(key)) model[key] = "UPD";
    } else if (op < 93) {  // key-changing update: rejected, row untouched
      Key target = random_key();
      auto updated = table.UpdateWhere(is_key(key), [&](Row* r) {
        (*r)[0] = Value::Int(target.first);
        (*r)[1] = Value::String(target.second);
        (*r)[2] = Value::String("MOVED");
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
    auto found = table.FindByKey({Value::Int(key.first),
                                  Value::String(key.second)});
    ASSERT_TRUE(found.ok()) << key.first << "/" << key.second;
    EXPECT_EQ((*found)[2].AsString(), v);
  }
  auto rows = table.ScanAll();
  ASSERT_EQ(rows.size(), model.size());
  for (const auto& r : rows) {
    auto it = model.find({r[0].AsInt(), r[1].AsString()});
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
