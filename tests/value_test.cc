#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/types/row_slab.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace dipbench {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, FactoryTypes) {
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::Int(5).type(), DataType::kInt64);
  EXPECT_EQ(Value::Double(1.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::String("x").type(), DataType::kString);
  EXPECT_EQ(Value::Date(20080412).type(), DataType::kDate);
}

TEST(ValueTest, Accessors) {
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.25).AsDouble(), 2.25);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Date(20080412).AsDate(), 20080412);
}

TEST(ValueTest, DateYmd) {
  Value d = Value::DateYmd(2008, 4, 12);
  EXPECT_EQ(d.AsDate(), 20080412);
  EXPECT_EQ(*d.DateYear(), 2008);
  EXPECT_EQ(*d.DateMonth(), 4);
}

TEST(ValueTest, DatePartsOnNonDateError) {
  EXPECT_FALSE(Value::Int(20080412).DateYear().ok());
}

TEST(ValueTest, NumericConversions) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).ToNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).ToNumeric(), 1.0);
  EXPECT_FALSE(Value::String("4").ToNumeric().ok());
  EXPECT_EQ(*Value::Double(8.0).ToInt(), 8);
  EXPECT_FALSE(Value::Double(8.5).ToInt().ok());
}

TEST(ValueTest, CastRoundTrips) {
  EXPECT_EQ(Value::Int(42).CastTo(DataType::kString)->AsString(), "42");
  EXPECT_EQ(Value::String("42").CastTo(DataType::kInt64)->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::String("2.5").CastTo(DataType::kDouble)->AsDouble(),
                   2.5);
  EXPECT_EQ(Value::Int(20080412).CastTo(DataType::kDate)->AsDate(), 20080412);
  EXPECT_TRUE(Value::Null().CastTo(DataType::kInt64)->is_null());
  EXPECT_FALSE(Value::String("abc").CastTo(DataType::kInt64).ok());
}

TEST(ValueTest, ParseVariants) {
  EXPECT_TRUE(Value::Parse("true", DataType::kBool)->AsBool());
  EXPECT_EQ(Value::Parse(" 17 ", DataType::kInt64)->AsInt(), 17);
  EXPECT_TRUE(Value::Parse("", DataType::kInt64)->is_null());
  EXPECT_FALSE(Value::Parse("zz", DataType::kDouble).ok());
  EXPECT_EQ(Value::Parse("raw", DataType::kString)->AsString(), "raw");
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);  // numeric family
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  // NULL sorts before everything.
  EXPECT_LT(Value::Null().Compare(Value::Int(-1000)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("k").Hash(), Value::String("k").Hash());
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value::Int(1).ByteSize(), 8u);
  EXPECT_EQ(Value::Double(0.5).ByteSize(), 8u);
  EXPECT_EQ(Value::Date(20080412).ByteSize(), 8u);
  EXPECT_EQ(Value::Bool(true).ByteSize(), 1u);
  EXPECT_EQ(Value::String("abcd").ByteSize(), 8u);  // 4 chars + 4 overhead
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
  // Inline (14 bytes) and shared (15 bytes) strings are priced alike.
  EXPECT_EQ(Value::String(std::string(14, 'x')).ByteSize(), 18u);
  EXPECT_EQ(Value::String(std::string(15, 'x')).ByteSize(), 19u);
}

TEST(ValueTest, ParseRejectsIntegerOverflow) {
  for (DataType t : {DataType::kInt64, DataType::kDate}) {
    EXPECT_TRUE(
        Value::Parse("99999999999999999999", t).status().IsParseError());
    EXPECT_TRUE(
        Value::Parse("-99999999999999999999", t).status().IsParseError());
  }
  EXPECT_EQ(Value::Parse("9223372036854775807", DataType::kInt64)->AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Value::Parse("-9223372036854775808", DataType::kInt64)->AsInt(),
            std::numeric_limits<int64_t>::min());
}

TEST(ValueTest, ParseRejectsNonFiniteDoubles) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                           "1e999", "-1e999"}) {
    EXPECT_TRUE(Value::Parse(text, DataType::kDouble).status().IsParseError())
        << text;
  }
  // Underflow is kept: strtod sets ERANGE, but the result is finite.
  auto denormal = Value::Parse("1e-310", DataType::kDouble);
  ASSERT_TRUE(denormal.ok()) << denormal.status();
  EXPECT_GT(denormal->AsDouble(), 0.0);
  auto zero = Value::Parse("1e-400", DataType::kDouble);
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->AsDouble(), 0.0);
}

TEST(ValueTest, DoubleOutsideInt64DoesNotConvert) {
  const double kTwo63 = 9223372036854775808.0;
  for (double d : {1e300, -1e300, kTwo63, std::nan("")}) {
    EXPECT_EQ(Value::Double(d).ToInt().status().code(),
              StatusCode::kTypeMismatch) << d;
    EXPECT_EQ(Value::Double(d).CastTo(DataType::kInt64).status().code(),
              StatusCode::kTypeMismatch) << d;
    EXPECT_EQ(Value::Double(d).CastTo(DataType::kDate).status().code(),
              StatusCode::kTypeMismatch) << d;
  }
  EXPECT_EQ(*Value::Double(-kTwo63).ToInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Value::Double(-2.7).CastTo(DataType::kInt64)->AsInt(), -2);
}

TEST(ValueCellTest, InlineAndHeapStringsRoundTrip) {
  // 14 bytes is the last inline length, 15 the first heap one.
  for (size_t n : {0, 1, 13, 14, 15, 16, 100}) {
    std::string s;
    for (size_t i = 0; i < n; ++i) s += static_cast<char>('a' + i % 26);
    Value v = Value::String(s);
    EXPECT_EQ(v.type(), DataType::kString);
    EXPECT_EQ(v.AsString(), s) << n;
    EXPECT_EQ(v.ToString(), s) << n;
    EXPECT_EQ(v.ByteSize(), n + 4) << n;
  }
  for (size_t n : {3, 20}) {
    std::string with_nul(n, 'z');
    with_nul[1] = '\0';
    Value v = Value::String(with_nul);
    EXPECT_EQ(v.AsString().size(), n);
    EXPECT_EQ(v.AsString(), with_nul);
    EXPECT_EQ(v.ByteSize(), n + 4);
  }
  std::string_view view = "from a view";
  const char* chars = "from a char pointer";
  EXPECT_EQ(Value::String(view).AsString(), view);
  EXPECT_EQ(Value::String(chars).AsString(), chars);
}

TEST(ValueCellTest, CopyMoveAndAssign) {
  const std::string long_a(40, 'a'), long_b(30, 'b');
  Value heap = Value::String(long_a);
  Value copy = heap;
  EXPECT_EQ(copy.AsString().data(), heap.AsString().data());  // shared
  Value moved = std::move(copy);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.AsString(), long_a);

  Value small = Value::String("short");
  Value small_moved = std::move(small);
  EXPECT_TRUE(small.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(small_moved.AsString(), "short");

  Value& alias = heap;
  heap = alias;  // self-assignment
  EXPECT_EQ(heap.AsString(), long_a);
  heap = moved;  // both already share the buffer
  EXPECT_EQ(heap.AsString(), long_a);

  Value other = Value::String(long_b);
  heap = other;  // copy-assignment over a heap string
  EXPECT_EQ(heap.AsString(), long_b);
  other = Value::Int(3);
  EXPECT_EQ(heap.AsString(), long_b);
  EXPECT_EQ(moved.AsString(), long_a);
  heap = std::move(moved);
  EXPECT_EQ(heap.AsString(), long_a);
  heap = Value::String("inline");
  EXPECT_EQ(heap.AsString(), "inline");
}

TEST(ValueCellTest, HashAndCompareMatchStdString) {
  const std::vector<std::string> strings = {
      "",
      "a",
      "ab",
      "abcdefghijklm",
      "abcdefghijklmn",    // 14: inline
      "abcdefghijklmno",   // 15: heap
      "abcdefghijklmnop",  // 16: heap
      "abcdefghijklmnoq",
      "b",
      std::string("a\0b", 3),
      std::string("abcdefghijklmn\0", 15),
      "\xff",
      "\xff"
      "abcdefghijklmnopq",
  };
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const std::string& a : strings) {
    Value va = Value::String(a);
    EXPECT_EQ(va.Hash(), std::hash<std::string>()(a)) << a;
    for (const std::string& b : strings) {
      EXPECT_EQ(sign(va.Compare(Value::String(b))), sign(a.compare(b)))
          << a << " vs " << b;
    }
  }
}

TEST(ValueCellTest, WrongTypeAccessorThrows) {
  EXPECT_THROW(Value::String("x").AsInt(), std::bad_variant_access);
  EXPECT_THROW(Value::Int(1).AsString(), std::bad_variant_access);
  EXPECT_THROW(Value::Int(1).AsDouble(), std::bad_variant_access);
  EXPECT_THROW(Value::Double(1).AsDate(), std::bad_variant_access);
  EXPECT_THROW(Value::Null().AsBool(), std::bad_variant_access);
  // INT64 and DATE share a payload, as std::get<int64_t> did.
  EXPECT_EQ(Value::Date(20080412).AsInt(), 20080412);
  EXPECT_EQ(Value::Int(7).AsDate(), 7);
}

TEST(ValueCellTest, ThreadsShareOneHeapString) {
  const std::string text(64, 's');
  const Value shared = Value::String(text);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &text, &mismatches, t] {
      for (int i = 0; i < 20000; ++i) {
        Value copy = shared;
        std::vector<Value> copies(3, copy);
        Value moved = std::move(copies.back());
        copies.pop_back();
        if (moved.AsString() != text) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_EQ(shared.AsString(), text);
}

TEST(SchemaTest, BuilderAndLookup) {
  Schema s;
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("name", DataType::kString)
      .SetPrimaryKey({"id"});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(*s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
  ASSERT_EQ(s.primary_key().size(), 1u);
  EXPECT_EQ(s.primary_key()[0], 0u);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsDuplicates) {
  Schema s;
  s.AddColumn("x", DataType::kInt64).AddColumn("x", DataType::kInt64);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, RequireIndexOfErrorNamesColumn) {
  Schema s;
  s.AddColumn("a", DataType::kInt64);
  auto r = s.RequireIndexOf("b");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("b"), std::string::npos);
}

TEST(RowTest, HashAndEquality) {
  Row a{Value::Int(1), Value::String("x")};
  Row b{Value::Int(1), Value::String("x")};
  Row c{Value::Int(2), Value::String("x")};
  EXPECT_TRUE(RowsEqual(a, b));
  EXPECT_FALSE(RowsEqual(a, c));
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(RowTest, KeyHashSelectsColumns) {
  Row a{Value::Int(1), Value::String("x")};
  Row b{Value::Int(1), Value::String("y")};
  EXPECT_EQ(HashRowKey(a, {0}), HashRowKey(b, {0}));
  EXPECT_NE(HashRowKey(a, {1}), HashRowKey(b, {1}));
}

TEST(RowTest, ToStringJoins) {
  Row a{Value::Int(1), Value::String("x"), Value::Null()};
  EXPECT_EQ(RowToString(a), "1,x,");
}

// --- RowSlab ----------------------------------------------------------------

TEST(RowSlabTest, RowOfTheWrongWidthIsRejected) {
  RowSlab slab;
  ASSERT_TRUE(slab.Append({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(slab.width(), 2u) << "an empty width-0 slab takes the row's";
  EXPECT_EQ(slab.Append({Value::Int(3)}).code(), StatusCode::kTypeMismatch);
  Row wide{Value::Int(1), Value::Int(2), Value::Int(3)};
  EXPECT_EQ(slab.AppendMoved(wide).code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(wide[0].AsInt(), 1) << "a rejected row is not moved from";
  RowSlab narrow(1);
  ASSERT_TRUE(narrow.Append({Value::Int(9)}).ok());
  EXPECT_EQ(slab.Append(std::move(narrow)).code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(slab.size(), 1u);
  EXPECT_EQ(slab.cells().size(), 2u);

  // A width given up front holds while the slab is empty, and after clear.
  RowSlab fixed(3);
  EXPECT_EQ(fixed.Append({Value::Int(1)}).code(), StatusCode::kTypeMismatch);
  fixed.clear();
  EXPECT_EQ(fixed.width(), 3u);
  EXPECT_EQ(fixed.Append({Value::Int(1), Value::Int(2)}).code(),
            StatusCode::kTypeMismatch);
  EXPECT_TRUE(fixed.empty());
  fixed.Reset(1);
  EXPECT_TRUE(fixed.Append({Value::Int(1)}).ok());
}

TEST(RowSlabTest, ViewsIndexCellsInPlace) {
  RowSlab slab(3);
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        slab.Append({Value::Int(i), Value::Int(i * 10), Value::Null()}).ok());
  }
  ASSERT_EQ(slab.size(), 4u);
  const RowSlab& read = slab;
  for (size_t i = 0; i < slab.size(); ++i) {
    RowView row = read[i];
    EXPECT_EQ(row.size(), 3u);
    EXPECT_EQ(row.data(), slab.cells().data() + 3 * i);
    EXPECT_EQ(row[1].AsInt(), static_cast<int64_t>(i * 10));
  }
  // A mutable view writes the slab's own cells.
  slab[2][2] = Value::String("set");
  EXPECT_EQ(slab.cells()[8].AsString(), "set");
  // Iteration yields the same views in order.
  size_t i = 0;
  for (RowView row : read) EXPECT_EQ(row.data(), read[i++].data());
  EXPECT_EQ(i, 4u);
  // AppendRow hands out a NULL row at the slab's width.
  MutableRowView fresh = slab.AppendRow();
  EXPECT_EQ(fresh.size(), 3u);
  for (const Value& v : fresh) EXPECT_TRUE(v.is_null());
  EXPECT_EQ(slab.size(), 5u);
}

TEST(RowSlabTest, ClearKeepsCapacityAndWidth) {
  RowSlab slab(2);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(slab.Append({Value::Int(i), Value::Int(i)}).ok());
  }
  const Value* block = slab[0].data();
  slab.clear();
  EXPECT_TRUE(slab.empty());
  EXPECT_EQ(slab.width(), 2u);
  // Refilling to the old size reuses the block: no cell moved.
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(slab.Append({Value::Int(-i), Value::Int(i)}).ok());
  }
  EXPECT_EQ(slab[0].data(), block);
  EXPECT_EQ(slab[99][0].AsInt(), -99);
}

TEST(RowSlabTest, FromRowsEqualsAppendingRowByRow) {
  const std::vector<Row> rows = {
      {Value::Int(1), Value::String("a"), Value::Double(0.5)},
      {Value::Null(), Value::String("a string longer than fourteen"),
       Value::Int(2)},
      {Value::Bool(true), Value::Date(20080412), Value::Null()}};
  Result<RowSlab> built = RowSlab::FromRows(rows);
  ASSERT_TRUE(built.ok()) << built.status();
  RowSlab appended;
  for (const Row& row : rows) ASSERT_TRUE(appended.Append(row).ok());
  ASSERT_EQ(built->width(), appended.width());
  ASSERT_EQ(built->size(), appended.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      const Value& a = (*built)[r][c];
      const Value& b = appended[r][c];
      EXPECT_EQ(a.type(), b.type()) << r << "," << c;
      EXPECT_EQ(a.ToString(), b.ToString()) << r << "," << c;
    }
  }
  EXPECT_EQ(RowSlab::FromRows({}).ValueOrDie().width(), 0u);
  EXPECT_EQ(RowSlab::FromRows({{Value::Int(1)}, {}}).status().code(),
            StatusCode::kTypeMismatch);
}

// Long strings live in one shared heap buffer. A slab copies, moves and
// destroys the cells holding them like any vector of Values would: every
// copy shares the buffer, and under ASan a missing release leaks and an
// extra one frees twice.
TEST(RowSlabTest, HeapStringCellsSurviveGrowthCopyClearAndDestruction) {
  const std::string text = "a string well past the fourteen inline bytes";
  const Value original = Value::String(text);
  const char* buffer = original.AsString().data();
  {
    RowSlab slab(2);
    for (int64_t i = 0; i < 2000; ++i) {  // grows, moving every cell
      ASSERT_TRUE(slab.Append({Value::Int(i), original}).ok());
    }
    RowSlab copy = slab;
    RowSlab moved;
    ASSERT_TRUE(moved.Append(std::move(copy)).ok());  // adopted whole
    EXPECT_TRUE(copy.empty());
    ASSERT_TRUE(slab.AppendMoved(moved[0]).ok());
    EXPECT_TRUE(moved[0][1].is_null()) << "a moved-from cell is NULL";
    for (const RowSlab* s : {&slab, &moved}) {
      for (size_t r = 1; r < s->size(); ++r) {
        ASSERT_EQ((*s)[r][1].AsString().data(), buffer) << "shared, not copied";
      }
    }
    const Value kept = slab[5][1];  // outlives the slabs below
    slab.clear();
    moved.Reset(1);
    EXPECT_EQ(kept.AsString(), text);
  }
  EXPECT_EQ(original.AsString(), text);
  EXPECT_EQ(original.AsString().data(), buffer);
}

}  // namespace
}  // namespace dipbench
