#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/storage/database.h"
#include "src/storage/table.h"

namespace dipbench {
namespace {

Schema CustomerSchema() {
  Schema s;
  s.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString)
      .AddColumn("balance", DataType::kDouble)
      .SetPrimaryKey({"custkey"});
  return s;
}

Row Cust(int64_t key, const std::string& name, double balance) {
  return Row{Value::Int(key), Value::String(name), Value::Double(balance)};
}

/// The live row with primary key `key`, or an empty view.
RowView Find(const Table& t, int64_t key) {
  const Value cell = Value::Int(key);
  Result<RowView> found = t.FindByKeyRef({&cell, 1});
  EXPECT_TRUE(found.ok()) << found.status();
  return found.ok() ? *found : RowView();
}

/// The custkeys of the rows the `by_name` index hands out for `name`, in
/// the order it hands them out.
std::vector<int64_t> ByName(const Table& t, const Value& name) {
  std::vector<int64_t> keys;
  Status st = t.LookupIndex("by_name", {&name, 1}, [&](RowView row) {
    keys.push_back(row[0].AsInt());
  });
  EXPECT_TRUE(st.ok()) << st;
  return keys;
}

TEST(TableTest, InsertAndLookup) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "alice", 10.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "bob", 20.0)).ok());
  EXPECT_EQ(t.size(), 2u);
  RowView row = Find(t, 2);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(row[1].AsString(), "bob");
  EXPECT_TRUE(Find(t, 9).empty());
}

TEST(TableTest, DuplicateKeyRejected) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "alice", 10.0)).ok());
  Status st = t.Insert(Cust(1, "imposter", 0.0));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, InsertOrReplaceOverwrites) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "alice", 10.0)).ok());
  ASSERT_TRUE(t.InsertOrReplace(Cust(1, "alice2", 99.0)).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(Find(t, 1)[1].AsString(), "alice2");
}

TEST(TableTest, ArityAndTypeChecked) {
  Table t("customer", CustomerSchema());
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(
      t.Insert({Value::String("x"), Value::String("y"), Value::Double(1)})
          .code(),
      StatusCode::kTypeMismatch);
}

TEST(TableTest, NonNullableEnforced) {
  Table t("customer", CustomerSchema());
  Status st =
      t.Insert({Value::Null(), Value::String("x"), Value::Double(0.0)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST(TableTest, NullableAllowsNull) {
  Table t("customer", CustomerSchema());
  EXPECT_TRUE(t.Insert({Value::Int(5), Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, DeleteWhere) {
  Table t("customer", CustomerSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(Cust(i, "c", i * 1.0)).ok());
  }
  size_t removed =
      t.DeleteWhere([](RowView r) { return r[0].AsInt() % 2 == 0; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_TRUE(Find(t, 4).empty());
  EXPECT_FALSE(Find(t, 5).empty());
}

TEST(TableTest, KeyReusableAfterDelete) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  t.DeleteWhere([](RowView) { return true; });
  EXPECT_TRUE(t.Insert(Cust(1, "b", 2.0)).ok());
  EXPECT_EQ(Find(t, 1)[1].AsString(), "b");
}

TEST(TableTest, UpdateWhereMutates) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "b", 2.0)).ok());
  auto updated =
      t.UpdateWhere([](RowView r) { return r[0].AsInt() == 2; },
                    [](MutableRowView r) { r[2] = Value::Double(42.0); });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  EXPECT_DOUBLE_EQ(Find(t, 2)[2].AsDouble(), 42.0);
}

TEST(TableTest, UpdateCannotChangePrimaryKey) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  auto updated = t.UpdateWhere([](RowView) { return true; },
                               [](MutableRowView r) { r[0] = Value::Int(2); });
  EXPECT_EQ(updated.status().code(), StatusCode::kConstraintViolation);
  // The rejected row is back, untouched, under its old key only.
  RowView row = Find(t, 1);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(row[1].AsString(), "a");
  EXPECT_TRUE(Find(t, 2).empty());
  EXPECT_EQ(t.size(), 1u);

  // A change onto an existing key leaves both rows as they were.
  ASSERT_TRUE(t.Insert(Cust(2, "b", 2.0)).ok());
  updated = t.UpdateWhere([](RowView r) { return r[0].AsInt() == 1; },
                          [](MutableRowView r) {
                            r[0] = Value::Int(2);
                            r[1] = Value::String("clobbered");
                          });
  EXPECT_EQ(updated.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(Find(t, 1)[1].AsString(), "a");
  EXPECT_EQ(Find(t, 2)[1].AsString(), "b");
  auto rows = t.ScanAll();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "a");
  EXPECT_EQ(rows[1][0].AsInt(), 2);

  // A schema violation is undone the same way.
  updated = t.UpdateWhere([](RowView r) { return r[0].AsInt() == 2; },
                          [](MutableRowView r) { r[1] = Value::Int(7); });
  EXPECT_EQ(updated.status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(Find(t, 2)[1].AsString(), "b");
}

TEST(TableTest, BorrowedLookupChargesOneReadPerCall) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  const Value hit = Value::Int(1);
  const Value miss = Value::Int(9);
  uint64_t before = t.rows_read();
  auto found = t.FindByKeyRef({&hit, 1});
  ASSERT_TRUE(found.ok());
  ASSERT_FALSE(found->empty());
  EXPECT_EQ((*found)[1].AsString(), "a");
  auto missed = t.FindByKeyRef({&miss, 1});
  ASSERT_TRUE(missed.ok());
  EXPECT_TRUE(missed->empty());
  EXPECT_EQ(t.rows_read() - before, 2u);
  // Errors charge nothing.
  before = t.rows_read();
  EXPECT_EQ(t.FindByKeyRef({}).status().code(), StatusCode::kInvalidArgument);
  const Value wide[] = {Value::Int(1), Value::Int(2)};
  EXPECT_EQ(t.FindByKeyRef(wide).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.rows_read(), before);
}

TEST(TableTest, ScanAllPreservesInsertionOrder) {
  Table t("customer", CustomerSchema());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.Insert(Cust(i, "c", 0.0)).ok());
  auto rows = t.ScanAll();
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(rows[i][0].AsInt(), i);
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "smith", 1.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "smith", 2.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(3, "jones", 3.0)).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}).ok());
  const Value smith = Value::String("smith");
  // One rows_read per live match, and every match is a smith.
  uint64_t read = t.rows_read();
  std::vector<int64_t> keys = ByName(t, smith);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(t.rows_read() - read, 2u);
  // Index stays consistent across deletes.
  t.DeleteWhere([](RowView r) { return r[0].AsInt() == 1; });
  read = t.rows_read();
  EXPECT_EQ(ByName(t, smith), (std::vector<int64_t>{2}));
  EXPECT_EQ(t.rows_read() - read, 1u);
  // A miss reads nothing; an unknown index or a wrong-arity key is an
  // error that hands out no row.
  const Value nobody = Value::String("nobody");
  read = t.rows_read();
  EXPECT_TRUE(ByName(t, nobody).empty());
  EXPECT_EQ(t.rows_read(), read);
  int handed = 0;
  auto count = [&handed](RowView) { ++handed; };
  EXPECT_TRUE(t.LookupIndex("nope", {&smith, 1}, count).IsNotFound());
  const Value two[] = {smith, smith};
  EXPECT_EQ(t.LookupIndex("by_name", two, count).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(handed, 0);
}

TEST(TableTest, IndexCreatedAfterRowsIndexesExisting) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "x", 1.0)).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}).ok());
  EXPECT_EQ(ByName(t, Value::String("x")), (std::vector<int64_t>{1}));
  EXPECT_FALSE(t.CreateIndex("by_name", {"name"}).ok());  // duplicate
  EXPECT_FALSE(t.CreateIndex("bad", {"zzz"}).ok());       // unknown column
}

TEST(TableTest, ClearKeepsSchemaAndCounters) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "x", 1.0)).ok());
  uint64_t written = t.rows_written();
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rows_written(), written);
  EXPECT_TRUE(t.Insert(Cust(1, "x", 1.0)).ok());
}

TEST(DatabaseTest, CreateAndGetTable) {
  Database db("berlin");
  ASSERT_TRUE(db.CreateTable("customer", CustomerSchema()).ok());
  EXPECT_TRUE(db.HasTable("customer"));
  EXPECT_FALSE(db.CreateTable("customer", CustomerSchema()).ok());
  ASSERT_TRUE(db.GetTable("customer").ok());
  EXPECT_TRUE(db.GetTable("nope").status().IsNotFound());
  auto names = db.ListTables();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "customer");
}

TEST(DatabaseTest, StoredProcedures) {
  Database db("cdb");
  ASSERT_TRUE(db.CreateTable("t", CustomerSchema()).ok());
  ASSERT_TRUE(
      db.RegisterProcedure("sp_add",
                           [](Database* d, const std::vector<Value>& args) {
                             Table* t = *d->GetTable("t");
                             return t->Insert({args[0], Value::String("via_sp"),
                                               Value::Double(0.0)});
                           })
          .ok());
  ASSERT_TRUE(db.CallProcedure("sp_add", {Value::Int(3)}).ok());
  EXPECT_EQ((*db.GetTable("t"))->size(), 1u);
  EXPECT_TRUE(db.CallProcedure("nope", {}).IsNotFound());
  EXPECT_FALSE(db.RegisterProcedure("sp_add", nullptr).ok());
}

TEST(DatabaseTest, SequencesMonotone) {
  Database db("x");
  EXPECT_EQ(db.NextSequenceValue("s"), 1);
  EXPECT_EQ(db.NextSequenceValue("s"), 2);
  EXPECT_EQ(db.NextSequenceValue("other"), 1);
}

TEST(DatabaseTest, ClearAllTablesEmptiesEverything) {
  Database db("x");
  ASSERT_TRUE(db.CreateTable("a", CustomerSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", CustomerSchema()).ok());
  ASSERT_TRUE((*db.GetTable("a"))->Insert(Cust(1, "x", 0.0)).ok());
  ASSERT_TRUE((*db.GetTable("b"))->Insert(Cust(1, "x", 0.0)).ok());
  EXPECT_EQ(db.TotalRows(), 2u);
  db.ClearAllTables();
  EXPECT_EQ(db.TotalRows(), 0u);
  EXPECT_TRUE(db.HasTable("a"));
}

TEST(DatabaseTest, IoCountersAggregate) {
  Database db("x");
  ASSERT_TRUE(db.CreateTable("a", CustomerSchema()).ok());
  ASSERT_TRUE((*db.GetTable("a"))->Insert(Cust(1, "x", 0.0)).ok());
  (*db.GetTable("a"))->ScanAll();
  EXPECT_GE(db.TotalRowsWritten(), 1u);
  EXPECT_GE(db.TotalRowsRead(), 1u);
}

// --- Flat key index -------------------------------------------------------

TEST(KeyIndexTest, GrowthRuleTombstonesAndClear) {
  KeyIndex index;
  EXPECT_EQ(index.capacity(), 0u) << "nothing allocated before an insert";
  auto same = [](size_t) { return true; };
  // Hash = pos * 2: positions are distinct, hashes collide on no home.
  for (size_t pos = 0; pos < 6; ++pos) index.Insert(pos * 2, pos);
  EXPECT_EQ(index.capacity(), 8u);
  // The seventh would pass 3/4 of 8: rebuilt at the smallest power of two
  // holding twice the 7 live entries.
  index.Insert(12, 6);
  EXPECT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.size(), 7u);
  for (size_t pos = 0; pos < 7; ++pos) {
    EXPECT_EQ(index.Find(pos * 2, same), pos);
  }
  EXPECT_EQ(index.Find(99, same), KeyIndex::kNotFound);

  // Entries sharing one hash are told apart by the caller's match.
  index.Insert(4, 100);
  EXPECT_EQ(index.Find(4, [](size_t pos) { return pos == 100; }), 100u);
  EXPECT_EQ(index.Find(4, [](size_t pos) { return pos == 2; }), 2u);
  index.Erase(4, 2);
  EXPECT_EQ(index.Find(4, [](size_t pos) { return pos == 2; }),
            KeyIndex::kNotFound);
  EXPECT_EQ(index.Find(4, same), 100u);
  EXPECT_EQ(index.size(), 7u);

  // Clear empties the index and keeps its capacity.
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.Find(0, same), KeyIndex::kNotFound);

  // Churn: many deletes and inserts at a steady live count reuse deleted
  // entries instead of growing.
  for (size_t pos = 0; pos < 4; ++pos) index.Insert(pos * 7919, pos);
  for (size_t pos = 4; pos < 2000; ++pos) {
    index.Erase((pos - 4) * 7919, pos - 4);
    index.Insert(pos * 7919, pos);
    ASSERT_EQ(index.size(), 4u);
  }
  EXPECT_EQ(index.capacity(), 16u);
  for (size_t pos = 1996; pos < 2000; ++pos) {
    EXPECT_EQ(index.Find(pos * 7919, same), pos);
  }
}

// --- The row slab under the table ------------------------------------------

TEST(TableTest, RejectedUpdateRestoresCellsAndSecondaryEntry) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "b", 2.0)).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}).ok());
  const Value a = Value::String("a"), b = Value::String("b"),
              renamed = Value::String("renamed");
  // Renames row 2, then breaks its balance column: the update is refused.
  auto updated = t.UpdateWhere([](RowView r) { return r[0].AsInt() == 2; },
                               [](MutableRowView r) {
                                 r[1] = Value::String("renamed");
                                 r[2] = Value::String("not a double");
                               });
  EXPECT_EQ(updated.status().code(), StatusCode::kTypeMismatch);
  RowView row = Find(t, 2);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(row[1].AsString(), "b");
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 2.0);
  EXPECT_EQ(ByName(t, b), (std::vector<int64_t>{2}));
  EXPECT_TRUE(ByName(t, renamed).empty());
  // An accepted rename moves the entry.
  ASSERT_TRUE(t.UpdateWhere([](RowView r) { return r[0].AsInt() == 1; },
                            [](MutableRowView r) {
                              r[1] = Value::String("renamed");
                            })
                  .ok());
  EXPECT_TRUE(ByName(t, a).empty());
  EXPECT_EQ(ByName(t, renamed), (std::vector<int64_t>{1}));
}

TEST(TableTest, InsertOrReplaceKeepsInsertionOrderWithTombstone) {
  Table t("customer", CustomerSchema());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(t.Insert(Cust(i, "c", 0.0)).ok());
  ASSERT_TRUE(t.InsertOrReplace(Cust(1, "again", 9.0)).ok());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.rows_written(), 4u);
  // The replaced row is a tombstone; its successor comes last.
  RowSlab rows = t.ScanAll();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows[1][0].AsInt(), 3);
  EXPECT_EQ(rows[2][0].AsInt(), 1);
  EXPECT_EQ(rows[2][1].AsString(), "again");
  EXPECT_EQ(Find(t, 1)[1].AsString(), "again");
}

TEST(TableTest, FoundViewReadsItsRowUntilTheNextMutation) {
  Table t("customer", CustomerSchema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Insert(Cust(i, "name" + std::to_string(i), i)).ok());
  }
  RowView row = Find(t, 17);
  ASSERT_EQ(row.size(), 3u);
  // Reads in between move nothing.
  size_t seen = 0;
  t.ForEach([&](RowView) { ++seen; });
  EXPECT_EQ(seen, 50u);
  EXPECT_FALSE(Find(t, 18).empty());
  EXPECT_EQ(t.ScanAll().size(), 50u);
  EXPECT_EQ(row.data(), Find(t, 17).data());
  EXPECT_EQ(row[0].AsInt(), 17);
  EXPECT_EQ(row[1].AsString(), "name17");
}

TEST(TableTest, ClearKeepsSlabCapacityAndIoCounters) {
  Table t("customer", CustomerSchema());
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(t.Insert(Cust(i, "c", 0.0)).ok());
  t.ForEach([](RowView) {});
  const uint64_t read = t.rows_read(), written = t.rows_written();
  const Value* block = Find(t, 0).data();
  t.Clear();
  EXPECT_EQ(t.rows_read(), read + 1);  // the Find above
  EXPECT_EQ(t.rows_written(), written);
  // Refilled to its old size, the table reuses its slab: no cell moved.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(t.Insert(Cust(i, "d", 0.0)).ok());
  EXPECT_EQ(Find(t, 0).data(), block);
  EXPECT_EQ(t.rows_written(), written + 64);
}

}  // namespace
}  // namespace dipbench
