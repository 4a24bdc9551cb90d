#include <gtest/gtest.h>

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

TEST(TableTest, InsertAndLookup) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "alice", 10.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "bob", 20.0)).ok());
  EXPECT_EQ(t.size(), 2u);
  auto row = t.FindByKey({Value::Int(2)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "bob");
  EXPECT_TRUE(t.FindByKey({Value::Int(9)}).status().IsNotFound());
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
  EXPECT_EQ((*t.FindByKey({Value::Int(1)}))[1].AsString(), "alice2");
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
  size_t removed = t.DeleteWhere(
      [](const Row& r) { return r[0].AsInt() % 2 == 0; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_FALSE(t.ContainsKey({Value::Int(4)}));
  EXPECT_TRUE(t.ContainsKey({Value::Int(5)}));
}

TEST(TableTest, KeyReusableAfterDelete) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  t.DeleteWhere([](const Row&) { return true; });
  EXPECT_TRUE(t.Insert(Cust(1, "b", 2.0)).ok());
  EXPECT_EQ((*t.FindByKey({Value::Int(1)}))[1].AsString(), "b");
}

TEST(TableTest, UpdateWhereMutates) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  ASSERT_TRUE(t.Insert(Cust(2, "b", 2.0)).ok());
  auto updated = t.UpdateWhere(
      [](const Row& r) { return r[0].AsInt() == 2; },
      [](Row* r) { (*r)[2] = Value::Double(42.0); });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  EXPECT_DOUBLE_EQ((*t.FindByKey({Value::Int(2)}))[2].AsDouble(), 42.0);
}

TEST(TableTest, UpdateCannotChangePrimaryKey) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  auto updated = t.UpdateWhere([](const Row&) { return true; },
                               [](Row* r) { (*r)[0] = Value::Int(2); });
  EXPECT_EQ(updated.status().code(), StatusCode::kConstraintViolation);
  // The rejected row is back, untouched, under its old key only.
  auto row = t.FindByKey({Value::Int(1)});
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ((*row)[1].AsString(), "a");
  EXPECT_TRUE(t.FindByKey({Value::Int(2)}).status().IsNotFound());
  EXPECT_EQ(t.size(), 1u);

  // A change onto an existing key leaves both rows as they were.
  ASSERT_TRUE(t.Insert(Cust(2, "b", 2.0)).ok());
  updated = t.UpdateWhere([](const Row& r) { return r[0].AsInt() == 1; },
                          [](Row* r) {
                            (*r)[0] = Value::Int(2);
                            (*r)[1] = Value::String("clobbered");
                          });
  EXPECT_EQ(updated.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ((*t.FindByKey({Value::Int(1)}))[1].AsString(), "a");
  EXPECT_EQ((*t.FindByKey({Value::Int(2)}))[1].AsString(), "b");
  auto rows = t.ScanAll();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "a");
  EXPECT_EQ(rows[1][0].AsInt(), 2);

  // A schema violation is undone the same way.
  updated = t.UpdateWhere([](const Row& r) { return r[0].AsInt() == 2; },
                          [](Row* r) { (*r)[1] = Value::Int(7); });
  EXPECT_EQ(updated.status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ((*t.FindByKey({Value::Int(2)}))[1].AsString(), "b");
}

TEST(TableTest, BorrowedLookupChargesLikeFindByKey) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "a", 1.0)).ok());
  const Value hit = Value::Int(1);
  const Value miss = Value::Int(9);
  uint64_t before = t.rows_read();
  auto found = t.FindByKeyRef({&hit, 1});
  ASSERT_TRUE(found.ok());
  ASSERT_NE(*found, nullptr);
  EXPECT_EQ((**found)[1].AsString(), "a");
  auto missed = t.FindByKeyRef({&miss, 1});
  ASSERT_TRUE(missed.ok());
  EXPECT_EQ(*missed, nullptr);
  EXPECT_EQ(t.rows_read() - before, 2u);
  // Errors charge nothing, on either lookup.
  before = t.rows_read();
  EXPECT_EQ(t.FindByKeyRef({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.FindByKey({}).status().code(), StatusCode::kInvalidArgument);
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
  auto rows = t.LookupIndex("by_name", {Value::String("smith")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  // Index stays consistent across deletes.
  t.DeleteWhere([](const Row& r) { return r[0].AsInt() == 1; });
  EXPECT_EQ(t.LookupIndex("by_name", {Value::String("smith")})->size(), 1u);
}

TEST(TableTest, IndexCreatedAfterRowsIndexesExisting) {
  Table t("customer", CustomerSchema());
  ASSERT_TRUE(t.Insert(Cust(1, "x", 1.0)).ok());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}).ok());
  EXPECT_EQ(t.LookupIndex("by_name", {Value::String("x")})->size(), 1u);
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

TEST(TableTest, ByteSizeGrows) {
  Table t("customer", CustomerSchema());
  size_t empty = t.ByteSize();
  ASSERT_TRUE(t.Insert(Cust(1, "somebody", 1.0)).ok());
  EXPECT_GT(t.ByteSize(), empty);
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

TEST(DatabaseTest, DropTable) {
  Database db("berlin");
  ASSERT_TRUE(db.CreateTable("t", CustomerSchema()).ok());
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.HasTable("t"));
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, InsertTriggerFires) {
  Database db("cdb");
  ASSERT_TRUE(db.CreateTable("queue", CustomerSchema()).ok());
  int fired = 0;
  ASSERT_TRUE(db.SetInsertTrigger("queue",
                                  [&fired](Database*, const std::string&,
                                           const Row& row) {
                                    fired += static_cast<int>(row[0].AsInt());
                                    return Status::OK();
                                  })
                  .ok());
  ASSERT_TRUE(db.InsertWithTriggers("queue", Cust(7, "m", 0.0)).ok());
  EXPECT_EQ(fired, 7);
  ASSERT_TRUE(db.DropInsertTrigger("queue").ok());
  ASSERT_TRUE(db.InsertWithTriggers("queue", Cust(8, "m", 0.0)).ok());
  EXPECT_EQ(fired, 7);  // unchanged
}

TEST(DatabaseTest, TriggerErrorPropagatesButRowStays) {
  Database db("cdb");
  ASSERT_TRUE(db.CreateTable("queue", CustomerSchema()).ok());
  ASSERT_TRUE(db.SetInsertTrigger("queue",
                                  [](Database*, const std::string&,
                                     const Row&) {
                                    return Status::ValidationError("bad msg");
                                  })
                  .ok());
  Status st = db.InsertWithTriggers("queue", Cust(1, "m", 0.0));
  EXPECT_TRUE(st.IsValidationError());
  EXPECT_EQ((*db.GetTable("queue"))->size(), 1u);
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
  EXPECT_TRUE(db.HasProcedure("sp_add"));
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

// ByteSize is memoized per content version; every mutator must invalidate
// the memo (the old bug: per-call recomputation made byte accounting O(n)
// per charge — the fix caches, but a stale cache would corrupt the
// communication-cost ledger, which is worse).
TEST(TableTest, ByteSizeMemoTracksEveryMutation) {
  Table t("customer", CustomerSchema());

  // Ground truth: recompute from a full scan, independent of the memo.
  auto recomputed = [&t]() {
    size_t total = 0;
    t.ForEach([&total](const Row& row) {
      for (const Value& v : row) total += v.ByteSize();
    });
    return total;
  };
  auto expect_consistent = [&](const char* what) {
    size_t memoized = t.ByteSize();
    EXPECT_EQ(memoized, recomputed()) << what;
    // Second call with no interleaving mutation: served from the memo at
    // the same version, same answer.
    EXPECT_EQ(t.ByteSize(), memoized) << what;
  };

  expect_consistent("empty table");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Insert(Cust(i, "name" + std::to_string(i), i * 1.5)).ok());
  }
  uint64_t v_after_inserts = t.version();
  expect_consistent("after inserts");
  // Reading ByteSize must not bump the version (it would defeat caching).
  EXPECT_EQ(t.version(), v_after_inserts);

  ASSERT_TRUE(t.InsertOrReplace(Cust(7, "a much longer replacement name",
                                     700.0))
                  .ok());
  expect_consistent("after replace");

  ASSERT_TRUE(t.UpdateWhere([](const Row& r) { return r[0].AsInt() < 10; },
                            [](Row* r) {
                              (*r)[1] = Value::String("renamed-to-longer");
                            })
                  .ok());
  expect_consistent("after update");

  EXPECT_EQ(t.DeleteWhere(
                [](const Row& r) { return r[0].AsInt() % 3 == 0; }),
            17u);
  expect_consistent("after delete");

  t.Clear();
  expect_consistent("after clear");
  EXPECT_EQ(t.ByteSize(), 0u);
}

}  // namespace
}  // namespace dipbench
