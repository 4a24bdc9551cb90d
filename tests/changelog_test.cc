// Change-data-capture tests (src/storage/changelog.h, SPECIFICATION.md
// §16): entry ordering and version stamps, named-cursor compare-and-
// advance with the at-most-once ledger, and lifecycle anchoring (Clear,
// transaction rollback).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/storage/database.h"
#include "src/storage/table.h"

namespace dipbench {
namespace {

Schema KvSchema() {
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("v", DataType::kString)
      .SetPrimaryKey({"k"});
  return s;
}

Row Kv(int64_t k, const std::string& v) {
  return {Value::Int(k), Value::String(v)};
}

using storage::AppliedRange;
using storage::ChangeEntry;
using storage::ChangeLog;

TEST(ChangeLogTest, CaptureRecordsMutationsInCommitOrder) {
  Table t("kv", KvSchema());
  t.EnableChangeCapture();
  ASSERT_TRUE(t.change_capture_enabled());
  ChangeLog* log = t.changelog();
  ASSERT_NE(log, nullptr);

  ASSERT_TRUE(t.Insert(Kv(1, "a")).ok());
  ASSERT_TRUE(t.Insert(Kv(2, "b")).ok());
  ASSERT_TRUE(t.InsertOrReplace(Kv(2, "b2")).ok());
  auto updated = t.UpdateWhere(
      [](const Row& r) { return r[0].AsInt() == 1; },
      [](Row* r) { (*r)[1] = Value::String("a2"); });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  EXPECT_EQ(t.DeleteWhere([](const Row& r) { return r[0].AsInt() == 2; }), 1u);

  const auto& entries = log->entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].op, ChangeEntry::Op::kInsert);
  EXPECT_EQ(entries[1].op, ChangeEntry::Op::kInsert);
  EXPECT_EQ(entries[2].op, ChangeEntry::Op::kUpdate);
  EXPECT_EQ(entries[3].op, ChangeEntry::Op::kUpdate);
  EXPECT_EQ(entries[4].op, ChangeEntry::Op::kDelete);
  // Post-images for insert/update; pre-image for the delete.
  EXPECT_EQ(entries[2].row[1].AsString(), "b2");
  EXPECT_EQ(entries[3].row[1].AsString(), "a2");
  EXPECT_EQ(entries[4].row[1].AsString(), "b2");
  // Version stamps are the post-mutation content versions: strictly
  // increasing, and the last stamp is the table's current version.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].version, entries[i - 1].version) << i;
  }
  EXPECT_EQ(entries.back().version, t.version());
}

TEST(ChangeLogTest, CaptureOffByDefaultAndIdempotentEnable) {
  Table t("kv", KvSchema());
  EXPECT_FALSE(t.change_capture_enabled());
  EXPECT_EQ(t.changelog(), nullptr);
  ASSERT_TRUE(t.Insert(Kv(1, "a")).ok());
  t.EnableChangeCapture();
  ChangeLog* log = t.changelog();
  t.EnableChangeCapture();  // second enable keeps the same log
  EXPECT_EQ(t.changelog(), log);
  // History starts at the enable point, not at table birth.
  EXPECT_EQ(log->size(), 0u);
  ASSERT_TRUE(t.Insert(Kv(2, "b")).ok());
  EXPECT_EQ(log->size(), 1u);
}

TEST(ChangeLogTest, CursorCompareAndAdvanceWithLedger) {
  ChangeLog log;
  for (int i = 0; i < 4; ++i) {
    log.Append(ChangeEntry::Op::kInsert, Kv(i, "x"), 10 + i);
  }
  EXPECT_EQ(log.CursorPos("mv"), 0u);
  EXPECT_TRUE(log.AppliedRanges("mv").empty());

  ASSERT_TRUE(log.AdvanceCursor("mv", 0, 2, /*tag=*/7, /*attempt=*/1).ok());
  EXPECT_EQ(log.CursorPos("mv"), 2u);
  ASSERT_EQ(log.AppliedRanges("mv").size(), 1u);
  const AppliedRange& r = log.AppliedRanges("mv")[0];
  EXPECT_EQ(r.from, 0u);
  EXPECT_EQ(r.to, 2u);
  EXPECT_EQ(r.instance_tag, 7u);
  EXPECT_EQ(r.attempt, 1);

  // An empty range is a no-op and records nothing.
  ASSERT_TRUE(log.AdvanceCursor("mv", 2, 2, 7, 2).ok());
  EXPECT_EQ(log.AppliedRanges("mv").size(), 1u);

  // Cursors are independent.
  EXPECT_EQ(log.CursorPos("mart"), 0u);
  ASSERT_TRUE(log.AdvanceCursor("mart", 0, 4, 8, 1).ok());
  EXPECT_EQ(log.CursorPos("mv"), 2u);
}

TEST(ChangeLogTest, StaleDeltaViewIsRejectedAsDoubleApply) {
  ChangeLog log;
  for (int i = 0; i < 4; ++i) {
    log.Append(ChangeEntry::Op::kInsert, Kv(i, "x"), 10 + i);
  }
  ASSERT_TRUE(log.AdvanceCursor("mv", 0, 2, 7, 1).ok());
  // A retried consumer re-reading from the position it remembers — not
  // the cursor's actual position — is the double-apply shape; it must be
  // an error, never a silent re-fold.
  Status stale = log.AdvanceCursor("mv", 0, 4, 7, 2);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.message().find("double apply"), std::string::npos)
      << stale.message();
  // Bounds are validated before anything moves.
  EXPECT_FALSE(log.AdvanceCursor("mv", 2, 9, 7, 1).ok());
  EXPECT_EQ(log.CursorPos("mv"), 2u);
}

TEST(ChangeLogTest, LedgerRangesNeverOverlapAcrossRollbacks) {
  // The at-most-once invariant under the full lifecycle: any sequence of
  // advances and rollback truncations leaves the ledger overlap-free with
  // the cursor at the maximum consumed index.
  ChangeLog log;
  auto grow = [&log](int n) {
    for (int i = 0; i < n; ++i) {
      log.Append(ChangeEntry::Op::kInsert, Kv(i, "x"), log.size() + 1);
    }
  };
  grow(4);
  ASSERT_TRUE(log.AdvanceCursor("mv", 0, 2, 1, 1).ok());
  ASSERT_TRUE(log.AdvanceCursor("mv", 2, 4, 2, 1).ok());
  log.TruncateTo(3);  // rollback: entry 3 vanishes, range [2,4) clamps
  EXPECT_EQ(log.CursorPos("mv"), 3u);
  grow(2);
  ASSERT_TRUE(log.AdvanceCursor("mv", 3, 5, 3, 1).ok());
  log.TruncateTo(0);  // rollback to empty: all consumption forgotten
  EXPECT_EQ(log.CursorPos("mv"), 0u);
  EXPECT_TRUE(log.AppliedRanges("mv").empty());
  grow(3);
  ASSERT_TRUE(log.AdvanceCursor("mv", 0, 3, 4, 1).ok());

  const auto& ranges = log.AppliedRanges("mv");
  size_t max_to = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LT(ranges[i].from, ranges[i].to);
    for (size_t j = i + 1; j < ranges.size(); ++j) {
      EXPECT_FALSE(ranges[i].from < ranges[j].to &&
                   ranges[j].from < ranges[i].to)
          << "ranges " << i << " and " << j << " overlap";
    }
    max_to = std::max(max_to, ranges[i].to);
  }
  EXPECT_EQ(log.CursorPos("mv"), max_to);
}

TEST(ChangeLogTest, TableClearTruncatesHistoryAndCursors) {
  Table t("kv", KvSchema());
  t.EnableChangeCapture();
  ASSERT_TRUE(t.Insert(Kv(1, "a")).ok());
  ASSERT_TRUE(t.Insert(Kv(2, "b")).ok());
  ChangeLog* log = t.changelog();
  ASSERT_TRUE(log->AdvanceCursor("mv", 0, 2, 1, 1).ok());
  t.Clear();
  // A cleared table has no history: consumers restart from zero.
  EXPECT_EQ(log->size(), 0u);
  EXPECT_EQ(log->CursorPos("mv"), 0u);
  EXPECT_TRUE(log->AppliedRanges("mv").empty());
  ASSERT_TRUE(t.Insert(Kv(3, "c")).ok());
  EXPECT_EQ(log->size(), 1u);
  EXPECT_TRUE(log->AdvanceCursor("mv", 0, 1, 1, 1).ok());
}

TEST(ChangeLogTest, TransactionRollbackHidesUncommittedEntries) {
  Database db("txn_db");
  auto created = db.CreateTable("kv", KvSchema());
  ASSERT_TRUE(created.ok());
  Table* t = *created;
  t->EnableChangeCapture();
  ASSERT_TRUE(t->Insert(Kv(1, "a")).ok());
  ChangeLog* log = t->changelog();
  ASSERT_TRUE(log->AdvanceCursor("mv", 0, 1, 1, 1).ok());

  ASSERT_TRUE(db.BeginTransaction().ok());
  ASSERT_TRUE(t->Insert(Kv(2, "b")).ok());
  ASSERT_TRUE(t->Insert(Kv(3, "c")).ok());
  EXPECT_EQ(log->size(), 3u);
  ASSERT_TRUE(db.Rollback().ok());

  // Entries from rolled-back work are never visible to a consumer, and
  // the pre-transaction consumption survives.
  EXPECT_EQ(log->size(), 1u);
  EXPECT_EQ(log->CursorPos("mv"), 1u);
  ASSERT_EQ(log->AppliedRanges("mv").size(), 1u);

  // A committed transaction keeps its entries.
  ASSERT_TRUE(db.BeginTransaction().ok());
  ASSERT_TRUE(t->Insert(Kv(4, "d")).ok());
  ASSERT_TRUE(db.Commit().ok());
  EXPECT_EQ(log->size(), 2u);
  EXPECT_EQ(log->entries()[1].row[0].AsInt(), 4);
}

}  // namespace
}  // namespace dipbench
