// Incremental view maintenance tests (src/ivm, SPECIFICATION.md §16).
// The contract under test: folding the unconsumed change-log suffix
// produces a landscape byte-identical to the full recompute — same
// double-summation order, same rows — and delta consumption is
// at-most-once even under injected faults and retries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/conformance/digest.h"
#include "src/dipbench/scenario.h"
#include "src/harness/harness.h"
#include "src/ivm/ivm.h"
#include "src/storage/changelog.h"

namespace dipbench {
namespace {

Row OrderRow(int64_t orderkey, int64_t citykey, int64_t date, int64_t qty,
             double price, const std::string& source) {
  return {Value::Int(orderkey), Value::Int(1),
          Value::Int(2),        Value::Int(citykey),
          Value::Date(date),    Value::Int(qty),
          Value::Double(price), Value::String("HIGH"),
          Value::String(source)};
}

/// A built scenario with incremental maintenance installed, or aborts.
std::unique_ptr<Scenario> IncrementalScenario() {
  auto scenario = Scenario::Create();
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  auto owned = std::move(scenario).ValueOrDie();
  Status installed = ivm::InstallIncrementalMaintenance(owned.get());
  EXPECT_TRUE(installed.ok()) << installed.ToString();
  return owned;
}

/// Canonical, key-sorted encoding of a table's rows — bit-exact equality,
/// insertion-order independent (the MV's primary key makes order moot).
std::vector<std::string> CanonicalRows(Table* t) {
  std::vector<std::string> rows;
  t->ForEach([&rows](const Row& r) {
    rows.push_back(conformance::CanonicalRow(r));
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(IvmTest, InstallIsIdempotent) {
  auto scenario = IncrementalScenario();
  ASSERT_TRUE(ivm::InstallIncrementalMaintenance(scenario.get()).ok());
  Database* dwh = scenario->db("dwh_db").ValueOrDie();
  EXPECT_TRUE(dwh->HasProcedure("sp_refreshOrdersMvIncremental"));
  EXPECT_TRUE(dwh->HasProcedure("sp_advanceMartCursor"));
  Table* orders = dwh->GetTable("orders").ValueOrDie();
  EXPECT_TRUE(orders->change_capture_enabled());
}

TEST(IvmTest, EmptyDeltaIsANoOp) {
  auto scenario = IncrementalScenario();
  Database* dwh = scenario->db("dwh_db").ValueOrDie();
  Table* mv = dwh->GetTable("orders_mv").ValueOrDie();
  // No orders were ever loaded: the refresh must succeed, leave the MV
  // empty, and advance nothing.
  ASSERT_TRUE(dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());
  EXPECT_TRUE(mv->empty());
  Table* orders = dwh->GetTable("orders").ValueOrDie();
  EXPECT_TRUE(orders->changelog()->AppliedRanges(ivm::kMvCursor).empty());

  // A refresh with no NEW orders after a consumed batch is equally a
  // no-op: the MV content version must not move (no rewrite churn).
  ASSERT_TRUE(orders->Insert(OrderRow(1, 7, 20080115, 2, 10.0, "eu")).ok());
  ASSERT_TRUE(dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());
  uint64_t mv_version = mv->version();
  ASSERT_TRUE(dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());
  EXPECT_EQ(mv->version(), mv_version);
  EXPECT_EQ(mv->size(), 1u);
}

TEST(IvmTest, FoldMatchesFullRecomputeBitExactly) {
  auto inc = IncrementalScenario();
  auto full = Scenario::Create().ValueOrDie();
  Database* inc_dwh = inc->db("dwh_db").ValueOrDie();
  Database* full_dwh = full->db("dwh_db").ValueOrDie();

  // Orders whose revenue terms are classic float-associativity traps
  // (0.1-ish prices), some NULL quantity (coalesce to 1), some NULL
  // citykey (filtered), spread over groups.
  std::vector<Row> orders;
  for (int i = 0; i < 200; ++i) {
    Row r = OrderRow(i + 1, 1 + i % 3, 20080101 + (i % 2) * 100 + i % 28,
                     1 + i % 5, 0.1 * (i + 1), "eu");
    if (i % 7 == 0) r[5] = Value::Null();  // quantity NULL
    if (i % 11 == 0) r[3] = Value::Null();  // citykey NULL -> filtered
    orders.push_back(std::move(r));
  }
  for (const Row& r : orders) {
    ASSERT_TRUE(inc_dwh->GetTable("orders").ValueOrDie()->Insert(r).ok());
    ASSERT_TRUE(full_dwh->GetTable("orders").ValueOrDie()->Insert(r).ok());
  }
  ASSERT_TRUE(
      inc_dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());
  ASSERT_TRUE(full_dwh->CallProcedure("sp_refreshOrdersMv", {}).ok());

  Table* inc_mv = inc_dwh->GetTable("orders_mv").ValueOrDie();
  Table* full_mv = full_dwh->GetTable("orders_mv").ValueOrDie();
  ASSERT_FALSE(inc_mv->empty());
  // Canonical rows render doubles as hex floats: this is bit identity,
  // not within-epsilon agreement.
  EXPECT_EQ(CanonicalRows(inc_mv), CanonicalRows(full_mv));

  // The fold consumed the whole log exactly once.
  storage::ChangeLog* log =
      inc_dwh->GetTable("orders").ValueOrDie()->changelog();
  EXPECT_EQ(log->CursorPos(ivm::kMvCursor), log->size());
}

TEST(IvmTest, LateArrivalsFoldIntoExistingWindows) {
  auto inc = IncrementalScenario();
  auto full = Scenario::Create().ValueOrDie();
  Table* inc_orders =
      inc->db("dwh_db").ValueOrDie()->GetTable("orders").ValueOrDie();
  Table* full_orders =
      full->db("dwh_db").ValueOrDie()->GetTable("orders").ValueOrDie();

  // Batch 1: January + February orders, folded.
  std::vector<Row> batch1, batch2;
  for (int i = 0; i < 60; ++i) {
    batch1.push_back(OrderRow(i + 1, 1 + i % 2, 20080105 + (i % 2) * 100,
                              1 + i % 4, 0.3 * (i + 1), "eu"));
  }
  // Batch 2 arrives later but carries JANUARY order dates — late rows for
  // an already-refreshed window, landing in existing MV groups.
  for (int i = 0; i < 40; ++i) {
    batch2.push_back(
        OrderRow(1000 + i, 1 + i % 2, 20080110 + i % 10, 2, 0.7 * (i + 1),
                 "as"));
  }
  Database* inc_dwh = inc->db("dwh_db").ValueOrDie();
  for (const Row& r : batch1) ASSERT_TRUE(inc_orders->Insert(r).ok());
  ASSERT_TRUE(
      inc_dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());
  for (const Row& r : batch2) ASSERT_TRUE(inc_orders->Insert(r).ok());
  ASSERT_TRUE(
      inc_dwh->CallProcedure("sp_refreshOrdersMvIncremental", {}).ok());

  // Full recompute over the union, in the same insertion order.
  for (const Row& r : batch1) ASSERT_TRUE(full_orders->Insert(r).ok());
  for (const Row& r : batch2) ASSERT_TRUE(full_orders->Insert(r).ok());
  Database* full_dwh = full->db("dwh_db").ValueOrDie();
  ASSERT_TRUE(full_dwh->CallProcedure("sp_refreshOrdersMv", {}).ok());

  EXPECT_EQ(
      CanonicalRows(inc_dwh->GetTable("orders_mv").ValueOrDie()),
      CanonicalRows(full_dwh->GetTable("orders_mv").ValueOrDie()));
}

TEST(IvmTest, MartFoldOrderDoesNotMatter) {
  // P14 forks the mart refreshes, and nothing in the fold may depend on
  // which mart partition goes first. Folding the three marts in reversed
  // order must converge to the identical landscape.
  const char* marts[] = {Scenario::kDmEurope, Scenario::kDmAsia,
                         Scenario::kDmUnitedStates};
  auto a = IncrementalScenario();
  auto b = IncrementalScenario();
  auto seed_mart = [](Scenario* s, const char* mart, int salt) {
    Database* mdb = s->db(std::string(mart) + "_db").ValueOrDie();
    Table* orders = mdb->GetTable("orders").ValueOrDie();
    for (int i = 0; i < 30; ++i) {
      Row r = OrderRow(salt * 1000 + i, 1 + i % 3, 20080201 + i % 20,
                       1 + i % 3, 0.13 * (salt + i), "eu");
      ASSERT_TRUE(orders->Insert(std::move(r)).ok());
    }
  };
  for (int m = 0; m < 3; ++m) {
    seed_mart(a.get(), marts[m], m + 1);
    seed_mart(b.get(), marts[m], m + 1);
  }
  // a folds E, A, U; b folds U, A, E.
  for (int m : {0, 1, 2}) {
    ASSERT_TRUE(a->db(std::string(marts[m]) + "_db")
                    .ValueOrDie()
                    ->CallProcedure("sp_refresh_mv_incremental", {})
                    .ok());
  }
  for (int m : {2, 1, 0}) {
    ASSERT_TRUE(b->db(std::string(marts[m]) + "_db")
                    .ValueOrDie()
                    ->CallProcedure("sp_refresh_mv_incremental", {})
                    .ok());
  }
  for (const char* mart : marts) {
    Table* mv_a = a->db(std::string(mart) + "_db")
                      .ValueOrDie()
                      ->GetTable("orders_mv")
                      .ValueOrDie();
    Table* mv_b = b->db(std::string(mart) + "_db")
                      .ValueOrDie()
                      ->GetTable("orders_mv")
                      .ValueOrDie();
    ASSERT_FALSE(mv_a->empty()) << mart;
    EXPECT_EQ(CanonicalRows(mv_a), CanonicalRows(mv_b)) << mart;
  }
}

// --- at-most-once under faults (satellite regression) -------------------
//
// A faulted incremental run retries process bodies; a retry must never
// fold the same delta twice. The applied-range ledger is the evidence:
// after the run, every consumed range of every cursor is disjoint and
// the final landscape equals the fault-free run's bit for bit.
TEST(IvmTest, FaultedRetriesNeverDoubleApplyDeltas) {
  harness::RunSpec clean;
  clean.config.datasize = 0.01;
  clean.config.periods = 2;
  clean.config.realization = Realization::kIncremental;
  clean.digest_state = true;

  harness::RunSpec faulty = clean;
  faulty.config.fault_rate = 0.05;
  faulty.config.retry_max_attempts = 8;
  faulty.config.retry_backoff_tu = 1.0;
  faulty.config.retry_backoff_factor = 2.0;

  struct LedgerAudit {
    size_t cursors_seen = 0;
    size_t overlaps = 0;
    size_t gaps = 0;
  };
  auto audit = std::make_shared<LedgerAudit>();
  faulty.post_run_mutator = [audit](Scenario* scenario) {
    auto check = [audit](Table* t, const char* cursor) {
      const storage::ChangeLog* log = t->changelog();
      if (log == nullptr) return;
      auto ranges = log->AppliedRanges(cursor);
      if (ranges.empty()) return;
      ++audit->cursors_seen;
      std::sort(ranges.begin(), ranges.end(),
                [](const storage::AppliedRange& x,
                   const storage::AppliedRange& y) {
                  return x.from < y.from;
                });
      size_t expect_from = 0;
      for (const storage::AppliedRange& r : ranges) {
        if (r.from < expect_from) ++audit->overlaps;
        if (r.from > expect_from) ++audit->gaps;
        expect_from = r.to;
      }
      if (expect_from != log->CursorPos(cursor)) ++audit->gaps;
    };
    Database* dwh = scenario->db("dwh_db").ValueOrDie();
    check(dwh->GetTable("orders").ValueOrDie(), ivm::kMvCursor);
    check(dwh->GetTable("orders").ValueOrDie(), ivm::kMartCursor);
    for (const char* mart : {Scenario::kDmEurope, Scenario::kDmAsia,
                             Scenario::kDmUnitedStates}) {
      Database* mdb = scenario->db(std::string(mart) + "_db").ValueOrDie();
      check(mdb->GetTable("orders").ValueOrDie(), ivm::kMvCursor);
    }
  };

  auto outcomes = harness::RunnerPool(2).Run({clean, faulty});
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
  // The faults engaged (otherwise this proves nothing)...
  EXPECT_GT(outcomes[1].result.retries, 0u);
  // ...the ledger shows single, contiguous, non-overlapping consumption...
  EXPECT_GT(audit->cursors_seen, 0u);
  EXPECT_EQ(audit->overlaps, 0u);
  EXPECT_EQ(audit->gaps, 0u);
  // ...and the recovered landscape is the fault-free landscape.
  ASSERT_NE(outcomes[0].digest, nullptr);
  ASSERT_NE(outcomes[1].digest, nullptr);
  EXPECT_EQ(outcomes[0].digest->state_hash, outcomes[1].digest->state_hash);
  EXPECT_EQ(outcomes[0].digest->verification,
            outcomes[1].digest->verification);
}

}  // namespace
}  // namespace dipbench
