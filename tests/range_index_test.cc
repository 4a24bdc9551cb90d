// Tests for ordered indexes + range scans and for per-operator tracing.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/ra/query.h"

namespace dipbench {
namespace {

Schema OrdersSchema() {
  Schema s;
  s.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("price", DataType::kDouble)
      .SetPrimaryKey({"orderkey"});
  return s;
}

class RangeIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("orders", OrdersSchema());
    ASSERT_TRUE(table_->CreateOrderedIndex("by_price", "price").ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          table_->Insert({Value::Int(i), Value::Double(i * 10.0)}).ok());
    }
  }
  std::unique_ptr<Table> table_;
};

TEST_F(RangeIndexTest, RangeBoundsInclusive) {
  auto rows = table_->LookupRange("by_price", Value::Double(50.0),
                                  Value::Double(80.0));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);  // 50, 60, 70, 80
  // Ascending index order.
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LT((*rows)[i - 1][1].AsDouble(), (*rows)[i][1].AsDouble());
  }
}

TEST_F(RangeIndexTest, OpenBounds) {
  EXPECT_EQ(table_->LookupRange("by_price", Value::Null(),
                                Value::Double(30.0))
                ->size(),
            3u);
  EXPECT_EQ(table_->LookupRange("by_price", Value::Double(190.0),
                                Value::Null())
                ->size(),
            2u);
  EXPECT_EQ(
      table_->LookupRange("by_price", Value::Null(), Value::Null())->size(),
      20u);
}

TEST_F(RangeIndexTest, EmptyRangeAndUnknownIndex) {
  EXPECT_TRUE(table_
                  ->LookupRange("by_price", Value::Double(1000.0),
                                Value::Double(2000.0))
                  ->empty());
  EXPECT_TRUE(table_->LookupRange("nope", Value::Null(), Value::Null())
                  .status()
                  .IsNotFound());
}

TEST_F(RangeIndexTest, InvertedRangeIsEmpty) {
  // lo > hi, both between the indexed values and around one of them.
  const uint64_t read_before = table_->rows_read();
  for (auto [lo, hi] : {std::pair{80.0, 50.0}, std::pair{55.0, 45.0}}) {
    auto rows = table_->LookupRange("by_price", Value::Double(lo),
                                    Value::Double(hi));
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty()) << lo << " > " << hi;
  }
  EXPECT_EQ(table_->rows_read(), read_before);
}

TEST_F(RangeIndexTest, MaintainedAcrossMutations) {
  table_->DeleteWhere([](const Row& r) { return r[1].AsDouble() == 60.0; });
  ASSERT_TRUE(table_->InsertOrReplace({Value::Int(5), Value::Double(55.0)})
                  .ok());
  auto rows = table_->LookupRange("by_price", Value::Double(50.0),
                                  Value::Double(70.0));
  ASSERT_TRUE(rows.ok());
  // key 5's price replaced 50 -> 55; 60 deleted; 70 remains.
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[0][1].AsDouble(), 55.0);
  EXPECT_DOUBLE_EQ((*rows)[1][1].AsDouble(), 70.0);
}

TEST_F(RangeIndexTest, MaintainedAcrossUpdateWhere) {
  ASSERT_TRUE(table_
                  ->UpdateWhere(
                      [](const Row& r) { return r[0].AsInt() == 1; },
                      [](Row* r) { (*r)[1] = Value::Double(999.0); })
                  .ok());
  EXPECT_EQ(table_->LookupRange("by_price", Value::Double(999.0),
                                Value::Double(999.0))
                ->size(),
            1u);
  EXPECT_TRUE(table_->LookupRange("by_price", Value::Double(10.0),
                                  Value::Double(10.0))
                  ->empty());
}

TEST_F(RangeIndexTest, RebuiltAfterRestoreState) {
  Table::State state = table_->SaveState();
  table_->Clear();
  EXPECT_TRUE(table_->LookupRange("by_price", Value::Null(), Value::Null())
                  ->empty());
  table_->RestoreState(std::move(state));
  EXPECT_EQ(
      table_->LookupRange("by_price", Value::Null(), Value::Null())->size(),
      20u);
}

TEST_F(RangeIndexTest, DuplicateNameRejected) {
  EXPECT_FALSE(table_->CreateOrderedIndex("by_price", "price").ok());
  ASSERT_TRUE(table_->CreateIndex("hash_price", {"price"}).ok());
  EXPECT_FALSE(table_->CreateOrderedIndex("hash_price", "price").ok());
  EXPECT_FALSE(table_->CreateOrderedIndex("x", "nope").ok());
}

TEST_F(RangeIndexTest, IndexRangeScanPlanMatchesFilter) {
  ExecContext ctx;
  auto via_index = IndexRangeScan(table_.get(), "by_price",
                                  Value::Double(35.0), Value::Double(95.0))
                       ->Execute(&ctx);
  auto via_filter = Query::From(table_.get())
                        .Where(And(Ge(Col("price"), Lit(35.0)),
                                   Le(Col("price"), Lit(95.0))))
                        .OrderBy({{"price", true}})
                        .Run(&ctx);
  ASSERT_TRUE(via_index.ok());
  ASSERT_TRUE(via_filter.ok());
  ASSERT_EQ(via_index->rows.size(), via_filter->rows.size());
  for (size_t i = 0; i < via_index->rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(via_index->rows[i], via_filter->rows[i]));
  }
  EXPECT_NE(IndexRangeScan(table_.get(), "by_price", Value::Null(),
                           Value::Null())
                ->ToString()
                .find("by_price"),
            std::string::npos);
}

TEST(TracingTest, TraceRecordsOperatorsAndCosts) {
  Database db("d");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false).SetPrimaryKey({"k"});
  Table* t = *db.CreateTable("t", s);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t->Insert({Value::Int(i)}).ok());
  net::Network net;
  auto ep = std::make_unique<net::DatabaseEndpoint>("d", &db, net::Channel(),
                                                    0.01);
  ASSERT_TRUE(ep->RegisterQuery("all",
                                [](Database* d2, const std::vector<Value>&)
                                    -> Result<RowSet> {
                                  ExecContext ec;
                                  return Query::From(*d2->GetTable("t"))
                                      .Run(&ec);
                                })
                  .ok());
  ASSERT_TRUE(net.AddEndpoint(std::move(ep)).ok());

  core::ProcessDefinition def;
  def.id = "T";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeQuery("d", "all", {}, "m"),
              core::Selection("m", "m2", Gt(Col("k"), Lit(int64_t{1})))};

  core::DataflowEngine engine(&net);
  engine.EnableTracing(true);
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"T", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  const auto& rec = engine.records()[0];
  ASSERT_EQ(rec.trace.size(), 2u);
  EXPECT_NE(rec.trace[0].op.find("INVOKE d.all"), std::string::npos);
  EXPECT_NE(rec.trace[1].op.find("SELECTION"), std::string::npos);
  EXPECT_GT(rec.trace[0].cc_ms, 0.0);
  // Operator costs sum to the instance's cost minus admission management.
  double traced = 0;
  for (const auto& tr : rec.trace) traced += tr.TotalMs();
  double admission = engine.weights().plan_instantiation_ms +
                     engine.weights().scheduling_ms;
  EXPECT_NEAR(traced, rec.costs.Total() - admission, 1e-9);
}

TEST(TracingTest, OffByDefault) {
  Database db("d");
  net::Network net;
  core::ProcessDefinition def;
  def.id = "T";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m")};
  core::DataflowEngine engine(&net);
  ASSERT_TRUE(engine.Deploy(def).ok());
  auto doc = std::make_shared<xml::Node>("m");
  ASSERT_TRUE(engine.Submit({"T", 0.0, doc, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_TRUE(engine.records()[0].trace.empty());
}

}  // namespace
}  // namespace dipbench
