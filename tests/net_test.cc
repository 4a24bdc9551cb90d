#include <gtest/gtest.h>

#include "src/net/channel.h"
#include "src/net/endpoint.h"
#include "src/ra/expr.h"
#include "src/ra/query.h"

namespace dipbench {
namespace net {
namespace {

TEST(ChannelTest, CostScalesWithBytes) {
  Channel ch(LatencyModel{2.0, 1.0, 0.0}, 1);
  double small = ch.TransferCost(1024);
  double large = ch.TransferCost(10240);
  EXPECT_DOUBLE_EQ(small, 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(large, 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(ch.RoundTripCost(1024, 1024), 2 * small);
}

TEST(ChannelTest, JitterBoundedAndDeterministic) {
  Channel a(LatencyModel{10.0, 0.0, 0.2}, 42);
  Channel b(LatencyModel{10.0, 0.0, 0.2}, 42);
  for (int i = 0; i < 100; ++i) {
    double ca = a.TransferCost(0);
    double cb = b.TransferCost(0);
    EXPECT_DOUBLE_EQ(ca, cb);       // same seed, same draw
    EXPECT_GE(ca, 5.0 * (1 - 0.2));
    EXPECT_LE(ca, 5.0 * (1 + 0.2));
  }
}

TEST(NetStatsTest, AddAccumulates) {
  NetStats a{1.0, 10, 2, 1}, b{2.5, 20, 3, 1};
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.comm_ms, 3.5);
  EXPECT_EQ(a.bytes, 30u);
  EXPECT_EQ(a.rows, 5u);
  EXPECT_EQ(a.interactions, 2u);
}

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema customer;
    customer.AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("name", DataType::kString)
        .SetPrimaryKey({"custkey"});
    Table* t = *db_.CreateTable("customer", customer);
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i),
                             Value::String("c" + std::to_string(i))})
                      .ok());
    }
  }

  QueryOp AllCustomers() {
    return [](Database* db, const std::vector<Value>&) -> Result<RowSet> {
      ExecContext ctx;
      return Query::From(*db->GetTable("customer")).Run(&ctx);
    };
  }

  UpdateOp InsertCustomers() {
    return [](Database* db, const RowSet& rows) -> Result<size_t> {
      return InsertInto(*db->GetTable("customer"), rows);
    };
  }

  Database db_{"berlin"};
};

TEST_F(EndpointTest, DatabaseEndpointQuery) {
  DatabaseEndpoint ep("berlin", &db_, Channel(LatencyModel{2.0, 1.0, 0.0}, 1),
                      0.1);
  ASSERT_TRUE(ep.RegisterQuery("all", AllCustomers()).ok());
  NetStats stats;
  auto rows = ep.Query("all", {}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_GT(stats.comm_ms, 0.0);
  EXPECT_EQ(stats.rows, 5u);
  EXPECT_EQ(stats.interactions, 1u);
}

TEST_F(EndpointTest, UnknownOpsError) {
  DatabaseEndpoint ep("berlin", &db_, Channel(), 0.1);
  NetStats stats;
  EXPECT_TRUE(ep.Query("nope", {}, &stats).status().IsNotFound());
  RowSet empty;
  EXPECT_TRUE(ep.Update("nope", empty, &stats).status().IsNotFound());
}

TEST_F(EndpointTest, DuplicateRegistrationRejected) {
  DatabaseEndpoint ep("berlin", &db_, Channel(), 0.1);
  ASSERT_TRUE(ep.RegisterQuery("all", AllCustomers()).ok());
  EXPECT_FALSE(ep.RegisterQuery("all", AllCustomers()).ok());
}

TEST_F(EndpointTest, DatabaseEndpointUpdate) {
  DatabaseEndpoint ep("berlin", &db_, Channel(), 0.1);
  ASSERT_TRUE(ep.RegisterUpdate("load", InsertCustomers()).ok());
  RowSet rows;
  rows.schema = (*db_.GetTable("customer"))->schema();
  ASSERT_TRUE(rows.rows.Append({Value::Int(100), Value::String("new")}).ok());
  NetStats stats;
  auto written = ep.Update("load", rows, &stats);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 1u);
  EXPECT_EQ((*db_.GetTable("customer"))->size(), 6u);
}

TEST_F(EndpointTest, QueryXmlDefaultResultSet) {
  DatabaseEndpoint ep("berlin", &db_, Channel(), 0.1);
  ASSERT_TRUE(ep.RegisterQuery("all", AllCustomers()).ok());
  NetStats stats;
  auto doc = ep.QueryXml("all", {}, &stats);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->name(), "resultset");
  EXPECT_EQ(doc->FindChildren("row").size(), 5u);
}

TEST_F(EndpointTest, WebServiceMarshalsThroughXml) {
  WebServiceEndpoint ws("beijing", &db_, Channel(LatencyModel{2.0, 1.0, 0.0}, 2),
                        0.1, 0.05);
  ASSERT_TRUE(ws.RegisterQuery("all", AllCustomers()).ok());
  NetStats db_stats, ws_stats;
  DatabaseEndpoint ep("berlin", &db_, Channel(LatencyModel{2.0, 1.0, 0.0}, 2),
                      0.1);
  ASSERT_TRUE(ep.RegisterQuery("all", AllCustomers()).ok());
  auto db_rows = ep.Query("all", {}, &db_stats);
  auto ws_rows = ws.Query("all", {}, &ws_stats);
  ASSERT_TRUE(db_rows.ok());
  ASSERT_TRUE(ws_rows.ok());
  EXPECT_EQ(db_rows->size(), ws_rows->size());
  // Same logical data, but the WS path is more expensive (XML inflation +
  // per-node processing).
  EXPECT_GT(ws_stats.comm_ms, db_stats.comm_ms);
}

TEST_F(EndpointTest, WebServiceUpdateViaXml) {
  WebServiceEndpoint ws("beijing", &db_, Channel(), 0.1, 0.05);
  ASSERT_TRUE(ws.RegisterUpdate("load", InsertCustomers()).ok());
  RowSet rows;
  rows.schema = (*db_.GetTable("customer"))->schema();
  ASSERT_TRUE(
      rows.rows.Append({Value::Int(200), Value::String("ws<load>")}).ok());
  NetStats stats;
  auto written = ws.Update("load", rows, &stats);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 1u);
  // Value survived the XML round trip, including escaping.
  const Value key = Value::Int(200);
  auto found = (*db_.GetTable("customer"))->FindByKeyRef({&key, 1});
  ASSERT_TRUE(found.ok() && !found->empty());
  EXPECT_EQ((*found)[1].AsString(), "ws<load>");
}

TEST_F(EndpointTest, CallProcedureChargesWork) {
  ASSERT_TRUE(db_.RegisterProcedure(
                     "sp_touch",
                     [](Database* db, const std::vector<Value>&) {
                       (*db->GetTable("customer"))->ScanAll();
                       return Status::OK();
                     })
                  .ok());
  DatabaseEndpoint ep("cdb", &db_, Channel(), 0.1);
  NetStats stats;
  ASSERT_TRUE(ep.CallProcedure("sp_touch", {}, &stats).ok());
  EXPECT_GT(stats.comm_ms, 0.0);
  EXPECT_GE(stats.rows, 5u);
  EXPECT_TRUE(ep.CallProcedure("nope", {}, &stats).IsNotFound());
}

TEST(NetworkTest, RegistryBasics) {
  Network net;
  auto db = std::make_unique<Database>("x");
  Database* dbp = db.get();
  (void)dbp;
  static Database static_db{"x"};
  ASSERT_TRUE(net.AddEndpoint(std::make_unique<DatabaseEndpoint>(
                                  "berlin", &static_db, Channel(), 0.1))
                  .ok());
  EXPECT_TRUE(net.Has("berlin"));
  EXPECT_FALSE(net.Has("paris"));
  ASSERT_TRUE(net.Get("berlin").ok());
  EXPECT_TRUE(net.Get("paris").status().IsNotFound());
  EXPECT_FALSE(net.AddEndpoint(std::make_unique<DatabaseEndpoint>(
                                   "berlin", &static_db, Channel(), 0.1))
                   .ok());
  EXPECT_EQ(net.ListEndpoints().size(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace dipbench
