// Tests for the extension features: the EAI engine, the Enrich / GroupBy /
// Sort / Multicast operators, and the XML flat-file endpoint.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/net/file_endpoint.h"
#include "src/ra/query.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace {

Schema OrdersSchema() {
  Schema s;
  s.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("custkey", DataType::kInt64)
      .AddColumn("amount", DataType::kDouble)
      .SetPrimaryKey({"orderkey"});
  return s;
}

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("d");
    Table* orders = *db_->CreateTable("orders", OrdersSchema());
    for (int i = 1; i <= 9; ++i) {
      ASSERT_TRUE(orders
                      ->Insert({Value::Int(i), Value::Int(1 + i % 3),
                                Value::Double(i * 10.0)})
                      .ok());
    }
    Schema cust;
    cust.AddColumn("custkey", DataType::kInt64, false)
        .AddColumn("segment", DataType::kString)
        .SetPrimaryKey({"custkey"});
    Table* customers = *db_->CreateTable("customer", cust);
    for (int i = 1; i <= 2; ++i) {  // custkey 3 intentionally missing
      ASSERT_TRUE(customers
                      ->Insert({Value::Int(i),
                                Value::String(i == 1 ? "GOLD" : "SILVER")})
                      .ok());
    }
    Schema sink;
    sink.AddColumn("orderkey", DataType::kInt64, false)
        .AddColumn("custkey", DataType::kInt64)
        .AddColumn("amount", DataType::kDouble)
        .SetPrimaryKey({"orderkey"});
    ASSERT_TRUE(db_->CreateTable("sink_a", sink).ok());
    ASSERT_TRUE(db_->CreateTable("sink_b", sink).ok());

    auto ep = std::make_unique<net::DatabaseEndpoint>("d", db_.get(),
                                                      net::Channel(), 0.01);
    ASSERT_TRUE(ep->RegisterQuery(
                      "all_orders",
                      [](Database* d, const std::vector<Value>&)
                          -> Result<RowSet> {
                        ExecContext ec;
                        return Query::From(*d->GetTable("orders")).Run(&ec);
                      })
                    .ok());
    ASSERT_TRUE(ep->RegisterQuery(
                      "lookup_customer",
                      [](Database* d, const std::vector<Value>& params)
                          -> Result<RowSet> {
                        RowSet out;
                        Table* t = *d->GetTable("customer");
                        out.schema = t->schema();
                        auto hit = t->FindByKey({params[0]});
                        if (hit.ok()) out.rows.push_back(*hit);
                        return out;
                      })
                    .ok());
    for (const char* sink_name : {"sink_a", "sink_b"}) {
      std::string table = sink_name;
      ASSERT_TRUE(ep->RegisterUpdate(
                        std::string("load_") + sink_name,
                        [table](Database* d, const RowSet& rows) {
                          return InsertInto(*d->GetTable(table), rows);
                        })
                      .ok());
    }
    ASSERT_TRUE(net_.AddEndpoint(std::move(ep)).ok());
  }

  core::ProcessContext MakeCtx() {
    return core::ProcessContext(&net_, &weights_);
  }

  std::unique_ptr<Database> db_;
  net::Network net_;
  core::CostWeights weights_ = core::DataflowWeights();
};

TEST_F(ExtensionsTest, EnrichAppendsLookupColumns) {
  auto ctx = MakeCtx();
  ASSERT_TRUE(
      core::InvokeQuery("d", "all_orders", {}, "orders")->Execute(&ctx).ok());
  ASSERT_TRUE(core::Enrich("orders", "enriched", "d", "lookup_customer",
                           "custkey")
                  ->Execute(&ctx)
                  .ok());
  auto rows = *ctx.Get("enriched")->Rows();
  ASSERT_EQ(rows->rows.size(), 9u);
  // Lookup columns appended; key collision prefixed.
  EXPECT_TRUE(rows->schema.HasColumn("e_custkey"));
  EXPECT_TRUE(rows->schema.HasColumn("segment"));
  size_t seg_idx = *rows->schema.IndexOf("segment");
  int hits = 0, misses = 0;
  for (const auto& r : rows->rows) {
    if (r[seg_idx].is_null()) {
      ++misses;  // custkey 3 has no master data
      EXPECT_EQ(r[1].AsInt(), 3);
    } else {
      ++hits;
    }
  }
  EXPECT_EQ(misses, 3);
  EXPECT_EQ(hits, 6);
  EXPECT_GT(ctx.costs().cc_ms, 0.0);  // lookups charged communication
}

TEST_F(ExtensionsTest, EnrichCachesDistinctKeys) {
  auto ctx = MakeCtx();
  ASSERT_TRUE(
      core::InvokeQuery("d", "all_orders", {}, "orders")->Execute(&ctx).ok());
  net::NetStats before = ctx.net_stats();
  ASSERT_TRUE(core::Enrich("orders", "enriched", "d", "lookup_customer",
                           "custkey")
                  ->Execute(&ctx)
                  .ok());
  // 3 distinct custkeys -> exactly 3 lookup round trips, not 9.
  EXPECT_EQ(ctx.net_stats().interactions - before.interactions, 3u);
}

TEST_F(ExtensionsTest, EnrichCacheKeysByValueNotRenderedText) {
  // 1.0000001 and 1.0000002 both render as "1" under "%.6g"; they are
  // distinct keys and each must get its own lookup result.
  auto echo = std::make_unique<net::DatabaseEndpoint>("echo", db_.get(),
                                                      net::Channel(), 0.01);
  ASSERT_TRUE(echo->RegisterQuery(
                      "echo",
                      [](Database*, const std::vector<Value>& params)
                          -> Result<RowSet> {
                        RowSet out;
                        out.schema.AddColumn("echoed", DataType::kDouble);
                        out.rows.push_back({params[0]});
                        return out;
                      })
                  .ok());
  ASSERT_TRUE(net_.AddEndpoint(std::move(echo)).ok());
  auto ctx = MakeCtx();
  RowSet in;
  in.schema.AddColumn("k", DataType::kDouble);
  in.rows = {{Value::Double(1.0000001)},
             {Value::Double(1.0000002)},
             {Value::Double(1.0000001)}};
  ctx.Set("in", core::MtmMessage::FromRows(std::move(in)));
  net::NetStats before = ctx.net_stats();
  ASSERT_TRUE(core::Enrich("in", "out", "echo", "echo", "k")
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ(ctx.net_stats().interactions - before.interactions, 2u);
  auto rows = *ctx.Get("out")->Rows();
  ASSERT_EQ(rows->rows.size(), 3u);
  for (const Row& r : rows->rows) {
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[1].AsDouble(), r[0].AsDouble());
  }
}

TEST_F(ExtensionsTest, GroupByAggregates) {
  auto ctx = MakeCtx();
  ASSERT_TRUE(
      core::InvokeQuery("d", "all_orders", {}, "orders")->Execute(&ctx).ok());
  ASSERT_TRUE(core::GroupByOp("orders", "agg", {"custkey"},
                              {{"total", AggFunc::kSum, "amount"},
                               {"n", AggFunc::kCount, ""}})
                  ->Execute(&ctx)
                  .ok());
  auto rows = *ctx.Get("agg")->Rows();
  EXPECT_EQ(rows->rows.size(), 3u);
  double total = 0;
  for (const auto& r : rows->rows) total += r[1].AsDouble();
  EXPECT_DOUBLE_EQ(total, 450.0);  // sum 10..90
}

TEST_F(ExtensionsTest, SortOrders) {
  auto ctx = MakeCtx();
  ASSERT_TRUE(
      core::InvokeQuery("d", "all_orders", {}, "orders")->Execute(&ctx).ok());
  ASSERT_TRUE(core::SortOp("orders", "sorted", {{"amount", false}})
                  ->Execute(&ctx)
                  .ok());
  auto rows = *ctx.Get("sorted")->Rows();
  EXPECT_DOUBLE_EQ(rows->rows.front()[2].AsDouble(), 90.0);
  EXPECT_DOUBLE_EQ(rows->rows.back()[2].AsDouble(), 10.0);
}

TEST_F(ExtensionsTest, MulticastLoadsAllTargets) {
  auto ctx = MakeCtx();
  ASSERT_TRUE(
      core::InvokeQuery("d", "all_orders", {}, "orders")->Execute(&ctx).ok());
  ASSERT_TRUE(core::Multicast("orders", {{"d", "load_sink_a"},
                                         {"d", "load_sink_b"}})
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ((*db_->GetTable("sink_a"))->size(), 9u);
  EXPECT_EQ((*db_->GetTable("sink_b"))->size(), 9u);
  EXPECT_EQ(ctx.quality().rows_loaded, 18u);
}

TEST_F(ExtensionsTest, EaiEngineRunsProcesses) {
  core::EaiEngine engine(&net_);
  EXPECT_EQ(engine.name(), "eai");
  core::ProcessDefinition def;
  def.id = "COPY";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeQuery("d", "all_orders", {}, "m"),
              core::InvokeUpdate("d", "load_sink_a", "m")};
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"COPY", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ((*db_->GetTable("sink_a"))->size(), 9u);
}

TEST_F(ExtensionsTest, EaiCheaperOnXmlCostlierOnRows) {
  // Identical work, different weights: EAI makes XML cheaper and rows
  // costlier than the dataflow engine.
  auto run = [&](core::IntegrationSystem& engine, const char* id) {
    core::ProcessDefinition def;
    def.id = id;
    def.event_type = core::EventType::kMessage;
    def.body = {core::Receive("m")};
    EXPECT_TRUE(engine.Deploy(def).ok());
    auto doc = xml::ParseXml("<m><a>1</a><b>2</b><c>3</c></m>");
    auto msg = std::make_shared<const xml::Node>(std::move(*doc));
    EXPECT_TRUE(engine.Submit({id, 0.0, msg, 0}).ok());
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    return engine.records().back().costs.cp_ms;
  };
  core::DataflowEngine dataflow(&net_);
  core::EaiEngine eai(&net_);
  double df_xml = run(dataflow, "X");
  double eai_xml = run(eai, "X");
  EXPECT_LT(eai_xml, df_xml);
}

TEST(FileStoreTest, BasicOps) {
  net::FileStore store;
  EXPECT_FALSE(store.Exists("a.xml"));
  store.Write("a.xml", "<a/>");
  EXPECT_TRUE(store.Exists("a.xml"));
  EXPECT_EQ(*store.Read("a.xml"), "<a/>");
  EXPECT_TRUE(store.Read("b.xml").status().IsNotFound());
  store.Write("b.xml", "<b/>");
  EXPECT_EQ(store.List().size(), 2u);
  EXPECT_TRUE(store.Remove("a.xml").ok());
  EXPECT_TRUE(store.Remove("a.xml").IsNotFound());
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(FileStoreTest, DiskRoundTrip) {
  // Claimed per-process-unique so a parallel ctest (or a concurrent
  // harness run) can never race this test on a shared fixed path.
  std::string dir = net::FileStore::ClaimUniqueDir(
                        std::filesystem::temp_directory_path().string(),
                        "dipbench_filestore_test")
                        .ValueOrDie();
  net::FileStore store;
  store.Write("x.xml", "<x>1</x>");
  store.Write("y.xml", "<y attr=\"v\"/>");
  ASSERT_TRUE(store.SaveToDisk(dir).ok());
  net::FileStore loaded;
  ASSERT_TRUE(loaded.LoadFromDisk(dir).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(*loaded.Read("x.xml"), "<x>1</x>");
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(net::FileStore().LoadFromDisk(dir + "/nope").IsNotFound());
}

class XmlFileEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ep_ = std::make_unique<net::XmlFileEndpoint>("files", &store_,
                                                 net::Channel(), 0.01);
    schema_.AddColumn("k", DataType::kInt64, false)
        .AddColumn("v", DataType::kString);
    store_.Write("in.xml",
                 "<export><rec><k>1</k><v>a</v></rec>"
                 "<rec><k>2</k><v>b</v></rec></export>");
    ASSERT_TRUE(ep_->RegisterFileQuery("read_in", "in.xml", schema_, "rec")
                    .ok());
    ASSERT_TRUE(ep_->RegisterFileUpdate("write_out", "out.xml", "export",
                                        "rec", /*append=*/false)
                    .ok());
    ASSERT_TRUE(ep_->RegisterFileUpdate("append_out", "log.xml", "log", "rec",
                                        /*append=*/true)
                    .ok());
  }

  net::FileStore store_;
  Schema schema_;
  std::unique_ptr<net::XmlFileEndpoint> ep_;
};

TEST_F(XmlFileEndpointTest, QueryParsesFile) {
  net::NetStats stats;
  auto rows = ep_->Query("read_in", {}, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[1][1].AsString(), "b");
  EXPECT_GT(stats.comm_ms, 0.0);
  EXPECT_TRUE(ep_->Query("nope", {}, &stats).status().IsNotFound());
}

TEST_F(XmlFileEndpointTest, UpdateWritesFile) {
  RowSet rows;
  rows.schema = schema_;
  rows.rows.push_back({Value::Int(7), Value::String("z")});
  net::NetStats stats;
  auto written = ep_->Update("write_out", rows, &stats);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 1u);
  auto text = store_.Read("out.xml");
  ASSERT_TRUE(text.ok());
  auto doc = xml::ParseXml(*text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->FindChildren("rec").size(), 1u);
}

TEST_F(XmlFileEndpointTest, AppendAccumulates) {
  RowSet rows;
  rows.schema = schema_;
  rows.rows.push_back({Value::Int(1), Value::String("x")});
  ASSERT_TRUE(ep_->Update("append_out", rows, nullptr).ok());
  ASSERT_TRUE(ep_->Update("append_out", rows, nullptr).ok());
  auto doc = xml::ParseXml(*store_.Read("log.xml"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->FindChildren("rec").size(), 2u);
}

TEST_F(XmlFileEndpointTest, RoundTripThroughProcess) {
  // file -> MTM process -> file: query, filter, write.
  net::Network net;
  net::XmlFileEndpoint* raw = ep_.get();
  (void)raw;
  ASSERT_TRUE(net.AddEndpoint(std::move(ep_)).ok());
  core::ProcessDefinition def;
  def.id = "FILE_COPY";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeQuery("files", "read_in", {}, "m1"),
              core::Selection("m1", "m2", Gt(Col("k"), Lit(int64_t{1}))),
              core::InvokeUpdate("files", "write_out", "m2")};
  core::DataflowEngine engine(&net);
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"FILE_COPY", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  auto doc = xml::ParseXml(*store_.Read("out.xml"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->FindChildren("rec").size(), 1u);
}

TEST_F(XmlFileEndpointTest, NoMessagesOrProcedures) {
  xml::Node msg("m");
  EXPECT_EQ(ep_->SendMessage("q", msg, nullptr).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(ep_->CallProcedure("p", {}, nullptr).code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace dipbench
