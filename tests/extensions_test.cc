// Tests for the extension features: the EAI engine and the XML flat-file
// endpoint.

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
    ASSERT_TRUE(db_->CreateTable("sink_a", OrdersSchema()).ok());

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
    ASSERT_TRUE(ep->RegisterUpdate("load_sink_a",
                                   [](Database* d, const RowSet& rows) {
                                     return InsertInto(*d->GetTable("sink_a"),
                                                       rows);
                                   })
                    .ok());
    ASSERT_TRUE(net_.AddEndpoint(std::move(ep)).ok());
  }

  std::unique_ptr<Database> db_;
  net::Network net_;
};

TEST_F(ExtensionsTest, EaiEngineRunsProcesses) {
  core::DataflowEngine engine(&net_, core::EaiWeights(), 8, "eai");
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
  core::DataflowEngine eai(&net_, core::EaiWeights(), 8, "eai");
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
  ASSERT_TRUE(rows.rows.Append({Value::Int(7), Value::String("z")}).ok());
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
  ASSERT_TRUE(rows.rows.Append({Value::Int(1), Value::String("x")}).ok());
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

TEST_F(XmlFileEndpointTest, NoProcedures) {
  EXPECT_EQ(ep_->CallProcedure("p", {}, nullptr).code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace dipbench
