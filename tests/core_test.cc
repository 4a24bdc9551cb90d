#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/ra/query.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace core {
namespace {

const CostWeights kWeights = DataflowWeights();

Schema CustomerSchema() {
  Schema s;
  s.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString)
      .SetPrimaryKey({"custkey"});
  return s;
}

/// Shared fixture: a source DB with customers, a target DB with an empty
/// copy table, both reachable through the network.
class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = std::make_unique<Database>("src");
    tgt_ = std::make_unique<Database>("tgt");
    Table* t = *src_->CreateTable("customer", CustomerSchema());
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i),
                             Value::String("c" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(tgt_->CreateTable("customer", CustomerSchema()).ok());
    Schema queue;
    queue.AddColumn("tid", DataType::kInt64, false)
        .AddColumn("msg", DataType::kString)
        .SetPrimaryKey({"tid"});
    ASSERT_TRUE(tgt_->CreateTable("inbox", queue).ok());

    auto src_ep = std::make_unique<net::DatabaseEndpoint>(
        "src", src_.get(), net::Channel(net::LatencyModel{2.0, 0.5, 0.0}, 1),
        0.05);
    ASSERT_TRUE(src_ep
                    ->RegisterQuery(
                        "all_customers",
                        [](Database* db, const std::vector<Value>&)
                            -> Result<RowSet> {
                          ExecContext ec;
                          return Query::From(*db->GetTable("customer"))
                              .Run(&ec);
                        })
                    .ok());
    auto tgt_ep = std::make_unique<net::DatabaseEndpoint>(
        "tgt", tgt_.get(), net::Channel(net::LatencyModel{2.0, 0.5, 0.0}, 2),
        0.05);
    ASSERT_TRUE(tgt_ep
                    ->RegisterUpdate(
                        "load_customers",
                        [](Database* db, const RowSet& rows) {
                          return InsertInto(*db->GetTable("customer"), rows);
                        })
                    .ok());
    ASSERT_TRUE(net_.AddEndpoint(std::move(src_ep)).ok());
    ASSERT_TRUE(net_.AddEndpoint(std::move(tgt_ep)).ok());
  }

  /// E2 copy process: extract all customers, filter, load into target.
  ProcessDefinition CopyProcess(const std::string& id = "COPY") {
    ProcessDefinition def;
    def.id = id;
    def.group = 'B';
    def.event_type = EventType::kTimeEvent;
    def.body = {
        InvokeQuery("src", "all_customers", {}, "msg1"),
        Selection("msg1", "msg2", Le(Col("custkey"), Lit(int64_t{6}))),
        InvokeUpdate("tgt", "load_customers", "msg2"),
    };
    return def;
  }

  /// E1 message process: receive an XML customer, convert, load.
  ProcessDefinition MessageProcess(const std::string& id = "MSG") {
    ProcessDefinition def;
    def.id = id;
    def.group = 'B';
    def.event_type = EventType::kMessage;
    def.body = {
        Receive("msg1"),
        XmlToRows("msg1", "msg2", CustomerSchema(), "row"),
        InvokeUpdate("tgt", "load_customers", "msg2"),
    };
    return def;
  }

  std::shared_ptr<const xml::Node> CustomerMessage(int key) {
    xml::Node doc("resultset");
    xml::Node* row = doc.AddChild("row");
    row->AddText("custkey", std::to_string(key));
    row->AddText("name", "msg" + std::to_string(key));
    return std::make_shared<const xml::Node>(std::move(doc));
  }

  std::unique_ptr<Database> src_, tgt_;
  net::Network net_;
};

TEST_F(CoreTest, MtmMessageKinds) {
  MtmMessage empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.Xml().ok());
  EXPECT_FALSE(empty.Rows().ok());

  RowSet rs;
  rs.schema = CustomerSchema();
  rs.rows.push_back({Value::Int(1), Value::String("a")});
  MtmMessage rows = MtmMessage::FromRows(std::move(rs));
  EXPECT_TRUE(rows.is_rows());
  EXPECT_EQ(rows.RowCount(), 1u);
  EXPECT_GT(rows.ByteSize(), 0u);

  MtmMessage doc = MtmMessage::FromXml(CustomerMessage(5));
  EXPECT_TRUE(doc.is_xml());
  EXPECT_EQ(doc.XmlNodes(), 4u);
}

TEST_F(CoreTest, ReceiveBindsInput) {
  ProcessContext ctx(&net_, &kWeights);
  ctx.SetInput(MtmMessage::FromXml(CustomerMessage(1)));
  ASSERT_TRUE(Receive("m")->Execute(&ctx).ok());
  EXPECT_TRUE(ctx.Has("m"));
  EXPECT_GT(ctx.costs().cp_ms, 0.0);
}

TEST_F(CoreTest, ReceiveWithoutInputErrors) {
  ProcessContext ctx(&net_, &kWeights);
  EXPECT_FALSE(Receive("m")->Execute(&ctx).ok());
}

TEST_F(CoreTest, AssignCopies) {
  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("a", MtmMessage::FromXml(CustomerMessage(1)));
  ASSERT_TRUE(Assign("a", "b")->Execute(&ctx).ok());
  EXPECT_TRUE(ctx.Has("b"));
  EXPECT_FALSE(Assign("zz", "c")->Execute(&ctx).ok());
}

TEST_F(CoreTest, InvokeQueryBindsRows) {
  ProcessContext ctx(&net_, &kWeights);
  ASSERT_TRUE(
      InvokeQuery("src", "all_customers", {}, "msg1")->Execute(&ctx).ok());
  auto msg = ctx.Get("msg1");
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->RowCount(), 8u);
  EXPECT_GT(ctx.costs().cc_ms, 0.0);  // network charged
  EXPECT_GT(ctx.costs().cp_ms, 0.0);  // rows charged
}

TEST_F(CoreTest, InvokeQueryXmlBindsDocument) {
  ProcessContext ctx(&net_, &kWeights);
  ASSERT_TRUE(
      InvokeQueryXml("src", "all_customers", {}, "m")->Execute(&ctx).ok());
  auto msg = ctx.Get("m");
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(msg->is_xml());
  EXPECT_GT(msg->XmlNodes(), 8u);
}

TEST_F(CoreTest, InvokeUnknownServiceErrors) {
  ProcessContext ctx(&net_, &kWeights);
  EXPECT_TRUE(InvokeQuery("mars", "q", {}, "m")
                  ->Execute(&ctx)
                  .IsNotFound());
}

TEST_F(CoreTest, SelectionProjectionJoinUnion) {
  ProcessContext ctx(&net_, &kWeights);
  ASSERT_TRUE(
      InvokeQuery("src", "all_customers", {}, "all")->Execute(&ctx).ok());
  ASSERT_TRUE(Selection("all", "low", Le(Col("custkey"), Lit(int64_t{4})))
                  ->Execute(&ctx)
                  .ok());
  ASSERT_TRUE(Selection("all", "high", Ge(Col("custkey"), Lit(int64_t{3})))
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ(ctx.Get("low")->RowCount(), 4u);
  EXPECT_EQ(ctx.Get("high")->RowCount(), 6u);

  ASSERT_TRUE(UnionDistinctOp({"low", "high"}, {"custkey"}, "merged")
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ(ctx.Get("merged")->RowCount(), 8u);
  EXPECT_EQ(ctx.quality().duplicates_eliminated, 2u);

  ASSERT_TRUE(Projection("merged", "proj",
                         {{"key2", Mul(Col("custkey"), Lit(int64_t{2})),
                           DataType::kNull}})
                  ->Execute(&ctx)
                  .ok());
  auto proj = *ctx.Get("proj")->Rows();
  EXPECT_EQ(proj->schema.column(0).name, "key2");

  ASSERT_TRUE(JoinOp("low", "high", "joined", {"custkey"}, {"custkey"})
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ(ctx.Get("joined")->RowCount(), 2u);  // keys 3 and 4 overlap
}

TEST_F(CoreTest, TranslateAppliesStx) {
  auto stx = std::make_shared<xml::StxTransformer>();
  xml::StxRule rule;
  rule.match = "row";
  rule.field_renames = {{"custkey", "Custkey"}};
  stx->AddRule(std::move(rule));
  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("in", MtmMessage::FromXml(CustomerMessage(9)));
  ASSERT_TRUE(Translate("in", "out", stx)->Execute(&ctx).ok());
  auto doc = *ctx.Get("out")->Xml();
  EXPECT_NE((*doc).FindChild("row")->FindChild("Custkey"), nullptr);
}

TEST_F(CoreTest, XmlRowsRoundTripOps) {
  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("doc", MtmMessage::FromXml(CustomerMessage(3)));
  ASSERT_TRUE(XmlToRows("doc", "rows", CustomerSchema(), "row")
                  ->Execute(&ctx)
                  .ok());
  EXPECT_EQ(ctx.Get("rows")->RowCount(), 1u);
  ASSERT_TRUE(RowsToXml("rows", "doc2", "resultset", "row")
                  ->Execute(&ctx)
                  .ok());
  EXPECT_TRUE(ctx.Get("doc2")->is_xml());
}

TEST_F(CoreTest, SwitchRoutesFirstMatch) {
  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("m", MtmMessage::FromXml(CustomerMessage(5)));
  int taken = 0;
  auto mark = [&taken](int which) {
    return Custom("mark", [&taken, which](ProcessContext*) {
      taken = which;
      return Status::OK();
    });
  };
  auto sw = Switch({
      {XmlIntInRange("m", "row/custkey", 0, 3), {mark(1)}},
      {XmlIntInRange("m", "row/custkey", 4, 9), {mark(2)}},
      {Always(), {mark(3)}},
  });
  ASSERT_TRUE(sw->Execute(&ctx).ok());
  EXPECT_EQ(taken, 2);
}

TEST_F(CoreTest, SwitchFallsThroughWhenNoMatch) {
  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("m", MtmMessage::FromXml(CustomerMessage(100)));
  auto sw = Switch({{XmlIntInRange("m", "row/custkey", 0, 3), {}}});
  EXPECT_TRUE(sw->Execute(&ctx).ok());
}

TEST_F(CoreTest, ValidateBranches) {
  auto schema = std::make_shared<xml::XsdSchema>("resultset");
  schema->Element("resultset", xml::Container({xml::Repeated("row", 1)}));
  schema->Element("row", xml::Container({xml::Required("custkey"),
                                         xml::Required("name")}));
  schema->Element("custkey", xml::Leaf(DataType::kInt64));

  int valid = 0, invalid = 0;
  auto count_valid = Custom("v", [&valid](ProcessContext*) {
    ++valid;
    return Status::OK();
  });
  auto count_invalid = Custom("i", [&invalid](ProcessContext*) {
    ++invalid;
    return Status::OK();
  });
  auto op = Validate("m", schema, {count_valid}, {count_invalid});

  ProcessContext ctx(&net_, &kWeights);
  ctx.Set("m", MtmMessage::FromXml(CustomerMessage(1)));
  ASSERT_TRUE(op->Execute(&ctx).ok());
  EXPECT_EQ(valid, 1);

  auto bad = xml::ParseXml("<resultset><row><name>x</name></row></resultset>");
  ctx.Set("m", MtmMessage::FromXml(std::move(*bad)));
  ASSERT_TRUE(op->Execute(&ctx).ok());
  EXPECT_EQ(invalid, 1);
  EXPECT_EQ(ctx.quality().validation_failures, 1u);
}

TEST_F(CoreTest, ForkElapsedIsMaxCostIsSum) {
  auto burn = [](double ms) {
    return Custom("burn", [ms](ProcessContext* ctx) {
      ctx->ChargeManagement(ms);
      return Status::OK();
    });
  };
  ProcessContext ctx(&net_, &kWeights);
  double before_cost = ctx.costs().Total();
  ASSERT_TRUE(Fork({{burn(10.0)}, {burn(30.0)}, {burn(20.0)}})
                  ->Execute(&ctx)
                  .ok());
  // Elapsed advanced by the slowest branch (30) + small operator overheads.
  EXPECT_LT(ctx.elapsed_ms(), 35.0);
  EXPECT_GE(ctx.elapsed_ms(), 30.0);
  // Costs summed across branches (>= 60).
  EXPECT_GE(ctx.costs().Total() - before_cost, 60.0);
}

TEST_F(CoreTest, SubprocessChargesManagement) {
  ProcessContext ctx(&net_, &kWeights);
  ASSERT_TRUE(Subprocess("S1", {Custom("noop", [](ProcessContext*) {
                           return Status::OK();
                         })})
                  ->Execute(&ctx)
                  .ok());
  EXPECT_GE(ctx.costs().cm_ms, kWeights.plan_instantiation_ms);
}

TEST_F(CoreTest, DataflowEngineRunsTimeEventProcess) {
  DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(CopyProcess()).ok());
  ASSERT_TRUE(engine.Submit({"COPY", 10.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  ASSERT_EQ(engine.records().size(), 1u);
  const InstanceRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.process_id, "COPY");
  EXPECT_DOUBLE_EQ(rec.submit_time, 10.0);
  EXPECT_GT(rec.end_time, rec.start_time);
  EXPECT_GT(rec.costs.cc_ms, 0.0);
  EXPECT_GT(rec.costs.cm_ms, 0.0);
  EXPECT_GT(rec.costs.cp_ms, 0.0);
  EXPECT_EQ(rec.quality.rows_loaded, 6u);
  EXPECT_EQ((*tgt_->GetTable("customer"))->size(), 6u);
}

TEST_F(CoreTest, DataflowEngineRunsMessageProcess) {
  DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(MessageProcess()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        engine.Submit({"MSG", 1.0 * i, CustomerMessage(100 + i), 0}).ok());
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ(engine.records().size(), 5u);
  EXPECT_EQ((*tgt_->GetTable("customer"))->size(), 5u);
}

TEST_F(CoreTest, SubmitUnknownProcessErrors) {
  DataflowEngine engine(&net_);
  EXPECT_TRUE(engine.Submit({"NOPE", 0.0, nullptr, 0}).IsNotFound());
}

TEST_F(CoreTest, DeployDuplicateRejected) {
  DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(CopyProcess()).ok());
  EXPECT_FALSE(engine.Deploy(CopyProcess()).ok());
  ProcessDefinition empty;
  empty.id = "EMPTY";
  EXPECT_FALSE(engine.Deploy(empty).ok());
}

TEST_F(CoreTest, WorkerContentionCausesWaiting) {
  DataflowEngine engine(&net_, DataflowWeights(), /*worker_slots=*/1);
  ASSERT_TRUE(engine.Deploy(MessageProcess()).ok());
  // 10 simultaneous events on one worker: later instances must wait.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Submit({"MSG", 0.0, CustomerMessage(i), 0}).ok());
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  double total_wait = 0;
  for (const auto& r : engine.records()) total_wait += r.wait_ms;
  EXPECT_GT(total_wait, 0.0);
  // Waiting shows up as management cost.
  EXPECT_GT(engine.records().back().costs.cm_ms,
            engine.records().front().costs.cm_ms);
}

TEST_F(CoreTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    DataflowEngine engine(&net_);
    EXPECT_TRUE(engine.Deploy(MessageProcess()).ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(engine.Submit({"MSG", 2.0 * i, CustomerMessage(i), 0}).ok());
    }
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    double total = 0;
    for (const auto& r : engine.records()) total += r.costs.Total();
    return total;
  };
  // Fresh target tables per run so duplicate keys do not interfere.
  double a = run_once();
  tgt_->ClearAllTables();
  double b = run_once();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(CoreTest, ResetClearsStateKeepsProcesses) {
  DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(CopyProcess()).ok());
  ASSERT_TRUE(engine.Submit({"COPY", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ(engine.records().size(), 1u);
  EXPECT_GT(engine.Now(), 0.0);
  engine.Reset();
  EXPECT_TRUE(engine.records().empty());
  EXPECT_DOUBLE_EQ(engine.Now(), 0.0);
  EXPECT_TRUE(engine.HasProcess("COPY"));
}

TEST_F(CoreTest, FederatedEngineCreatesQueueTablesAndTriggers) {
  FederatedEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(MessageProcess("P04")).ok());
  EXPECT_TRUE(engine.engine_db()->HasTable("P04_queue"));
  ASSERT_TRUE(engine.Deploy(CopyProcess("P05")).ok());
  EXPECT_TRUE(engine.engine_db()->HasProcedure("exec_P05"));
}

TEST_F(CoreTest, FederatedEngineExecutesViaTrigger) {
  FederatedEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(MessageProcess("P04")).ok());
  ASSERT_TRUE(engine.Submit({"P04", 0.0, CustomerMessage(77), 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ((*tgt_->GetTable("customer"))->size(), 1u);
  // The message went through the queue table.
  EXPECT_EQ((*engine.engine_db()->GetTable("P04_queue"))->size(), 1u);
}

TEST_F(CoreTest, FederatedEngineExecutesProcedure) {
  FederatedEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(CopyProcess("P05")).ok());
  ASSERT_TRUE(engine.Submit({"P05", 5.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ((*tgt_->GetTable("customer"))->size(), 6u);
  EXPECT_TRUE(engine.records()[0].ok);
}

TEST_F(CoreTest, FederatedXmlCostlierThanDataflow) {
  // The same E1 (XML message) process costs more on the federated engine
  // (xml_factor > 1) — the paper's optimizer-coverage observation.
  DataflowEngine dataflow(&net_);
  FederatedEngine federated(&net_);
  ASSERT_TRUE(dataflow.Deploy(MessageProcess("M")).ok());
  ASSERT_TRUE(federated.Deploy(MessageProcess("M")).ok());
  ASSERT_TRUE(dataflow.Submit({"M", 0.0, CustomerMessage(1), 0}).ok());
  ASSERT_TRUE(federated.Submit({"M", 0.0, CustomerMessage(2), 0}).ok());
  ASSERT_TRUE(dataflow.RunUntilIdle().ok());
  ASSERT_TRUE(federated.RunUntilIdle().ok());
  EXPECT_GT(federated.records()[0].costs.cp_ms,
            dataflow.records()[0].costs.cp_ms);
}

}  // namespace
}  // namespace core
}  // namespace dipbench
