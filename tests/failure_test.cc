// Failure-injection tests: unreachable/erroring external systems, broken
// messages, trigger failures, verification catching corrupted target
// state, and engine behavior at the edges.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/dipbench/client.h"
#include "src/dipbench/processes.h"
#include "src/ra/query.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace {

Schema KvSchema() {
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("v", DataType::kString)
      .SetPrimaryKey({"k"});
  return s;
}

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("flaky");
    ASSERT_TRUE(db_->CreateTable("t", KvSchema()).ok());
    auto ep = std::make_unique<net::DatabaseEndpoint>("flaky", db_.get(),
                                                      net::Channel(), 0.01);
    // A query op that fails on demand.
    ASSERT_TRUE(ep->RegisterQuery(
                      "maybe_fail",
                      [this](Database* d,
                             const std::vector<Value>&) -> Result<RowSet> {
                        if (fail_queries_) {
                          return Status::Unavailable("backend down");
                        }
                        ExecContext ec;
                        return Query::From(*d->GetTable("t")).Run(&ec);
                      })
                    .ok());
    ASSERT_TRUE(ep->RegisterUpdate("load",
                                   [](Database* d, const RowSet& rows) {
                                     return InsertInto(*d->GetTable("t"),
                                                       rows);
                                   })
                    .ok());
    ASSERT_TRUE(net_.AddEndpoint(std::move(ep)).ok());
  }

  core::ProcessDefinition QueryProcess() {
    core::ProcessDefinition def;
    def.id = "Q";
    def.event_type = core::EventType::kTimeEvent;
    def.body = {core::InvokeQuery("flaky", "maybe_fail", {}, "m")};
    return def;
  }

  bool fail_queries_ = false;
  std::unique_ptr<Database> db_;
  net::Network net_;
};

TEST_F(FailureTest, EndpointErrorSurfacesWithProcessContext) {
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  fail_queries_ = true;
  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  // Error message names the failing operator and the process instance.
  EXPECT_NE(st.message().find("INVOKE flaky.maybe_fail"), std::string::npos);
  EXPECT_NE(st.message().find("instance of Q"), std::string::npos);
  // A record exists and is marked failed.
  ASSERT_EQ(engine.records().size(), 1u);
  EXPECT_FALSE(engine.records()[0].ok);
  EXPECT_FALSE(engine.records()[0].error.empty());
}

TEST_F(FailureTest, EngineRecoversAfterFailure) {
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  fail_queries_ = true;
  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  EXPECT_FALSE(engine.RunUntilIdle().ok());
  fail_queries_ = false;
  ASSERT_TRUE(engine.Submit({"Q", 1.0, nullptr, 0}).ok());
  EXPECT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ(engine.records().size(), 2u);
  EXPECT_TRUE(engine.records()[1].ok);
}

TEST_F(FailureTest, MessagePayloadTypeMismatch) {
  // A process that expects rows but the variable holds XML.
  core::ProcessDefinition def;
  def.id = "MISMATCH";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m"),
              core::Selection("m", "out", Gt(Col("k"), Lit(int64_t{0})))};
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(def).ok());
  auto doc = std::make_shared<xml::Node>("msg");
  ASSERT_TRUE(engine.Submit({"MISMATCH", 0.0, doc, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch);
}

TEST_F(FailureTest, UnboundVariableIsNotFound) {
  core::ProcessDefinition def;
  def.id = "UNBOUND";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeUpdate("flaky", "load", "never_bound")};
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"UNBOUND", 0.0, nullptr, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("never_bound"), std::string::npos);
}

TEST_F(FailureTest, FederatedTriggerFailurePropagates) {
  core::FederatedEngine engine(&net_);
  core::ProcessDefinition def;
  def.id = "PX";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m"),
              core::Custom("boom", [](core::ProcessContext*) {
                return Status::Internal("process body exploded");
              })};
  ASSERT_TRUE(engine.Deploy(def).ok());
  auto doc = std::make_shared<xml::Node>("msg");
  ASSERT_TRUE(engine.Submit({"PX", 0.0, doc, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exploded"), std::string::npos);
  // The message still reached the queue table (Fig. 9a semantics: the
  // insert happened; the trigger failed afterwards).
  EXPECT_EQ((*engine.engine_db()->GetTable("PX_queue"))->size(), 1u);
}

TEST_F(FailureTest, FederatedInstanceWithoutMessageLeavesNoTriggerContext) {
  core::FederatedEngine engine(&net_);
  core::ProcessDefinition def;
  def.id = "PX";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m")};
  ASSERT_TRUE(engine.Deploy(def).ok());
  // An E1 instance with no XML input fails before its queue insert.
  ASSERT_TRUE(engine.Submit({"PX", 0.0, nullptr, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch);
  EXPECT_EQ((*engine.engine_db()->GetTable("PX_queue"))->size(), 0u);
  // Its context is gone: an insert outside any instance must not run the
  // trigger body on it.
  Status outside = engine.engine_db()->InsertWithTriggers(
      "PX_queue", {Value::Int(1000), Value::String("<m/>")});
  EXPECT_EQ(outside.code(), StatusCode::kInternal);
  EXPECT_NE(outside.message().find("trigger fired outside an instance"),
            std::string::npos)
      << outside;
  // A well-formed message still runs through the queue table afterwards.
  ASSERT_TRUE(
      engine.Submit({"PX", 1.0, std::make_shared<xml::Node>("m"), 0}).ok());
  EXPECT_TRUE(engine.RunUntilIdle().ok());
  EXPECT_EQ((*engine.engine_db()->GetTable("PX_queue"))->size(), 2u);
}

TEST_F(FailureTest, SwitchConditionErrorPropagates) {
  core::ProcessDefinition def;
  def.id = "SW";
  def.event_type = core::EventType::kMessage;
  def.body = {
      core::Receive("m"),
      core::Switch({{core::XmlIntInRange("m", "NoSuchPath", 0, 10), {}}}),
  };
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(def).ok());
  auto doc = std::make_shared<xml::Node>("msg");
  ASSERT_TRUE(engine.Submit({"SW", 0.0, doc, 0}).ok());
  EXPECT_TRUE(engine.RunUntilIdle().IsNotFound());
}

TEST_F(FailureTest, TranslateOnRowsPayloadFails) {
  auto stx = std::make_shared<xml::StxTransformer>();
  core::ProcessDefinition def;
  def.id = "TR";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeQuery("flaky", "maybe_fail", {}, "rows"),
              core::Translate("rows", "out", stx)};
  core::DataflowEngine engine(&net_);
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"TR", 0.0, nullptr, 0}).ok());
  EXPECT_EQ(engine.RunUntilIdle().code(), StatusCode::kTypeMismatch);
}

// --- Verification catches corrupted target state ---------------------------

class VerifyFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::move(Scenario::Create()).ValueOrDie();
    engine_ = std::make_unique<core::DataflowEngine>(scenario_->network());
    ScaleConfig cfg;
    cfg.datasize = 0.02;
    cfg.periods = 1;
    client_ = std::make_unique<Client>(scenario_.get(), engine_.get(), cfg);
    ASSERT_TRUE(client_->DeployProcesses().ok());
    ASSERT_TRUE(client_->RunPeriod(0).ok());
    // Sanity: an untouched run verifies.
    ASSERT_TRUE(VerifyIntegration(scenario_.get()).ok());
  }

  Table* GetTable(const std::string& db, const std::string& table) {
    return *(*scenario_->db(db))->GetTable(table);
  }

  std::unique_ptr<Scenario> scenario_;
  std::unique_ptr<core::DataflowEngine> engine_;
  std::unique_ptr<Client> client_;
};

TEST_F(VerifyFailureTest, DetectsStaleMaterializedView) {
  GetTable("dwh_db", "orders_mv")->Clear();
  auto report = VerifyIntegration(scenario_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("OrdersMV"), std::string::npos);
}

TEST_F(VerifyFailureTest, DetectsLeftoverCleanMovement) {
  // Simulate P13 forgetting the delta cleanup.
  Table* orders = GetTable("cdb_db", "orders");
  ASSERT_TRUE(orders
                  ->Insert({Value::Int(999999), Value::Int(3), Value::Int(1),
                            Value::Int(1), Value::Date(20080101),
                            Value::Int(1), Value::Double(1.0),
                            Value::String("HIGH"), Value::String("test"),
                            Value::Bool(false)})
                  .ok());
  auto report = VerifyIntegration(scenario_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("not removed"), std::string::npos);
}

TEST_F(VerifyFailureTest, DetectsMartMismatch) {
  GetTable("dm_europe_db", "orders")->Clear();
  GetTable("dm_europe_db", "orders_mv")->Clear();
  auto report = VerifyIntegration(scenario_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("marts hold"), std::string::npos);
}

TEST_F(VerifyFailureTest, DetectsEmptyWarehouse) {
  GetTable("dwh_db", "orders")->Clear();
  GetTable("dwh_db", "orders_mv")->Clear();
  auto report = VerifyIntegration(scenario_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("empty"), std::string::npos);
}

TEST_F(VerifyFailureTest, DetectsTamperedMartMv) {
  Table* mv = GetTable("dm_asia_db", "orders_mv");
  ASSERT_GT(mv->size(), 0u);
  auto updated = mv->UpdateWhere(
      [](const Row&) { return true; },
      [](Row* r) { (*r)[3] = Value::Double((*r)[3].AsDouble() + 1000.0); });
  ASSERT_TRUE(updated.ok());
  auto report = VerifyIntegration(scenario_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("dm_asia"), std::string::npos);
}

// --- Plan cache behavior ----------------------------------------------------

TEST(PlanCacheTest, CachedInstancesPayLessManagement) {
  Database db("d");
  ASSERT_TRUE(db.CreateTable("t", KvSchema()).ok());
  net::Network net;
  ASSERT_TRUE(net.AddEndpoint(std::make_unique<net::DatabaseEndpoint>(
                                  "d", &db, net::Channel(), 0.01))
                  .ok());
  core::ProcessDefinition def;
  def.id = "NOP";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m")};

  auto run = [&](bool cache) {
    core::DataflowEngine engine(&net);
    engine.EnablePlanCache(cache);
    EXPECT_TRUE(engine.Deploy(def).ok());
    auto doc = std::make_shared<xml::Node>("msg");
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(engine.Submit({"NOP", i * 100.0, doc, 0}).ok());
    }
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    return engine.records();
  };

  auto without = run(false);
  auto with = run(true);
  // First instance pays the same either way.
  EXPECT_DOUBLE_EQ(without[0].costs.cm_ms, with[0].costs.cm_ms);
  // Later instances pay less with the cache.
  for (size_t i = 1; i < with.size(); ++i) {
    EXPECT_LT(with[i].costs.cm_ms, without[i].costs.cm_ms);
  }
}

TEST(PlanCacheTest, ResetClearsCache) {
  Database db("d");
  net::Network net;
  ASSERT_TRUE(net.AddEndpoint(std::make_unique<net::DatabaseEndpoint>(
                                  "d", &db, net::Channel(), 0.01))
                  .ok());
  core::ProcessDefinition def;
  def.id = "NOP";
  def.event_type = core::EventType::kMessage;
  def.body = {core::Receive("m")};
  core::DataflowEngine engine(&net);
  engine.EnablePlanCache(true);
  ASSERT_TRUE(engine.Deploy(def).ok());
  auto doc = std::make_shared<xml::Node>("msg");
  ASSERT_TRUE(engine.Submit({"NOP", 0.0, doc, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  double first_cm = engine.records()[0].costs.cm_ms;
  engine.Reset();
  ASSERT_TRUE(engine.Submit({"NOP", 0.0, doc, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  // After Reset the plan must be re-instantiated at full cost.
  EXPECT_DOUBLE_EQ(engine.records()[0].costs.cm_ms, first_cm);
}

}  // namespace
}  // namespace dipbench
