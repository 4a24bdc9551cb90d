// Tests for the toolsuite features: Monitor aggregation/plot/gnuplot
// output, per-period series, the Initializer's XML export, and the
// functional equivalence of the three engine realizations (identical
// integrated data, different costs).

#include <gtest/gtest.h>

#include "src/dipbench/client.h"
#include "src/dipbench/monitor.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace {

ScaleConfig TinyConfig() {
  ScaleConfig cfg;
  cfg.datasize = 0.02;
  cfg.periods = 2;
  cfg.seed = 7;
  return cfg;
}

core::InstanceRecord MakeRecord(const std::string& id, int period,
                                double start, double dur, double cc,
                                double cm, double cp) {
  core::InstanceRecord rec;
  rec.process_id = id;
  rec.period = period;
  rec.submit_time = start;
  rec.start_time = start;
  rec.end_time = start + dur;
  rec.costs.cc_ms = cc;
  rec.costs.cm_ms = cm;
  rec.costs.cp_ms = cp;
  return rec;
}

TEST(MonitorTest, SummarizeComputesNavgPlus) {
  ScaleConfig cfg;
  cfg.time_scale = 1.0;
  Monitor monitor(cfg);
  monitor.Collect({MakeRecord("P01", 0, 0, 10, 1, 2, 3),    // total 6
                   MakeRecord("P01", 0, 20, 10, 2, 4, 6),   // total 12
                   MakeRecord("P02", 1, 40, 5, 5, 0, 0)});  // total 5
  auto metrics = monitor.Summarize();
  ASSERT_EQ(metrics.size(), 2u);
  const ProcessMetrics& p01 = metrics[0];
  EXPECT_EQ(p01.process_id, "P01");
  EXPECT_EQ(p01.instances, 2);
  EXPECT_DOUBLE_EQ(p01.navg_tu, 9.0);
  EXPECT_DOUBLE_EQ(p01.stddev_tu, 3.0);
  EXPECT_DOUBLE_EQ(p01.navg_plus_tu, 12.0);
  EXPECT_DOUBLE_EQ(p01.avg_cc_tu, 1.5);
  EXPECT_DOUBLE_EQ(p01.avg_cm_tu, 3.0);
  EXPECT_DOUBLE_EQ(p01.avg_cp_tu, 4.5);
  // Non-overlapping instances -> concurrency 1.0.
  EXPECT_DOUBLE_EQ(p01.avg_concurrency, 1.0);
}

TEST(MonitorTest, TimeScaleConvertsToTu) {
  ScaleConfig cfg;
  cfg.time_scale = 2.0;  // 1 tu = 0.5 ms -> 6 ms == 12 tu
  Monitor monitor(cfg);
  monitor.Collect({MakeRecord("P01", 0, 0, 10, 1, 2, 3)});
  auto metrics = monitor.Summarize();
  EXPECT_DOUBLE_EQ(metrics[0].navg_tu, 12.0);
}

TEST(MonitorTest, ConcurrencyDetectsOverlap) {
  ScaleConfig cfg;
  Monitor monitor(cfg);
  // Two fully overlapping instances.
  monitor.Collect({MakeRecord("P04", 0, 0, 10, 1, 1, 1),
                   MakeRecord("P04", 0, 0, 10, 1, 1, 1)});
  auto metrics = monitor.Summarize();
  EXPECT_DOUBLE_EQ(metrics[0].avg_concurrency, 2.0);
}

TEST(MonitorTest, PlotAndCsvAndGnuplotRender) {
  ScaleConfig cfg;
  Monitor monitor(cfg);
  monitor.Collect({MakeRecord("P01", 0, 0, 10, 1, 2, 3),
                   MakeRecord("P14", 0, 20, 100, 10, 20, 70)});
  auto metrics = monitor.Summarize();
  std::string plot = Monitor::RenderPlot(metrics, cfg);
  EXPECT_NE(plot.find("P14"), std::string::npos);
  EXPECT_NE(plot.find("sfDatasize"), std::string::npos);
  std::string csv = Monitor::ToCsv(metrics);
  EXPECT_NE(csv.find("P01,1,0,"), std::string::npos);
  std::string gp = Monitor::ToGnuplot(metrics, cfg);
  EXPECT_NE(gp.find("plot '-'"), std::string::npos);
  EXPECT_NE(gp.find("P14 100.000"), std::string::npos);
}

TEST(MonitorTest, SummarizeByPeriodSeries) {
  ScaleConfig cfg;
  Monitor monitor(cfg);
  monitor.Collect({MakeRecord("P01", 0, 0, 1, 1, 1, 1),
                   MakeRecord("P01", 0, 5, 1, 3, 3, 3),
                   MakeRecord("P01", 1, 50, 1, 10, 10, 10),
                   MakeRecord("P02", 0, 9, 1, 1, 1, 1)});
  auto series = monitor.SummarizeByPeriod("P01");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].period, 0);
  EXPECT_EQ(series[0].instances, 2);
  EXPECT_DOUBLE_EQ(series[0].navg_tu, 6.0);  // (3 + 9) / 2
  EXPECT_EQ(series[1].period, 1);
  EXPECT_DOUBLE_EQ(series[1].navg_tu, 30.0);
  EXPECT_TRUE(monitor.SummarizeByPeriod("P99").empty());
}

TEST(InitializerTest, ExportsSourceDataAsXml) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), TinyConfig());
  ASSERT_TRUE(init.InitializePeriod(0).ok());
  net::FileStore store;
  ASSERT_TRUE(init.ExportSourceData(&store).ok());
  // 8 source systems x several tables each.
  EXPECT_GE(store.size(), 8u * 3u);
  ASSERT_TRUE(store.Exists("eu_berlin_paris.auftrag.xml"));
  auto doc = xml::ParseXml(*store.Read("eu_berlin_paris.auftrag.xml"));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->name(), "resultset");
  size_t rows = doc->FindChildren("row").size();
  Table* auftrag = *(*scenario->db("eu_berlin_paris"))->GetTable("auftrag");
  EXPECT_EQ(rows, auftrag->size());
}

/// All three engine realizations must integrate the SAME data — only their
/// costs differ. This is the strongest functional test of the benchmark:
/// the platform-independent process definitions are realization-agnostic.
TEST(EngineEquivalenceTest, AllEnginesProduceIdenticalWarehouseContent) {
  struct RunResult {
    size_t dwh_orders;
    size_t dwh_customers;
    double dwh_revenue;
    size_t mart_orders;
    size_t failed;
  };
  auto run = [](int which) -> RunResult {
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    std::unique_ptr<core::IntegrationSystem> engine;
    switch (which) {
      case 0:
        engine =
            std::make_unique<core::DataflowEngine>(scenario->network());
        break;
      case 1:
        engine =
            std::make_unique<core::FederatedEngine>(scenario->network());
        break;
      default:
        engine = std::make_unique<core::EaiEngine>(scenario->network());
        break;
    }
    Client client(scenario.get(), engine.get(), TinyConfig());
    auto result = client.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    RunResult rr{};
    rr.dwh_orders = result->verification.dwh_orders;
    rr.dwh_revenue = result->verification.dwh_revenue;
    rr.mart_orders = result->verification.mart_orders_total;
    rr.failed = result->verification.failed_messages;
    rr.dwh_customers =
        (*(*scenario->db("dwh_db"))->GetTable("customer"))->size();
    return rr;
  };
  RunResult dataflow = run(0);
  RunResult federated = run(1);
  RunResult eai = run(2);
  EXPECT_EQ(dataflow.dwh_orders, federated.dwh_orders);
  EXPECT_EQ(dataflow.dwh_orders, eai.dwh_orders);
  EXPECT_EQ(dataflow.dwh_customers, federated.dwh_customers);
  EXPECT_EQ(dataflow.dwh_customers, eai.dwh_customers);
  EXPECT_DOUBLE_EQ(dataflow.dwh_revenue, federated.dwh_revenue);
  EXPECT_DOUBLE_EQ(dataflow.dwh_revenue, eai.dwh_revenue);
  EXPECT_EQ(dataflow.mart_orders, federated.mart_orders);
  EXPECT_EQ(dataflow.failed, federated.failed);
  EXPECT_EQ(dataflow.failed, eai.failed);
}

TEST(EngineEquivalenceTest, EaiFullRunHasCheaperMessageTypes) {
  auto run_navg = [](bool eai, const char* id) {
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    std::unique_ptr<core::IntegrationSystem> engine;
    if (eai) {
      engine = std::make_unique<core::EaiEngine>(scenario->network());
    } else {
      engine =
          std::make_unique<core::FederatedEngine>(scenario->network());
    }
    Client client(scenario.get(), engine.get(), TinyConfig());
    auto result = client.Run();
    EXPECT_TRUE(result.ok());
    return result->NavgPlus(id);
  };
  // XML message type: EAI beats the federated DBMS.
  EXPECT_LT(run_navg(true, "P08"), run_navg(false, "P08"));
  // Bulk relational type: the federated DBMS beats the EAI server.
  EXPECT_GT(run_navg(true, "P13"), run_navg(false, "P13"));
}

}  // namespace
}  // namespace dipbench
