#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/dipbench/client.h"
#include "src/dipbench/processes.h"
#include "src/dipbench/schedule.h"
#include "src/dipbench/schemas.h"

namespace dipbench {
namespace {

ScaleConfig SmallConfig() {
  ScaleConfig cfg;
  cfg.datasize = 0.02;
  cfg.time_scale = 1.0;
  cfg.distribution = Distribution::kUniform;
  cfg.periods = 2;
  cfg.seed = 42;
  return cfg;
}

TEST(ScenarioTest, CreatesAllSystems) {
  auto scenario = Scenario::Create();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  Scenario* s = scenario->get();
  // Eleven databases (Fig. 1): 2 Europe, 3 Asia (behind web services),
  // 4 America, CDB, DWH, 3 marts = 14 instances in our realization.
  EXPECT_EQ(s->DatabaseNames().size(), 14u);
  for (const char* ep :
       {Scenario::kBerlin, Scenario::kParis, Scenario::kTrondheim,
        Scenario::kBeijing, Scenario::kSeoul, Scenario::kHongkong,
        Scenario::kChicago, Scenario::kBaltimore, Scenario::kMadison,
        Scenario::kUsEastcoast, Scenario::kCdb, Scenario::kDwh,
        Scenario::kDmEurope, Scenario::kDmAsia, Scenario::kDmUnitedStates}) {
    EXPECT_TRUE(s->network()->Has(ep)) << ep;
  }
  EXPECT_TRUE(s->db("missing").status().IsNotFound());
}

TEST(ScheduleTest, TableIICounts) {
  // P01: floor((100-k)*d/5)+1.
  EXPECT_EQ(Schedule::InstanceCount("P01", 0, 0.05), 2);   // 1 + 1
  EXPECT_EQ(Schedule::InstanceCount("P01", 0, 0.5), 11);   // 10 + 1
  EXPECT_EQ(Schedule::InstanceCount("P01", 99, 0.5), 1);   // 0.1 -> 0, + 1
  // P02 is half of P01's volume.
  EXPECT_EQ(Schedule::InstanceCount("P02", 0, 0.5), 6);
  // Message streams scale linearly with d.
  EXPECT_EQ(Schedule::InstanceCount("P04", 7, 0.05), 56);   // 1100*0.05+1
  EXPECT_EQ(Schedule::InstanceCount("P08", 7, 0.05), 46);   // 900*0.05+1
  EXPECT_EQ(Schedule::InstanceCount("P10", 7, 0.05), 53);   // 1050*0.05+1
  // Time events execute once.
  EXPECT_EQ(Schedule::InstanceCount("P03", 7, 0.05), 1);
  EXPECT_EQ(Schedule::InstanceCount("P12", 7, 0.05), 1);
}

TEST(ScheduleTest, SeriesShapes) {
  auto p01 = Schedule::SeriesTu("P01", 0, 0.5);
  ASSERT_EQ(p01.size(), 11u);
  EXPECT_DOUBLE_EQ(p01[0], 0.0);
  EXPECT_DOUBLE_EQ(p01[1], 2.0);
  EXPECT_DOUBLE_EQ(p01.back(), 20.0);

  auto p02 = Schedule::SeriesTu("P02", 0, 0.5);
  EXPECT_DOUBLE_EQ(p02[0], 2.0);  // 2m with m starting at 1

  auto p08 = Schedule::SeriesTu("P08", 0, 0.1);
  EXPECT_DOUBLE_EQ(p08[0], 2000.0);
  EXPECT_DOUBLE_EQ(p08[1], 2003.0);

  auto p10 = Schedule::SeriesTu("P10", 0, 0.1);
  EXPECT_DOUBLE_EQ(p10[0], 3000.0);
  EXPECT_DOUBLE_EQ(p10[1], 3002.5);

  EXPECT_DOUBLE_EQ(Schedule::SeriesEndTu("P08", 0, 0.1), 2000.0 + 3.0 * 90);
}

TEST(ScheduleTest, DecreasingP01VolumeOverPeriods) {
  // Fig. 8 left: the number of P01 instances decreases with k.
  int prev = Schedule::InstanceCount("P01", 0, 1.0);
  for (int k = 20; k <= 99; k += 20) {
    int cur = Schedule::InstanceCount("P01", k, 1.0);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(ProcessesTest, AllFifteenDefined) {
  auto defs = BuildProcesses();
  ASSERT_EQ(defs.size(), 15u);
  int e1 = 0, e2 = 0;
  for (const auto& def : defs) {
    EXPECT_FALSE(def.body.empty()) << def.id;
    EXPECT_FALSE(def.description.empty()) << def.id;
    if (def.event_type == core::EventType::kMessage) {
      ++e1;
    } else {
      ++e2;
    }
  }
  // E1: P01, P02, P04, P08, P10. E2: the other ten.
  EXPECT_EQ(e1, 5);
  EXPECT_EQ(e2, 10);
  EXPECT_EQ(defs[0].id, "P01");
  EXPECT_EQ(defs[14].id, "P15");
  // Group assignment per Table I.
  EXPECT_EQ(defs[0].group, 'A');
  EXPECT_EQ(defs[3].group, 'B');
  EXPECT_EQ(defs[11].group, 'C');
  EXPECT_EQ(defs[13].group, 'D');
}

TEST(ProcessesTest, BuildProcessById) {
  auto p04 = BuildProcess("P04");
  ASSERT_TRUE(p04.ok());
  EXPECT_EQ(p04->id, "P04");
  EXPECT_TRUE(BuildProcess("P99").status().IsNotFound());
}

TEST(InitializerTest, SizesScaleWithDatasize) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  ScaleConfig small = SmallConfig();
  ScaleConfig large = SmallConfig();
  large.datasize = 0.2;
  Initializer init_small(scenario.get(), small);
  Initializer init_large(scenario.get(), large);
  EXPECT_LT(init_small.SizesForConfig().customers,
            init_large.SizesForConfig().customers);
  EXPECT_LT(init_small.SizesForConfig().orders_per_eu,
            init_large.SizesForConfig().orders_per_eu);
}

TEST(InitializerTest, SeedsSourceSystems) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), SmallConfig());
  ASSERT_TRUE(init.InitializePeriod(0).ok());
  EXPECT_GT((*scenario->db("eu_berlin_paris"))->TotalRows(), 0u);
  EXPECT_GT((*scenario->db("eu_trondheim"))->TotalRows(), 0u);
  EXPECT_GT((*scenario->db("asia_beijing"))->TotalRows(), 0u);
  EXPECT_GT((*scenario->db("us_chicago"))->TotalRows(), 0u);
  // CDB holds reference + consolidated master data.
  Database* cdb = *scenario->db("cdb_db");
  EXPECT_EQ((*cdb->GetTable("city"))->size(), 27u);
  EXPECT_EQ((*cdb->GetTable("region"))->size(), 3u);
  EXPECT_GT((*cdb->GetTable("customer"))->size(), 0u);
  // Targets start empty.
  EXPECT_EQ((*scenario->db("dwh_db"))->TotalRows(), 0u);
  EXPECT_EQ((*scenario->db("us_eastcoast_db"))->TotalRows(), 0u);
}

TEST(InitializerTest, ReinitializationIsDeterministic) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), SmallConfig());
  ASSERT_TRUE(init.InitializePeriod(3).ok());
  size_t rows_a = (*scenario->db("eu_berlin_paris"))->TotalRows();
  ASSERT_TRUE(init.InitializePeriod(3).ok());
  EXPECT_EQ((*scenario->db("eu_berlin_paris"))->TotalRows(), rows_a);
}

TEST(InitializerTest, SeoulOverlapsBeijing) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), SmallConfig());
  ASSERT_TRUE(init.InitializePeriod(0).ok());
  Table* beijing = *(*scenario->db("asia_beijing"))->GetTable("sales");
  Table* seoul = *(*scenario->db("asia_seoul"))->GetTable("sales");
  size_t shared = 0;
  seoul->ForEach([&](const Row& r) {
    if (beijing->ContainsKey({r[0]})) ++shared;
  });
  EXPECT_GT(shared, 0u);            // P09's UNION DISTINCT has real work
  EXPECT_LT(shared, seoul->size()); // but Seoul has its own data too
}

TEST(InitializerTest, MessagesConformToSchemas) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), SmallConfig());
  EXPECT_TRUE(schemas::BeijingCustomerXsd()
                  ->Validate(init.MakeBeijingCustomer(0, 1))
                  .ok());
  EXPECT_TRUE(
      schemas::MdmCustomerXsd()->Validate(init.MakeMdmCustomer(0, 1)).ok());
  EXPECT_TRUE(
      schemas::ViennaOrderXsd()->Validate(init.MakeViennaOrder(0, 1)).ok());
  EXPECT_TRUE(schemas::HongkongSalesXsd()
                  ->Validate(init.MakeHongkongSale(0, 1))
                  .ok());
}

TEST(InitializerTest, PriceTextMatchesPrintf) {
  // The emitters' draws: 5.0 + NextDoubleIn(0.0, 495.0).
  Rng rng(20080412);
  for (int i = 0; i < 1000000; ++i) {
    double price = 5.0 + rng.NextDoubleIn(0.0, 495.0);
    ASSERT_EQ(Initializer::FormatPrice(price), StrFormat("%.2f", price))
        << i;
  }
  // Exact binary ties at the third decimal round half to even in both.
  EXPECT_EQ(Initializer::FormatPrice(5.125), "5.12");
  EXPECT_EQ(Initializer::FormatPrice(5.375), "5.38");
  for (int whole = 5; whole < 500; ++whole) {
    for (double eighth : {0.125, 0.375, 0.625, 0.875}) {
      double price = whole + eighth;
      ASSERT_EQ(Initializer::FormatPrice(price), StrFormat("%.2f", price))
          << price;
    }
  }
}

TEST(InitializerTest, SanDiegoMessagesAreErrorProne) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  Initializer init(scenario.get(), SmallConfig());
  int bad = 0, good = 0;
  for (int m = 1; m <= 50; ++m) {
    auto msg = init.MakeSanDiegoOrder(0, m);
    if (schemas::SanDiegoOrderXsd()->Validate(msg).ok()) {
      ++good;
    } else {
      ++bad;
    }
  }
  EXPECT_GT(bad, 5);
  EXPECT_GT(good, 20);
}

/// Full-pipeline fixture: scenario + engine + deployed processes.
class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::move(Scenario::Create()).ValueOrDie();
    engine_ = std::make_unique<core::DataflowEngine>(scenario_->network());
    client_ = std::make_unique<Client>(scenario_.get(), engine_.get(),
                                       SmallConfig());
    ASSERT_TRUE(client_->DeployProcesses().ok());
    Initializer init(scenario_.get(), SmallConfig());
    ASSERT_TRUE(init.InitializePeriod(0).ok());
  }

  /// Runs one process instance and returns its record.
  core::InstanceRecord RunOne(const std::string& id,
                              std::shared_ptr<const xml::Node> msg = nullptr) {
    size_t before = engine_->records().size();
    core::ProcessEvent ev;
    ev.process_id = id;
    ev.when = engine_->Now() + 1;
    ev.message = std::move(msg);
    EXPECT_TRUE(engine_->Submit(std::move(ev)).ok());
    Status st = engine_->RunUntilIdle();
    EXPECT_TRUE(st.ok()) << id << ": " << st;
    EXPECT_EQ(engine_->records().size(), before + 1);
    return engine_->records().back();
  }

  Table* GetTable(const std::string& db, const std::string& table) {
    return *(*scenario_->db(db))->GetTable(table);
  }

  std::unique_ptr<Scenario> scenario_;
  std::unique_ptr<core::DataflowEngine> engine_;
  std::unique_ptr<Client> client_;
  Initializer initializer_{scenario_.get(), SmallConfig()};
};

TEST_F(PipelineTest, P01ExchangesMasterData) {
  auto msg = std::make_shared<const xml::Node>(
      initializer_.MakeBeijingCustomer(0, 1));
  size_t before = GetTable("asia_seoul", "customer")->size();
  auto rec = RunOne("P01", msg);
  EXPECT_TRUE(rec.ok);
  // Upsert: size stays or grows by one, and the updated name lands.
  EXPECT_GE(GetTable("asia_seoul", "customer")->size(), before);
  EXPECT_GT(rec.costs.cc_ms, 0.0);
}

TEST_F(PipelineTest, P02RoutesToEurope) {
  auto rec = RunOne("P02", std::make_shared<const xml::Node>(
                               initializer_.MakeMdmCustomer(0, 1)));
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.quality.rows_loaded, 1u);
}

TEST_F(PipelineTest, P03ConsolidatesAmerica) {
  auto rec = RunOne("P03");
  EXPECT_TRUE(rec.ok);
  Table* orders = GetTable("us_eastcoast_db", "orders");
  EXPECT_GT(orders->size(), 0u);
  // Master data deduplicated across the three sources.
  EXPECT_GT(rec.quality.duplicates_eliminated, 0u);
  Table* customers = GetTable("us_eastcoast_db", "customer");
  Table* chicago_cust = GetTable("us_chicago", "customer");
  EXPECT_EQ(customers->size(), chicago_cust->size());  // 3 identical copies
}

TEST_F(PipelineTest, P04LoadsViennaOrders) {
  size_t before = GetTable("cdb_db", "orders")->size();
  auto rec = RunOne("P04", std::make_shared<const xml::Node>(
                               initializer_.MakeViennaOrder(0, 2)));
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(GetTable("cdb_db", "orders")->size(), before);
  EXPECT_GT(rec.quality.rows_loaded, 0u);
}

TEST_F(PipelineTest, P05ThroughP07LoadEuropeMovement) {
  size_t before = GetTable("cdb_db", "orders")->size();
  EXPECT_TRUE(RunOne("P05").ok);
  size_t after_berlin = GetTable("cdb_db", "orders")->size();
  EXPECT_GT(after_berlin, before);
  EXPECT_TRUE(RunOne("P06").ok);
  EXPECT_TRUE(RunOne("P07").ok);
  EXPECT_GT(GetTable("cdb_db", "orders")->size(), after_berlin);
}

TEST_F(PipelineTest, P08LoadsHongkongSale) {
  size_t before = GetTable("cdb_db", "orders")->size();
  auto rec = RunOne("P08", std::make_shared<const xml::Node>(
                               initializer_.MakeHongkongSale(0, 3)));
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(GetTable("cdb_db", "orders")->size(), before + 1);
}

TEST_F(PipelineTest, P09UnionsBeijingAndSeoul) {
  size_t before = GetTable("cdb_db", "orders")->size();
  auto rec = RunOne("P09");
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(rec.quality.duplicates_eliminated, 0u);  // the shared rows
  size_t loaded = GetTable("cdb_db", "orders")->size() - before;
  size_t beijing = GetTable("asia_beijing", "sales")->size();
  size_t seoul = GetTable("asia_seoul", "sales")->size();
  EXPECT_LT(loaded, beijing + seoul);  // duplicates eliminated
  EXPECT_GT(loaded, 0u);
}

TEST_F(PipelineTest, P10SeparatesFailedMessages) {
  size_t failed_before = GetTable("cdb_db", "failed_data")->size();
  size_t orders_before = GetTable("cdb_db", "orders")->size();
  int rejected = 0;
  for (int m = 1; m <= 10; ++m) {
    auto rec = RunOne("P10", std::make_shared<const xml::Node>(
                                 initializer_.MakeSanDiegoOrder(0, m)));
    EXPECT_TRUE(rec.ok);
    rejected += static_cast<int>(rec.quality.messages_rejected);
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(GetTable("cdb_db", "failed_data")->size(),
            failed_before + rejected);
  EXPECT_GT(GetTable("cdb_db", "orders")->size(), orders_before);
}

TEST_F(PipelineTest, P11MovesEastcoastToCdb) {
  ASSERT_TRUE(RunOne("P03").ok);  // fill us_eastcoast first
  size_t before = GetTable("cdb_db", "orders")->size();
  auto rec = RunOne("P11");
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(GetTable("cdb_db", "orders")->size(), before);
}

TEST_F(PipelineTest, P12LoadsMasterIntoDwh) {
  auto rec = RunOne("P12");
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(GetTable("dwh_db", "customer")->size(), 0u);
  EXPECT_GT(GetTable("dwh_db", "product")->size(), 0u);
  EXPECT_EQ(GetTable("dwh_db", "city")->size(), 27u);
  // Master data flagged as integrated but not removed.
  size_t integrated = 0;
  GetTable("cdb_db", "customer")->ForEach([&](const Row& r) {
    if (r[5].AsBool()) ++integrated;
  });
  EXPECT_GT(integrated, 0u);
  // A second P12 run has no new master data to move.
  size_t dwh_cust = GetTable("dwh_db", "customer")->size();
  EXPECT_TRUE(RunOne("P12").ok);
  EXPECT_EQ(GetTable("dwh_db", "customer")->size(), dwh_cust);
}

TEST_F(PipelineTest, P13LoadsMovementAndRefreshesMv) {
  ASSERT_TRUE(RunOne("P05").ok);  // some movement into the CDB
  ASSERT_TRUE(RunOne("P12").ok);  // master first
  auto rec = RunOne("P13");
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(GetTable("dwh_db", "orders")->size(), 0u);
  EXPECT_GT(GetTable("dwh_db", "orders_mv")->size(), 0u);
  // Clean movement removed from the CDB (delta semantics).
  size_t clean_left = 0;
  GetTable("cdb_db", "orders")->ForEach([&](const Row& r) {
    if (!r[9].AsBool()) ++clean_left;
  });
  EXPECT_EQ(clean_left, 0u);
}

TEST_F(PipelineTest, P14PartitionsIntoMarts) {
  ASSERT_TRUE(RunOne("P05").ok);
  ASSERT_TRUE(RunOne("P09").ok);  // asia movement too
  ASSERT_TRUE(RunOne("P12").ok);
  ASSERT_TRUE(RunOne("P13").ok);
  auto rec = RunOne("P14");
  EXPECT_TRUE(rec.ok);
  size_t total_mart_orders = GetTable("dm_europe_db", "orders")->size() +
                             GetTable("dm_asia_db", "orders")->size() +
                             GetTable("dm_united_states_db", "orders")->size();
  EXPECT_GT(total_mart_orders, 0u);
  EXPECT_LE(total_mart_orders, GetTable("dwh_db", "orders")->size());
  // Denormalization shapes: dm_europe carries city names on customers.
  EXPECT_TRUE(GetTable("dm_europe_db", "customer")
                  ->schema()
                  .HasColumn("region"));
  EXPECT_TRUE(GetTable("dm_asia_db", "customer")
                  ->schema()
                  .HasColumn("citykey"));
}

TEST_F(PipelineTest, P15RefreshesMartMvs) {
  ASSERT_TRUE(RunOne("P05").ok);
  ASSERT_TRUE(RunOne("P12").ok);
  ASSERT_TRUE(RunOne("P13").ok);
  ASSERT_TRUE(RunOne("P14").ok);
  auto rec = RunOne("P15");
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(GetTable("dm_europe_db", "orders_mv")->size() +
                GetTable("dm_asia_db", "orders_mv")->size() +
                GetTable("dm_united_states_db", "orders_mv")->size(),
            0u);
}

TEST(ClientTest, FullRunOnDataflowEngine) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  core::DataflowEngine engine(scenario->network());
  Client client(scenario.get(), &engine, SmallConfig());
  auto result = client.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->engine_name, "dataflow");
  EXPECT_EQ(result->per_process.size(), 15u);
  for (const auto& m : result->per_process) {
    EXPECT_GT(m.instances, 0) << m.process_id;
    EXPECT_EQ(m.errors, 0) << m.process_id;
    EXPECT_GT(m.navg_plus_tu, 0.0) << m.process_id;
    EXPECT_GE(m.navg_plus_tu, m.navg_tu) << m.process_id;
  }
  EXPECT_GT(result->verification.dwh_orders, 0u);
  EXPECT_GT(result->virtual_ms, 0.0);
  // Plot and CSV render without blowing up.
  EXPECT_NE(result->RenderPlot().find("P04"), std::string::npos);
  EXPECT_NE(Monitor::ToCsv(result->per_process).find("P14"),
            std::string::npos);
}

TEST(ClientTest, FullRunOnFederatedEngine) {
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  core::FederatedEngine engine(scenario->network());
  Client client(scenario.get(), &engine, SmallConfig());
  auto result = client.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->engine_name, "federated");
  EXPECT_EQ(result->per_process.size(), 15u);
  // Queue tables exist for the five E1 process types.
  for (const char* id : {"P01", "P02", "P04", "P08", "P10"}) {
    EXPECT_TRUE(engine.engine_db()->HasTable(std::string(id) + "_queue"))
        << id;
  }
}

TEST(ClientTest, DataIntensiveTypesCostMoreThanMessageTypes) {
  // The headline shape of paper Fig. 10: serialized data-intensive process
  // types (P12-P15) have far higher NAVG+ than the concurrent message
  // types (P01, P02, P04, P08, P10).
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  core::DataflowEngine engine(scenario->network());
  ScaleConfig cfg = SmallConfig();
  cfg.datasize = 0.05;
  cfg.periods = 3;
  Client client(scenario.get(), &engine, cfg);
  auto result = client.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  double msg_max = 0, bulk_min = 1e18;
  for (const char* id : {"P01", "P02", "P04", "P08", "P10"}) {
    msg_max = std::max(msg_max, result->NavgPlus(id));
  }
  for (const char* id : {"P12", "P13", "P14"}) {
    bulk_min = std::min(bulk_min, result->NavgPlus(id));
  }
  EXPECT_GT(bulk_min, msg_max);
}

TEST(ClientTest, DeterministicAcrossRuns) {
  auto run = []() {
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    core::DataflowEngine engine(scenario->network());
    Client client(scenario.get(), &engine, SmallConfig());
    auto result = client.Run();
    EXPECT_TRUE(result.ok());
    double total = 0;
    for (const auto& m : result->per_process) total += m.navg_plus_tu;
    return total;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace dipbench
