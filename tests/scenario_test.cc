#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/dipbench/config.h"
#include "src/dipbench/processes.h"
#include "src/dipbench/schedule.h"
#include "src/harness/harness.h"
#include "src/net/fault.h"
#include "src/scenario/manager.h"
#include "src/scenario/manifest.h"

namespace dipbench {
namespace {

using scenario::ScenarioManifest;
using scenario::ScenarioManager;

// ---------------------------------------------------------------------------
// TrafficShape units

TEST(TrafficShapeTest, SteadyIsAConstantMultiplier) {
  TrafficShape shape;
  shape.scale = 1.5;
  for (int k = 0; k < 5; ++k) {
    EXPECT_DOUBLE_EQ(shape.MultiplierFor("A", k, 5, 7), 1.5);
  }
  EXPECT_TRUE(shape.enabled());
  EXPECT_FALSE(TrafficShape{}.enabled());
}

TEST(TrafficShapeTest, FlashSaleSpikesTheMiddlePeriodWithShoulders) {
  TrafficShape shape;
  shape.kind = TrafficShape::Kind::kFlashSale;
  shape.amplitude = 3.0;
  // periods = 10, default spike period = 5.
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 5, 10, 7), 3.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 4, 10, 7), 2.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 6, 10, 7), 2.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 0, 10, 7), 1.0);
  shape.spike_period = 1;
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 1, 10, 7), 3.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 5, 10, 7), 1.0);
}

TEST(TrafficShapeTest, RampInterpolatesLinearly) {
  TrafficShape shape;
  shape.kind = TrafficShape::Kind::kRamp;
  shape.ramp_to = 3.0;
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("A", 0, 5, 7), 1.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("A", 2, 5, 7), 2.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("A", 4, 5, 7), 3.0);
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("A", 0, 1, 7), 3.0);
}

TEST(TrafficShapeTest, BurstDrawIsAPureFunctionOfSeedStreamPeriod) {
  TrafficShape shape;
  shape.kind = TrafficShape::Kind::kBurst;
  shape.amplitude = 4.0;
  shape.burst_probability = 0.5;
  for (int k = 0; k < 8; ++k) {
    double first = shape.MultiplierFor("B", k, 8, 20080412);
    EXPECT_DOUBLE_EQ(first, shape.MultiplierFor("B", k, 8, 20080412));
    EXPECT_TRUE(first == 1.0 || first == 4.0);
  }
  // Guaranteed burst / guaranteed calm at the probability extremes.
  shape.burst_probability = 1.0;
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 3, 8, 1), 4.0);
  shape.burst_probability = 0.0;
  EXPECT_DOUBLE_EQ(shape.MultiplierFor("B", 3, 8, 1), 1.0);
}

// ---------------------------------------------------------------------------
// ShapedSeriesTu

TEST(ShapedSeriesTest, NoTrafficShapeReproducesTableTwoExactly) {
  ScaleConfig config;
  for (const char* id : {"P01", "P02", "P04", "P08", "P10"}) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(Schedule::ShapedSeriesTu(id, k, config),
                Schedule::SeriesTu(id, k, config.datasize))
          << id << " period " << k;
    }
  }
}

TEST(ShapedSeriesTest, ScaleMultipliesTheInstanceCount) {
  ScaleConfig config;
  config.traffic["B"].scale = 2.0;
  int n = Schedule::InstanceCount("P04", 0, config.datasize);
  EXPECT_EQ(Schedule::ShapedSeriesTu("P04", 0, config).size(),
            static_cast<size_t>(2 * n));
  // Stream A is untouched.
  EXPECT_EQ(Schedule::ShapedSeriesTu("P01", 0, config),
            Schedule::SeriesTu("P01", 0, config.datasize));
}

TEST(ShapedSeriesTest, LateWindowShiftsInstancesByTheDelay) {
  ScaleConfig config;
  config.traffic["A"].late_fraction = 1.0;  // everyone is late
  config.traffic["A"].late_delay_tu = 50.0;
  std::vector<double> base = Schedule::SeriesTu("P01", 0, config.datasize);
  std::vector<double> late = Schedule::ShapedSeriesTu("P01", 0, config);
  ASSERT_EQ(base.size(), late.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(late[i], base[i] + 50.0);
  }
}

TEST(ShapedSeriesTest, StreamsMapToTheRightProcesses) {
  EXPECT_STREQ(Schedule::StreamOf("P01"), "A");
  EXPECT_STREQ(Schedule::StreamOf("P03"), "A");
  EXPECT_STREQ(Schedule::StreamOf("P08"), "B");
  EXPECT_STREQ(Schedule::StreamOf("P11"), "B");
  EXPECT_STREQ(Schedule::StreamOf("P12"), "C");
  EXPECT_STREQ(Schedule::StreamOf("P15"), "D");
  EXPECT_STREQ(Schedule::StreamOf("P99"), "");
}

// ---------------------------------------------------------------------------
// Fault composition

TEST(FaultPhaseTest, ErrorRateAtFollowsTheActivePhase) {
  net::FaultProfile profile;
  profile.error_rate = 0.1;
  profile.phases.push_back(net::FaultPhase{10, 5, 0.5});
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(9), 0.1);
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(10), 0.5);
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(14), 0.5);
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(15), 0.1);
  // Later phases win on overlap.
  profile.phases.push_back(net::FaultPhase{12, 2, 0.9});
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(13), 0.9);
  EXPECT_DOUBLE_EQ(profile.ErrorRateAt(14), 0.5);
}

TEST(CompileFaultPlanTest, EndpointOutageLandsOnItsProfileOnly) {
  ScaleConfig config;
  config.outages.push_back(OutageWindow{"blackout", "hongkong", 60, 40});
  net::FaultPlan plan = net::FaultPlan::Uniform(0.01);
  ASSERT_TRUE(config.CompileFaultPlan(&plan).ok());
  ASSERT_EQ(plan.per_endpoint.count("hongkong"), 1u);
  EXPECT_EQ(plan.per_endpoint.at("hongkong").outage_after_calls, 60u);
  EXPECT_EQ(plan.per_endpoint.at("hongkong").outage_calls, 40u);
  // Seeded from the defaults' base rates.
  EXPECT_DOUBLE_EQ(plan.per_endpoint.at("hongkong").error_rate, 0.01);
  EXPECT_EQ(plan.defaults.outage_calls, 0u);
}

TEST(CompileFaultPlanTest, TwoOutagesOnOneProfileAreRejected) {
  ScaleConfig config;
  config.outages.push_back(OutageWindow{"first", "cdb", 0, 10});
  config.outages.push_back(OutageWindow{"second", "cdb", 50, 10});
  net::FaultPlan plan;
  Status st = config.CompileFaultPlan(&plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("second"), std::string::npos);
  EXPECT_NE(st.message().find("already has an outage window"),
            std::string::npos);
}

TEST(CompileFaultPlanTest, DefaultScopedPhaseDoesNotLeakIntoOverrides) {
  ScaleConfig config;
  config.error_phases.push_back(ErrorPhaseSpec{"brownout", "", 0, 100, 0.3});
  config.outages.push_back(OutageWindow{"blackout", "dwh", 10, 5});
  net::FaultPlan plan;
  ASSERT_TRUE(config.CompileFaultPlan(&plan).ok());
  // The default profile got the phase; the dwh override was seeded from
  // the base snapshot (no phases), because FaultPlan lookup is either/or.
  EXPECT_EQ(plan.defaults.phases.size(), 1u);
  EXPECT_TRUE(plan.per_endpoint.at("dwh").phases.empty());
}

// ---------------------------------------------------------------------------
// Manifest parsing

constexpr char kFullManifest[] = R"({
  "name": "everything",
  "description": "exercises every schema corner",
  "engines": ["federated", "dataflow"],
  "config": {
    "datasize": 0.1,
    "time_scale": 2.0,
    "distribution": "zipf",
    "error_rate": 0.08,
    "periods": 4,
    "seed": 99,
    "worker_slots": 2,
    "retry_max_attempts": 4,
    "retry_backoff_tu": 1.5,
    "retry_dead_letter": true
  },
  "traffic": {
    "A": {"shape": "ramp", "ramp_to": 2.0},
    "B": {"shape": "burst", "amplitude": 3.0, "burst_probability": 0.25,
          "late_fraction": 0.1, "late_delay_tu": 25.0}
  },
  "faults": {
    "outages": [{"name": "o1", "endpoint": "hongkong", "after_calls": 6,
                 "calls": 12}],
    "phases": [{"name": "p1", "after_calls": 100, "calls": 50,
                "error_rate": 0.2}]
  },
  "dirtiness": {"us_madison": 0.5},
  "sweep": {"field": "time_scale", "values": [1, 2]}
})";

TEST(ManifestTest, RoundTripsEveryField) {
  auto m = ScenarioManifest::FromJsonText(kFullManifest, "<test>");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->name, "everything");
  EXPECT_EQ(m->engines, (std::vector<std::string>{"federated", "dataflow"}));
  EXPECT_DOUBLE_EQ(m->config.datasize, 0.1);
  EXPECT_EQ(m->config.distribution, Distribution::kZipf);
  EXPECT_EQ(m->config.periods, 4);
  EXPECT_EQ(m->config.seed, 99u);
  EXPECT_EQ(m->config.retry_max_attempts, 4);
  ASSERT_EQ(m->config.traffic.count("A"), 1u);
  EXPECT_EQ(m->config.traffic.at("A").kind, TrafficShape::Kind::kRamp);
  EXPECT_DOUBLE_EQ(m->config.traffic.at("B").late_delay_tu, 25.0);
  ASSERT_EQ(m->config.outages.size(), 1u);
  EXPECT_EQ(m->config.outages[0].endpoint, "hongkong");
  ASSERT_EQ(m->config.error_phases.size(), 1u);
  EXPECT_EQ(m->config.error_phases[0].endpoint, "");
  EXPECT_DOUBLE_EQ(m->config.ErrorRateFor("us_madison"), 0.5);
  EXPECT_DOUBLE_EQ(m->config.ErrorRateFor("cdb_db"), 0.08);
  EXPECT_EQ(m->sweep_field, "time_scale");
  EXPECT_EQ(m->sweep_values, (std::vector<double>{1.0, 2.0}));
}

TEST(ManifestTest, ExpandCrossesEnginesWithSweepValues) {
  auto m = ScenarioManifest::FromJsonText(kFullManifest, "<test>");
  ASSERT_TRUE(m.ok());
  std::vector<harness::RunSpec> specs = m->Expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].label, "everything/federated time_scale=1");
  EXPECT_EQ(specs[0].engine, "federated");
  EXPECT_DOUBLE_EQ(specs[0].config.time_scale, 1.0);
  EXPECT_EQ(specs[1].label, "everything/federated time_scale=2");
  EXPECT_EQ(specs[3].label, "everything/dataflow time_scale=2");
  EXPECT_EQ(specs[3].engine, "dataflow");
  // Everything else carries over untouched.
  EXPECT_DOUBLE_EQ(specs[3].config.datasize, 0.1);
  EXPECT_EQ(specs[3].config.outages.size(), 1u);
}

TEST(ManifestTest, UnknownKeysAreRejectedWithPosition) {
  auto m = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n \"confg\": {}}", "bad.json");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("bad.json"), std::string::npos);
  EXPECT_NE(m.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(m.status().message().find("unknown manifest key 'confg'"),
            std::string::npos)
      << m.status().ToString();
}

TEST(ManifestTest, RejectsSchemaViolations) {
  // Missing name.
  EXPECT_FALSE(ScenarioManifest::FromJsonText("{}", "<t>").ok());
  // Unknown engine.
  EXPECT_FALSE(ScenarioManifest::FromJsonText(
                   R"({"name": "x", "engine": "quantum"})", "<t>")
                   .ok());
  // Stream C cannot be shaped.
  EXPECT_FALSE(ScenarioManifest::FromJsonText(
                   R"({"name": "x", "traffic": {"C": {}}})", "<t>")
                   .ok());
  // Probability out of range.
  EXPECT_FALSE(ScenarioManifest::FromJsonText(
                   R"({"name": "x", "config": {"error_rate": 1.5}})", "<t>")
                   .ok());
  // Non-integer periods.
  EXPECT_FALSE(ScenarioManifest::FromJsonText(
                   R"({"name": "x", "config": {"periods": 2.5}})", "<t>")
                   .ok());
  // Outage without calls.
  EXPECT_FALSE(
      ScenarioManifest::FromJsonText(
          R"({"name": "x", "faults": {"outages": [{"name": "o"}]}})", "<t>")
          .ok());
  // Unknown sweep field.
  auto bad_sweep = ScenarioManifest::FromJsonText(
      R"({"name": "x", "sweep": {"field": "warp", "values": [1]}})", "<t>");
  ASSERT_FALSE(bad_sweep.ok());
  EXPECT_NE(bad_sweep.status().message().find("unknown sweep field"),
            std::string::npos);
  // Two outage windows on one endpoint fail at load, not at run.
  auto double_outage = ScenarioManifest::FromJsonText(
      R"({"name": "x", "faults": {"outages": [
            {"name": "a", "endpoint": "cdb", "calls": 5},
            {"name": "b", "endpoint": "cdb", "calls": 5}]}})",
      "<t>");
  ASSERT_FALSE(double_outage.ok());
  EXPECT_NE(double_outage.status().message().find("already has an outage"),
            std::string::npos);
}

TEST(ManifestTest, WorkerSlotsAreBounded) {
  auto config = [](int slots) {
    return ScenarioManifest::FromJsonText(
        "{\"name\": \"x\",\n \"config\": {\"worker_slots\": " +
            std::to_string(slots) + "}}",
        "slots.json");
  };
  auto at_limit = config(kMaxWorkerSlots);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->config.worker_slots, 1024);
  auto past_limit = config(kMaxWorkerSlots + 1);
  ASSERT_FALSE(past_limit.ok());
  EXPECT_NE(past_limit.status().message().find("line 2"), std::string::npos)
      << past_limit.status().ToString();
  EXPECT_NE(past_limit.status().message().find("[1, 1024]"),
            std::string::npos)
      << past_limit.status().ToString();

  auto sweep = [](int slots) {
    return ScenarioManifest::FromJsonText(
        "{\"name\": \"x\", \"sweep\": {\"field\": \"worker_slots\", "
        "\"values\": [1, " +
            std::to_string(slots) + "]}}",
        "<t>");
  };
  auto sweep_at_limit = sweep(1024);
  ASSERT_TRUE(sweep_at_limit.ok()) << sweep_at_limit.status().ToString();
  EXPECT_EQ(sweep_at_limit->Expand().back().config.worker_slots, 1024);
  auto sweep_past_limit = sweep(1025);
  ASSERT_FALSE(sweep_past_limit.ok());
  EXPECT_NE(sweep_past_limit.status().message().find("column"),
            std::string::npos)
      << sweep_past_limit.status().ToString();
}

TEST(ManifestTest, RetryAttemptsAreBounded) {
  auto config = [](int attempts) {
    return ScenarioManifest::FromJsonText(
        "{\"name\": \"x\",\n \"config\": {\"retry_max_attempts\": " +
            std::to_string(attempts) + "}}",
        "retry.json");
  };
  auto at_limit = config(kMaxRetryAttempts);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->config.retry_max_attempts, 64);
  for (int bad : {kMaxRetryAttempts + 1, 0}) {
    auto rejected = config(bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.status().message().find("line 2"), std::string::npos)
        << rejected.status().ToString();
    EXPECT_NE(rejected.status().message().find("[1, 64]"), std::string::npos)
        << rejected.status().ToString();
  }
}

TEST(ManifestTest, RetiredWorkersKeyAcceptsOnlyOne) {
  // A run executes on one thread: `workers` reads only its old default, 1,
  // and is no longer a sweep field.
  EXPECT_TRUE(ScenarioManifest::FromJsonText(
                  R"({"name": "x", "config": {"workers": 1}})", "<t>")
                  .ok());
  auto workers = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n \"config\": {\"workers\": 4}}", "<t>");
  ASSERT_FALSE(workers.ok());
  EXPECT_NE(workers.status().message().find("line 2"), std::string::npos)
      << workers.status().ToString();
  EXPECT_NE(workers.status().message().find("--jobs"), std::string::npos)
      << workers.status().ToString();
  auto sweep = ScenarioManifest::FromJsonText(
      R"({"name": "x", "sweep": {"field": "workers", "values": [1]}})",
      "<t>");
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("unknown sweep field"),
            std::string::npos)
      << sweep.status().ToString();
}

TEST(ManifestTest, RetiredRealizationKeyAcceptsOnlyFull) {
  // The process types have one realization: `realization` reads only
  // "full", the value the perfbench workloads spell out.
  EXPECT_TRUE(ScenarioManifest::FromJsonText(
                  R"({"name": "x", "config": {"realization": "full"}})",
                  "<t>")
                  .ok());
  auto incremental = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n \"config\": {\"realization\": \"incremental\"}}",
      "<t>");
  ASSERT_FALSE(incremental.ok());
  EXPECT_NE(incremental.status().message().find("line 2"), std::string::npos)
      << incremental.status().ToString();
  EXPECT_NE(incremental.status().message().find("'realization' must be"),
            std::string::npos)
      << incremental.status().ToString();
}

// The benchmark's workloads load through the strict reader: a key retired
// here must keep accepting the value they carry.
TEST(ManifestTest, PerfbenchWorkloadsLoad) {
  const std::filesystem::path dir =
      std::filesystem::path(DIPBENCH_SOURCE_DIR) / "perfbench/workloads";
  auto paper = ScenarioManifest::Load((dir / "fig10_paper.json").string());
  ASSERT_TRUE(paper.ok()) << paper.status().ToString();
  EXPECT_EQ(paper->engines, (std::vector<std::string>{"federated"}));
  EXPECT_DOUBLE_EQ(paper->config.datasize, 0.05);
  EXPECT_EQ(paper->config.periods, 100);
  EXPECT_TRUE(paper->config.traffic.empty());

  auto storm = ScenarioManifest::Load((dir / "msg_storm_x8.json").string());
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();
  EXPECT_EQ(storm->engines, (std::vector<std::string>{"federated"}));
  EXPECT_DOUBLE_EQ(storm->config.datasize, 0.05);
  EXPECT_EQ(storm->config.periods, 50);
  for (const char* stream : {"A", "B"}) {
    const TrafficShape* shape = storm->config.ShapeFor(stream);
    ASSERT_NE(shape, nullptr) << stream;
    EXPECT_EQ(shape->kind, TrafficShape::Kind::kSteady) << stream;
    EXPECT_DOUBLE_EQ(shape->scale, 8.0) << stream;
  }
}

TEST(ManifestTest, RetiredMemoryBudgetIsAnUnknownKey) {
  auto config = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n \"config\": {\"memory_budget\": 0}}", "<t>");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
      << config.status().ToString();
  EXPECT_NE(config.status().message().find(
                "unknown config key 'memory_budget'"),
            std::string::npos)
      << config.status().ToString();
  auto sweep = ScenarioManifest::FromJsonText(
      R"({"name": "x", "sweep": {"field": "memory_budget", "values": [0]}})",
      "<t>");
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("unknown sweep field"),
            std::string::npos)
      << sweep.status().ToString();
}

TEST(ManifestTest, InvalidTrafficShapeReportsOriginLineColumn) {
  auto m = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n"
      " \"traffic\": {\"A\": {\n"
      "   \"shape\": \"tsunami\"}}}",
      "shapes.json");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find(
                "shapes.json: line 3, column 13: unknown traffic shape "
                "'tsunami'"),
            std::string::npos)
      << m.status().ToString();
}

TEST(ManifestTest, OverlappingOutageWindowsReportTheSecondWindowsPosition) {
  auto m = ScenarioManifest::FromJsonText(
      "{\"name\": \"x\",\n"
      " \"faults\": {\"outages\": [\n"
      "   {\"name\": \"a\", \"endpoint\": \"cdb\", \"calls\": 5},\n"
      "   {\"name\": \"b\", \"endpoint\": \"cdb\", \"calls\": 5}]}}",
      "overlap.json");
  ASSERT_FALSE(m.ok());
  // The error points at the SECOND window — the first one was fine.
  EXPECT_NE(m.status().message().find(
                "overlap.json: line 4, column 4: outage 'b': overlapping "
                "outage windows"),
            std::string::npos)
      << m.status().ToString();
  EXPECT_NE(m.status().message().find(
                "endpoint 'cdb' already has an outage window from 'a'"),
            std::string::npos)
      << m.status().ToString();
}

// ---------------------------------------------------------------------------
// Manager: loading, uniqueness, landscape validation

class ManagerTest : public ::testing::Test {
 protected:
  void Write(const std::string& file, const std::string& text) {
    std::ofstream out(dir_ / file);
    out << text;
  }
  std::string Dir() const { return dir_.string(); }

  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("scenario_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(ManagerTest, LoadsDirectoryInSortedOrder) {
  Write("b.json", R"({"name": "bee"})");
  Write("a.json", R"({"name": "ay"})");
  Write("notes.txt", "not a manifest");
  ScenarioManager manager;
  ASSERT_TRUE(manager.LoadDirectory(Dir()).ok());
  ASSERT_EQ(manager.manifests().size(), 2u);
  EXPECT_EQ(manager.manifests()[0].name, "ay");
  EXPECT_EQ(manager.manifests()[1].name, "bee");
}

TEST_F(ManagerTest, RejectsDuplicateManifestNames) {
  Write("a.json", R"({"name": "same"})");
  Write("b.json", R"({"name": "same"})");
  ScenarioManager manager;
  Status st = manager.LoadDirectory(Dir());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("same"), std::string::npos);
}

TEST_F(ManagerTest, LoadErrorsNameTheFile) {
  Write("broken.json", "{\"name\": \"x\",}");
  ScenarioManager manager;
  Status st = manager.LoadDirectory(Dir());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("broken.json"), std::string::npos)
      << st.ToString();
}

TEST_F(ManagerTest, LandscapeValidationCatchesUnknownNames) {
  Write("bad_endpoint.json",
        R"({"name": "x", "faults": {"outages": [
              {"name": "o", "endpoint": "atlantis", "calls": 5}]}})");
  ScenarioManager manager;
  ASSERT_TRUE(manager.LoadDirectory(Dir()).ok());
  Status st = manager.ValidateLandscape();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("atlantis"), std::string::npos);
}

TEST_F(ManagerTest, UnknownDirtinessSourceReportsOriginLineColumn) {
  // Dirtiness names are checked against the live landscape AFTER parsing;
  // the reader records each entry's position so the late error can still
  // point at the offending line.
  Write("dirty.json",
        "{\"name\": \"x\",\n"
        " \"dirtiness\": {\n"
        "   \"lost_city_db\": 0.2}}");
  ScenarioManager manager;
  ASSERT_TRUE(manager.LoadDirectory(Dir()).ok());
  Status st = manager.ValidateLandscape();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dirty.json: line 3, column 20: manifest "
                              "'x': dirtiness source 'lost_city_db' does "
                              "not exist in the system landscape"),
            std::string::npos)
      << st.ToString();
}

TEST_F(ManagerTest, LandscapeValidationAcceptsRealNames) {
  Write("good.json",
        R"({"name": "x",
            "faults": {"outages": [
              {"name": "o", "endpoint": "hongkong", "calls": 5}],
              "phases": [{"name": "p", "endpoint": "dwh", "calls": 5,
                          "error_rate": 0.1}]},
            "dirtiness": {"us_madison": 0.2, "cdb_db": 0.0}})");
  ScenarioManager manager;
  ASSERT_TRUE(manager.LoadDirectory(Dir()).ok());
  EXPECT_TRUE(manager.ValidateLandscape().ok());
}

// ---------------------------------------------------------------------------
// End-to-end determinism contracts

TEST(ScenarioDeterminismTest, BaselineManifestReproducesCompiledSchedule) {
  // The schema equivalent of examples/scenarios/paper_baseline.json at a
  // test-sized period count: spelling out the ScaleConfig defaults must
  // reproduce a config that never saw the manifest layer, byte for byte.
  auto m = ScenarioManifest::FromJsonText(R"({
    "name": "paper-baseline",
    "engine": "federated",
    "config": {"datasize": 0.05, "time_scale": 1.0,
               "distribution": "uniform", "error_rate": 0.04,
               "periods": 2, "seed": 20080412, "worker_slots": 4}
  })", "<test>");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  std::vector<harness::RunSpec> specs = m->Expand();
  ASSERT_EQ(specs.size(), 1u);

  harness::RunSpec reference;
  reference.config.periods = 2;

  harness::RunOutcome from_manifest =
      harness::RunnerPool::ExecuteOne(specs[0]);
  harness::RunOutcome compiled = harness::RunnerPool::ExecuteOne(reference);
  ASSERT_TRUE(from_manifest.ok) << from_manifest.error;
  ASSERT_TRUE(compiled.ok) << compiled.error;
  EXPECT_FALSE(from_manifest.monitor_csv.empty());
  EXPECT_EQ(from_manifest.monitor_csv, compiled.monitor_csv);
}

TEST(ScenarioDeterminismTest, BurstManifestIsStableAcrossRepeatsAndJobs) {
  auto m = ScenarioManifest::FromJsonText(R"({
    "name": "bursty",
    "config": {"periods": 2, "datasize": 0.02},
    "traffic": {"B": {"shape": "burst", "amplitude": 2.0,
                      "burst_probability": 1.0,
                      "late_fraction": 0.2, "late_delay_tu": 40.0}}
  })", "<test>");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  std::vector<harness::RunSpec> specs = m->Expand();
  ASSERT_EQ(specs.size(), 1u);

  // Repeat determinism: two fresh executions, identical bytes.
  harness::RunOutcome first = harness::RunnerPool::ExecuteOne(specs[0]);
  harness::RunOutcome second = harness::RunnerPool::ExecuteOne(specs[0]);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.monitor_csv, second.monitor_csv);

  // The burst actually fires: shaped output differs from the unshaped
  // config (a disabled shape would pass the identity checks vacuously).
  harness::RunSpec unshaped = specs[0];
  unshaped.config.traffic.clear();
  harness::RunOutcome plain = harness::RunnerPool::ExecuteOne(unshaped);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_NE(first.monitor_csv, plain.monitor_csv);

  // jobs=4 == jobs=1 over a small pool of shaped specs.
  std::vector<harness::RunSpec> pool_specs = {specs[0], unshaped, specs[0]};
  std::vector<harness::RunOutcome> parallel =
      harness::RunnerPool(4).Run(pool_specs);
  std::vector<harness::RunOutcome> serial =
      harness::RunnerPool(1).Run(pool_specs);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(parallel[i].monitor_csv, serial[i].monitor_csv) << i;
  }
}

TEST(ScenarioDeterminismTest, DirtinessDialChangesOnlyItsOwnSource) {
  // A dial set to the base rate is a no-op (byte identity); a different
  // dial changes the run.
  harness::RunSpec base;
  base.config.periods = 2;
  harness::RunSpec same = base;
  same.config.source_error_rates["us_madison"] = base.config.error_rate;
  harness::RunSpec dirty = base;
  dirty.config.source_error_rates["us_madison"] = 0.5;

  harness::RunOutcome base_run = harness::RunnerPool::ExecuteOne(base);
  harness::RunOutcome same_run = harness::RunnerPool::ExecuteOne(same);
  harness::RunOutcome dirty_run = harness::RunnerPool::ExecuteOne(dirty);
  ASSERT_TRUE(base_run.ok && same_run.ok && dirty_run.ok);
  EXPECT_EQ(base_run.monitor_csv, same_run.monitor_csv);
  EXPECT_NE(base_run.monitor_csv, dirty_run.monitor_csv);
}

// ---------------------------------------------------------------------------
// Ablation manifests: each sweep shows the shape it exists for

/// The ablation manifests of examples/scenarios, run once at 2 periods
/// through the pool; results keyed by run label.
const std::map<std::string, BenchmarkResult>& AblationRuns() {
  static const std::map<std::string, BenchmarkResult> runs = [] {
    const std::filesystem::path dir =
        std::filesystem::path(DIPBENCH_SOURCE_DIR) / "examples/scenarios";
    ScenarioManager manager;
    for (const char* file :
         {"ablation_engines.json", "ablation_distribution_uniform.json",
          "ablation_distribution_zipf.json",
          "ablation_distribution_normal.json", "ablation_time_scale.json",
          "ablation_error_rate.json", "ablation_worker_slots.json"}) {
      Status st = manager.LoadFile((dir / file).string());
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    std::vector<harness::RunSpec> specs = manager.ExpandAll();
    for (harness::RunSpec& spec : specs) spec.config.periods = 2;
    std::map<std::string, BenchmarkResult> by_label;
    for (harness::RunOutcome& o : harness::RunnerPool(4).Run(specs)) {
      EXPECT_TRUE(o.ok) << o.spec.DisplayLabel() << ": " << o.error;
      by_label[o.spec.DisplayLabel()] = std::move(o.result);
    }
    return by_label;
  }();
  return runs;
}

const BenchmarkResult& AblationRun(const std::string& label) {
  static const BenchmarkResult kMissing;
  auto it = AblationRuns().find(label);
  EXPECT_NE(it, AblationRuns().end()) << label;
  return it == AblationRuns().end() ? kMissing : it->second;
}

double MeanE1Wait(const BenchmarkResult& result) {
  double wait = 0.0;
  int n = 0;
  for (const ProcessMetrics& m : result.per_process) {
    if (!IsE1Process(m.process_id)) continue;
    wait += m.avg_wait_tu;
    ++n;
  }
  return n == 0 ? 0.0 : wait / n;
}

TEST(AblationManifestTest, SkewedDistributionsExtractFewerP09Rows) {
  auto p09 = [](const char* f) {
    return AblationRun(std::string("ablation-distribution-") + f)
        .NavgPlus("P09");
  };
  EXPECT_GT(p09("uniform"), 0.0);
  EXPECT_LT(p09("zipf"), p09("uniform"));
  EXPECT_LT(p09("normal"), p09("uniform"));
}

TEST(AblationManifestTest, E1WaitRisesStrictlyWithTimeScale) {
  double previous = -1.0;
  for (const char* t : {"0.5", "1", "2", "4"}) {
    const double wait = MeanE1Wait(
        AblationRun(std::string("ablation-time-scale time_scale=") + t));
    EXPECT_GT(wait, previous) << "t=" << t;
    previous = wait;
  }
}

TEST(AblationManifestTest, ErrorRateParksDirtyRowsAndLowersCompleteness) {
  const VerificationReport* previous = nullptr;
  for (const char* q : {"0", "0.05", "0.15", "0.3"}) {
    const VerificationReport& v =
        AblationRun(std::string("ablation-error-rate error_rate=") + q)
            .verification;
    if (previous == nullptr) {
      EXPECT_EQ(v.dirty_leftover_cdb, 0u);
    } else {
      EXPECT_GE(v.dirty_leftover_cdb, previous->dirty_leftover_cdb) << q;
      EXPECT_LE(v.Completeness(), previous->Completeness()) << q;
    }
    previous = &v;
  }
}

TEST(AblationManifestTest, FederatedPaysMoreOnE1ThanOnE2Types) {
  const BenchmarkResult& dataflow = AblationRun("ablation-engines/dataflow");
  const BenchmarkResult& federated = AblationRun("ablation-engines/federated");
  double ratio[2] = {0.0, 0.0};  // [E1, E2]
  int n[2] = {0, 0};
  for (const ProcessMetrics& m : dataflow.per_process) {
    ASSERT_GT(m.navg_plus_tu, 0.0) << m.process_id;
    const int e = IsE1Process(m.process_id) ? 0 : 1;
    ratio[e] += federated.NavgPlus(m.process_id) / m.navg_plus_tu;
    ++n[e];
  }
  ASSERT_EQ(n[0], 5);
  ASSERT_EQ(n[1], 10);
  EXPECT_GT(ratio[0] / n[0], ratio[1] / n[1]);
}

TEST(AblationManifestTest, WorkerSlotsDrainE1WaitAndLeaveP14Alone) {
  const double p14 =
      AblationRun("ablation-worker-slots worker_slots=1").NavgPlus("P14");
  EXPECT_GT(p14, 0.0);
  double previous = std::numeric_limits<double>::infinity();
  for (const char* slots : {"1", "2", "4", "8"}) {
    const BenchmarkResult& result =
        AblationRun(std::string("ablation-worker-slots worker_slots=") + slots);
    EXPECT_LE(MeanE1Wait(result), previous) << slots << " slots";
    EXPECT_DOUBLE_EQ(result.NavgPlus("P14"), p14) << slots << " slots";
    previous = MeanE1Wait(result);
  }
}

}  // namespace
}  // namespace dipbench
