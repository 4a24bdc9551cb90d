// Configuration-sweep integration test: the full benchmark must run to
// completion, pass functional verification and keep its metric invariants
// under every combination of scale factors and engine realizations.

#include <gtest/gtest.h>

#include "src/dipbench/client.h"

namespace dipbench {
namespace {

struct SweepCase {
  double datasize;
  double time_scale;
  Distribution dist;
  double error_rate;
  const char* engine;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "d%02d_t%02d_%s_q%02d_%s",
                static_cast<int>(c.datasize * 100),
                static_cast<int>(c.time_scale * 10),
                DistributionToString(c.dist),
                static_cast<int>(c.error_rate * 100), c.engine);
  return buf;
}

class FullRunSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FullRunSweepTest, RunsVerifiesAndKeepsInvariants) {
  const SweepCase& c = GetParam();
  ScaleConfig config;
  config.datasize = c.datasize;
  config.time_scale = c.time_scale;
  config.distribution = c.dist;
  config.error_rate = c.error_rate;
  config.periods = 2;
  config.seed = 99;

  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  std::unique_ptr<core::IntegrationSystem> engine;
  if (std::string(c.engine) == "federated") {
    engine = std::make_unique<core::FederatedEngine>(scenario->network());
  } else if (std::string(c.engine) == "eai") {
    engine = std::make_unique<core::DataflowEngine>(
        scenario->network(), core::EaiWeights(), 8, "eai");
  } else {
    engine = std::make_unique<core::DataflowEngine>(scenario->network());
  }
  Client client(scenario.get(), engine.get(), config);
  auto result = client.Run();
  ASSERT_TRUE(result.ok()) << result.status();

  // All 15 process types executed, none errored.
  ASSERT_EQ(result->per_process.size(), 15u);
  for (const auto& m : result->per_process) {
    EXPECT_EQ(m.errors, 0) << m.process_id;
    EXPECT_GT(m.instances, 0) << m.process_id;
    // Metric invariants.
    EXPECT_GE(m.navg_plus_tu, m.navg_tu) << m.process_id;
    EXPECT_GE(m.navg_tu, 0.0) << m.process_id;
    EXPECT_GE(m.avg_concurrency, 1.0) << m.process_id;
    // Cost categories sum to the normalized average.
    EXPECT_NEAR(m.avg_cc_tu + m.avg_cm_tu + m.avg_cp_tu, m.navg_tu,
                1e-6 * std::max(1.0, m.navg_tu))
        << m.process_id;
  }

  // Functional verification, the quality walk included, ran inside Run().
  const VerificationReport& quality = result->verification;
  EXPECT_EQ(quality.dangling_customer_refs, 0u);
  EXPECT_EQ(quality.dangling_product_refs, 0u);
  EXPECT_EQ(quality.dangling_city_refs, 0u);
  EXPECT_EQ(quality.duplicate_fact_keys, 0u);
  EXPECT_GT(quality.Completeness(), 0.5);
  if (c.error_rate == 0.0) {
    EXPECT_EQ(quality.dirty_leftover_cdb, 0u);
  }
}

/// DES scheduling must not change WHAT gets integrated — only costs.
TEST(WorkerInvarianceTest, IntegratedDataIdenticalAcrossWorkerCounts) {
  auto run = [](int workers) {
    ScaleConfig config;
    config.datasize = 0.03;
    config.periods = 2;
    config.worker_slots = workers;
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    core::DataflowEngine engine(scenario->network(),
                                core::DataflowWeights(), workers);
    Client client(scenario.get(), &engine, config);
    auto result = client.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return std::make_pair(result->verification.dwh_orders,
                          result->verification.dwh_revenue);
  };
  auto base = run(1);
  for (int workers : {2, 4, 16}) {
    auto other = run(workers);
    EXPECT_EQ(other.first, base.first) << workers;
    EXPECT_DOUBLE_EQ(other.second, base.second) << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FullRunSweepTest,
    ::testing::Values(
        SweepCase{0.02, 1.0, Distribution::kUniform, 0.04, "dataflow"},
        SweepCase{0.02, 1.0, Distribution::kUniform, 0.04, "federated"},
        SweepCase{0.02, 1.0, Distribution::kUniform, 0.04, "eai"},
        SweepCase{0.05, 1.0, Distribution::kZipf, 0.04, "dataflow"},
        SweepCase{0.05, 1.0, Distribution::kNormal, 0.04, "dataflow"},
        SweepCase{0.02, 0.5, Distribution::kUniform, 0.04, "dataflow"},
        SweepCase{0.02, 2.0, Distribution::kUniform, 0.04, "dataflow"},
        SweepCase{0.02, 1.0, Distribution::kUniform, 0.0, "dataflow"},
        SweepCase{0.02, 1.0, Distribution::kUniform, 0.3, "federated"},
        SweepCase{0.08, 1.0, Distribution::kUniform, 0.04, "dataflow"}),
    CaseName);

}  // namespace
}  // namespace dipbench
