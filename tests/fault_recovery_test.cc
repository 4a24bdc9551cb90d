// Fault injection + retry/recovery tests: deterministic fault streams,
// retries succeeding within budget, dead-lettering without poisoning the
// period, virtual-time timeouts, q = 0 byte-identity, retried runs landing
// in the fault-free landscape, and the Monitor metric fixes (sigma+,
// Welford variance, sweep-line concurrency).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/conformance/digest.h"
#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/core/retry.h"
#include "src/dipbench/client.h"
#include "src/harness/harness.h"
#include "src/net/fault.h"
#include "src/net/file_endpoint.h"
#include "src/ra/query.h"

namespace dipbench {
namespace {

Schema KvSchema() {
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("v", DataType::kString)
      .SetPrimaryKey({"k"});
  return s;
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("flaky");
    ASSERT_TRUE(db_->CreateTable("t", KvSchema()).ok());
    auto ep = std::make_unique<net::DatabaseEndpoint>("flaky", db_.get(),
                                                      net::Channel(), 0.01);
    ASSERT_TRUE(ep->RegisterQuery(
                      "get",
                      [](Database* d,
                         const std::vector<Value>&) -> Result<RowSet> {
                        ExecContext ec;
                        return Query::From(*d->GetTable("t")).Run(&ec);
                      })
                    .ok());
    ASSERT_TRUE(net_.AddEndpoint(std::move(ep)).ok());
  }

  net::Endpoint* endpoint() {
    return std::move(net_.Get("flaky")).ValueOrDie();
  }

  void InstallFaults(const net::FaultProfile& profile, uint64_t seed = 7) {
    endpoint()->SetFaultInjector(
        std::make_unique<net::FaultInjector>(profile, seed, "flaky"));
  }

  core::ProcessDefinition QueryProcess(const std::string& id = "Q") {
    core::ProcessDefinition def;
    def.id = id;
    def.event_type = core::EventType::kTimeEvent;
    def.body = {core::InvokeQuery("flaky", "get", {}, "m")};
    return def;
  }

  std::unique_ptr<Database> db_;
  net::Network net_;
};

// An outage spanning the first two calls: attempts 1 and 2 hit the window,
// attempt 3 succeeds — within a 4-attempt budget the instance recovers.
TEST_F(FaultRecoveryTest, RetriesSucceedWithinBudget) {
  net::FaultProfile profile;
  profile.outage_after_calls = 0;
  profile.outage_calls = 2;
  InstallFaults(profile);

  core::DataflowEngine engine(&net_);
  core::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_ms = 10.0;
  engine.SetRetryPolicy(policy);

  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());

  ASSERT_EQ(engine.records().size(), 1u);
  const core::InstanceRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.ok);
  EXPECT_FALSE(rec.dead_lettered);
  EXPECT_EQ(rec.attempts, 3);
  // Backoffs 10 + 20 ms of virtual waiting before attempts 2 and 3.
  EXPECT_DOUBLE_EQ(rec.retry_wait_ms, 30.0);
  EXPECT_GE(rec.ElapsedMs(), 30.0);
}

// The same recovery under an instance budget it never exhausts: the budget
// decides only when to give up, so attempts, waits, costs and elapsed time
// match the run without one.
TEST_F(FaultRecoveryTest, UnexhaustedInstanceBudgetChangesNothing) {
  auto run = [this](double budget_ms) {
    net::FaultProfile profile;
    profile.outage_after_calls = 0;
    profile.outage_calls = 2;
    InstallFaults(profile);
    core::DataflowEngine engine(&net_);
    core::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.backoff_base_ms = 10.0;
    policy.instance_timeout_ms = budget_ms;
    engine.SetRetryPolicy(policy);
    EXPECT_TRUE(engine.Deploy(QueryProcess()).ok());
    EXPECT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    EXPECT_EQ(engine.records().size(), 1u);
    return engine.records().at(0);
  };
  const core::InstanceRecord unbudgeted = run(0.0);
  const core::InstanceRecord budgeted = run(1000.0);
  EXPECT_TRUE(budgeted.ok);
  EXPECT_EQ(budgeted.attempts, 3);
  EXPECT_DOUBLE_EQ(budgeted.retry_wait_ms, 30.0);
  EXPECT_DOUBLE_EQ(budgeted.costs.Total(), unbudgeted.costs.Total());
  EXPECT_DOUBLE_EQ(budgeted.ElapsedMs(), unbudgeted.ElapsedMs());
}

// A permanently failing endpoint exhausts the budget; with dead-lettering
// on, the instance is parked (failed, charged) and the rest of the queue
// still runs.
TEST_F(FaultRecoveryTest, ExhaustedRetriesDeadLetterWithoutPoisoningPeriod) {
  net::FaultProfile profile;
  profile.error_rate = 1.0;
  InstallFaults(profile);

  core::DataflowEngine engine(&net_);
  core::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.dead_letter = true;
  engine.SetRetryPolicy(policy);

  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  core::ProcessDefinition nop;
  nop.id = "NOP";
  nop.event_type = core::EventType::kMessage;
  nop.body = {core::Receive("m")};
  ASSERT_TRUE(engine.Deploy(nop).ok());

  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  auto doc = std::make_shared<xml::Node>("msg");
  ASSERT_TRUE(engine.Submit({"NOP", 1.0, doc, 0}).ok());

  // The dead letter does NOT abort the run.
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  ASSERT_EQ(engine.records().size(), 2u);

  const core::InstanceRecord& dead = engine.records()[0];
  EXPECT_FALSE(dead.ok);
  EXPECT_TRUE(dead.dead_lettered);
  EXPECT_EQ(dead.attempts, 3);
  EXPECT_NE(dead.error.find("injected"), std::string::npos);
  // Every attempt's management work was charged.
  EXPECT_GT(dead.costs.cm_ms, 0.0);

  EXPECT_TRUE(engine.records()[1].ok);
  EXPECT_FALSE(engine.records()[1].dead_lettered);
}

// Without dead-lettering the legacy contract holds: budget exhausted ->
// the run aborts with the underlying error.
TEST_F(FaultRecoveryTest, ExhaustedRetriesAbortWithoutDeadLetterPolicy) {
  net::FaultProfile profile;
  profile.error_rate = 1.0;
  InstallFaults(profile);

  core::DataflowEngine engine(&net_);
  core::RetryPolicy policy;
  policy.max_attempts = 2;
  engine.SetRetryPolicy(policy);

  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  Status st = engine.RunUntilIdle();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  ASSERT_EQ(engine.records().size(), 1u);
  EXPECT_EQ(engine.records()[0].attempts, 2);
}

// The per-instance budget runs in virtual time: once attempt end + backoff
// would exceed it, no further attempt starts and the instance fails with
// Timeout.
TEST_F(FaultRecoveryTest, TimeoutFiresInVirtualTime) {
  net::FaultProfile profile;
  profile.error_rate = 1.0;
  InstallFaults(profile);

  core::DataflowEngine engine(&net_);
  core::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_ms = 100.0;
  policy.instance_timeout_ms = 150.0;
  policy.dead_letter = true;
  engine.SetRetryPolicy(policy);

  ASSERT_TRUE(engine.Deploy(QueryProcess()).ok());
  ASSERT_TRUE(engine.Submit({"Q", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());

  ASSERT_EQ(engine.records().size(), 1u);
  const core::InstanceRecord& rec = engine.records()[0];
  EXPECT_FALSE(rec.ok);
  EXPECT_TRUE(rec.dead_lettered);
  // Attempt 1 (+100 backoff) fits in the 150 ms budget, attempt 2's
  // backoff (200) does not — the loop stops far short of max_attempts.
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_NE(rec.error.find("budget exhausted"), std::string::npos);
  // The wait happened on the virtual clock.
  EXPECT_GE(engine.Now(), 100.0);
}

// Same seed -> same faults: the error pattern across many instances
// reproduces exactly; a different seed produces a different pattern.
TEST_F(FaultRecoveryTest, FaultStreamIsDeterministicPerSeed) {
  auto run = [&](uint64_t seed) {
    net::FaultProfile profile;
    profile.error_rate = 0.3;
    InstallFaults(profile, seed);
    core::DataflowEngine engine(&net_);
    core::RetryPolicy policy;
    policy.max_attempts = 1;
    policy.dead_letter = true;
    engine.SetRetryPolicy(policy);
    EXPECT_TRUE(engine.Deploy(QueryProcess()).ok());
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(engine.Submit({"Q", i * 10.0, nullptr, 0}).ok());
    }
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    std::string pattern;
    for (const auto& r : engine.records()) pattern += r.ok ? '.' : 'X';
    return pattern;
  };
  std::string a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
  EXPECT_NE(a, c);
}

// Latency spikes: the call succeeds but pays extra communication time.
TEST_F(FaultRecoveryTest, LatencySpikeChargesCommunication) {
  net::NetStats clean;
  ASSERT_TRUE(endpoint()->Query("get", {}, &clean).ok());

  net::FaultProfile profile;
  profile.spike_rate = 1.0;
  profile.spike_ms = 5.0;
  InstallFaults(profile);
  net::NetStats spiked;
  ASSERT_TRUE(endpoint()->Query("get", {}, &spiked).ok());
  EXPECT_NEAR(spiked.comm_ms - clean.comm_ms, 5.0, 1e-9);
}

// q = 0 with the whole recovery machinery wired produces a byte-identical
// Monitor CSV to a plain run.
TEST(FaultByteIdentityTest, ZeroFaultRateIsByteIdentical) {
  auto run = [](bool wire_recovery) {
    ScaleConfig config;
    config.datasize = 0.02;
    config.periods = 2;
    if (wire_recovery) {
      config.fault_rate = 0.0;  // injection off, machinery on
      config.retry_max_attempts = 8;
      config.retry_backoff_tu = 1.0;
      config.retry_dead_letter = true;
    }
    auto scenario = std::move(Scenario::Create()).ValueOrDie();
    core::DataflowEngine engine(scenario->network());
    Client client(scenario.get(), &engine, config);
    auto result = client.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Monitor::ToCsv(result->per_process);
  };
  EXPECT_EQ(run(false), run(true));
}

// Retried instances land in the fault-free landscape: an attempt that
// failed on an injected fault leaves nothing behind that its successful
// retry would apply a second time.
TEST(FaultRecoveryLandscapeTest, RetriedRunLandsInTheFaultFreeLandscape) {
  const std::vector<std::string> engines = {"federated", "dataflow"};
  std::vector<harness::RunSpec> specs;
  for (const std::string& engine : engines) {
    harness::RunSpec clean;
    clean.engine = engine;
    clean.config.datasize = 0.01;
    clean.config.periods = 2;
    clean.digest_state = true;
    specs.push_back(clean);

    harness::RunSpec faulty = clean;
    faulty.config.fault_rate = 0.05;
    faulty.config.retry_max_attempts = 8;
    faulty.config.retry_backoff_tu = 1.0;
    faulty.config.retry_backoff_factor = 2.0;
    specs.push_back(faulty);
  }
  std::vector<harness::RunOutcome> outcomes =
      harness::RunnerPool(2).Run(specs);
  ASSERT_EQ(outcomes.size(), 2 * engines.size());

  for (size_t i = 0; i < engines.size(); ++i) {
    SCOPED_TRACE(engines[i]);
    const harness::RunOutcome& clean = outcomes[2 * i];
    const harness::RunOutcome& faulty = outcomes[2 * i + 1];
    ASSERT_TRUE(clean.ok) << clean.error;
    ASSERT_TRUE(faulty.ok) << faulty.error;
    // The faults engaged (otherwise this proves nothing), and every
    // instance recovered within its attempts.
    EXPECT_GT(faulty.result.retries, 0u);
    EXPECT_EQ(faulty.result.dead_letters, 0u);
    ASSERT_NE(clean.digest, nullptr);
    ASSERT_NE(faulty.digest, nullptr);
    EXPECT_EQ(clean.digest->state_hash, faulty.digest->state_hash);
    EXPECT_EQ(clean.digest->verification, faulty.digest->verification);
  }
}

// --- Monitor metric fixes ---------------------------------------------------

core::InstanceRecord Rec(double cost_ms, double start = 0.0,
                         double end = 1.0) {
  core::InstanceRecord r;
  r.process_id = "PX";
  r.costs.cp_ms = cost_ms;
  r.start_time = start;
  r.end_time = end;
  return r;
}

// Hand-computed sigma+ fixture: costs {2, 4, 9}, mean 5. Only 9 lies above
// the mean, so sigma+ = sqrt(16/1) = 4 and NAVG+ = 9; the full stddev is
// sqrt(26/3), which the old (sigma) definition would have added instead.
TEST(MonitorSigmaPlusTest, PositiveStddevUsesAboveMeanInstancesOnly) {
  ScaleConfig config;  // time_scale = 1 -> tu == ms
  Monitor monitor(config);
  monitor.Collect({Rec(2.0), Rec(4.0), Rec(9.0)});
  auto metrics = monitor.Summarize();
  ASSERT_EQ(metrics.size(), 1u);
  const ProcessMetrics& m = metrics[0];
  EXPECT_DOUBLE_EQ(m.navg_tu, 5.0);
  EXPECT_NEAR(m.stddev_tu, std::sqrt(26.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.sigma_plus_tu, 4.0);
  EXPECT_DOUBLE_EQ(m.navg_plus_tu, 9.0);
}

// All-equal costs: no instance lies above the mean, sigma+ = 0 and
// NAVG+ = NAVG.
TEST(MonitorSigmaPlusTest, UniformCostsHaveZeroSigmaPlus) {
  ScaleConfig config;
  Monitor monitor(config);
  monitor.Collect({Rec(7.0), Rec(7.0), Rec(7.0)});
  auto metrics = monitor.Summarize();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics[0].sigma_plus_tu, 0.0);
  EXPECT_DOUBLE_EQ(metrics[0].navg_plus_tu, metrics[0].navg_tu);
}

// Welford's algorithm survives large-magnitude costs where the old
// sumsq/n - mean² form cancels catastrophically: at 1e9 with unit spread,
// sumsq sits near 3e18 where doubles resolve only ~512 apart.
TEST(MonitorWelfordTest, VarianceIsStableAtLargeMagnitudes) {
  ScaleConfig config;
  Monitor monitor(config);
  monitor.Collect({Rec(1e9), Rec(1e9 + 1.0), Rec(1e9 + 2.0)});
  auto metrics = monitor.Summarize();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_NEAR(metrics[0].stddev_tu, std::sqrt(2.0 / 3.0), 1e-6);
}

// The sweep-line overlap equals the O(n²) pairwise reference, including
// zero-duration records and exact shared boundaries.
TEST(MonitorConcurrencyTest, SweepLineMatchesNaive) {
  std::vector<core::InstanceRecord> records;
  // A deterministic mix: nested, disjoint, identical, and touching
  // intervals plus a zero-duration record.
  records.push_back(Rec(1.0, 0.0, 10.0));
  records.push_back(Rec(1.0, 2.0, 5.0));
  records.push_back(Rec(1.0, 5.0, 7.0));   // touches the previous end
  records.push_back(Rec(1.0, 10.0, 12.0)); // touches the first end
  records.push_back(Rec(1.0, 3.0, 3.0));   // zero duration
  records.push_back(Rec(1.0, 2.0, 5.0));   // identical to record 1
  for (int i = 0; i < 50; ++i) {
    double s = (i * 37) % 100 * 0.5;
    records.push_back(Rec(1.0, s, s + 1.0 + (i % 7)));
  }
  std::vector<double> fast = Monitor::OverlapTotals(records);
  std::vector<double> naive = Monitor::OverlapTotalsNaive(records);
  ASSERT_EQ(fast.size(), naive.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], naive[i], 1e-6 * std::max(1.0, naive[i]))
        << "record " << i;
  }
  // Spot-check the hand-computable cases.
  EXPECT_DOUBLE_EQ(naive[4], 0.0);  // zero duration overlaps nothing
  // Record 1 overlaps: [2,5) of record 0, nothing of record 2 (touching),
  // and all 3 of its twin; plus whatever the generated records add.
}

// --- FileStore::SaveToDisk error handling -----------------------------------

TEST(FileStoreSaveTest, ReportsUnwritableDirectory) {
  net::FileStore store;
  store.Write("a.xml", "<a/>");
  // /proc/none is not creatable.
  Status st = store.SaveToDisk("/proc/none/sub");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("/proc/none/sub"), std::string::npos);
}

TEST(FileStoreSaveTest, ReportsFailedWriteNamingTheFile) {
  // /dev/full accepts opens but fails every flush (ENOSPC) — exactly the
  // silent-truncation case the Status check exists for.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  net::FileStore store;
  store.Write("full", "data that cannot be flushed");
  Status st = store.SaveToDisk("/dev");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("/dev/full"), std::string::npos);
}

TEST(FileStoreSaveTest, RoundTripsThroughDisk) {
  net::FileStore store;
  store.Write("x.xml", "<x>1</x>");
  store.Write("y.xml", "<y>2</y>");
  // Claimed per-process-unique so a parallel ctest can never race this
  // test on a shared fixed path.
  const std::string dir =
      net::FileStore::ClaimUniqueDir(::testing::TempDir(),
                                     "fault_recovery_store")
          .ValueOrDie();
  ASSERT_TRUE(store.SaveToDisk(dir).ok());
  net::FileStore loaded;
  ASSERT_TRUE(loaded.LoadFromDisk(dir).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(std::move(loaded.Read("x.xml")).ValueOrDie(), "<x>1</x>");
}

}  // namespace
}  // namespace dipbench
