// Determinism and isolation tests for the parallel sweep harness
// (src/harness). The contract under test: a run's bytes depend only on
// its RunSpec — never on the jobs count, thread identity, co-scheduled
// runs, or execution order. Parallelism may change wall-clock only.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <new>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/dipbench/client.h"
#include "src/dipbench/datagen.h"
#include "src/harness/harness.h"
#include "src/net/file_endpoint.h"

namespace dipbench {
namespace harness {
namespace {

/// A small but non-trivial mixed sweep: three engines, two distributions,
/// one faulty point with retries + dead-lettering.
std::vector<RunSpec> MixedSweep() {
  std::vector<RunSpec> specs;
  auto add = [&specs](const char* engine, Distribution dist, double q) {
    RunSpec spec;
    spec.engine = engine;
    spec.config.datasize = 0.01;
    spec.config.periods = 2;
    spec.config.distribution = dist;
    if (q > 0.0) {
      spec.config.fault_rate = q;
      spec.config.retry_max_attempts = 8;
      spec.config.retry_backoff_tu = 1.0;
      spec.config.retry_backoff_factor = 2.0;
      spec.config.retry_dead_letter = true;
    }
    spec.keep_records = true;
    specs.push_back(spec);
  };
  add("federated", Distribution::kUniform, 0.0);
  add("dataflow", Distribution::kZipf, 0.0);
  add("eai", Distribution::kNormal, 0.0);
  add("federated", Distribution::kUniform, 0.05);
  return specs;
}

TEST(RunnerPoolTest, ParallelIsByteIdenticalToSerial) {
  std::vector<RunSpec> specs = MixedSweep();
  std::vector<RunOutcome> serial = RunnerPool(1).Run(specs);
  std::vector<RunOutcome> parallel = RunnerPool(4).Run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].DisplayLabel());
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    // The strongest form first: the whole Monitor CSV, byte for byte.
    EXPECT_EQ(serial[i].monitor_csv, parallel[i].monitor_csv);
    // And the distilled values a sweep reports, exactly (not within eps).
    for (const char* p : {"P03", "P09", "P13"}) {
      EXPECT_EQ(serial[i].result.NavgPlus(p), parallel[i].result.NavgPlus(p));
    }
    EXPECT_EQ(serial[i].result.retries, parallel[i].result.retries);
    EXPECT_EQ(serial[i].result.dead_letters, parallel[i].result.dead_letters);
    EXPECT_EQ(serial[i].records.size(), parallel[i].records.size());
  }
}

TEST(RunnerPoolTest, CoScheduledRunsDoNotPerturbEachOther) {
  // The probe run executed alone...
  RunSpec probe;
  probe.config.datasize = 0.01;
  probe.config.periods = 2;
  probe.config.seed = 42;
  std::vector<RunOutcome> alone = RunnerPool(1).Run({probe});
  ASSERT_TRUE(alone[0].ok) << alone[0].error;

  // ...must be byte-identical when sandwiched between differently seeded
  // neighbors on a saturated pool: seeds must not bleed across runs.
  std::vector<RunSpec> crowd;
  for (uint64_t seed : {7u, 13u}) {
    RunSpec neighbor = probe;
    neighbor.config.seed = seed;
    crowd.push_back(neighbor);
  }
  crowd.insert(crowd.begin() + 1, probe);
  std::vector<RunOutcome> together = RunnerPool(3).Run(crowd);
  ASSERT_TRUE(together[1].ok) << together[1].error;
  EXPECT_EQ(alone[0].monitor_csv, together[1].monitor_csv);
  // And the neighbors really did diverge (the test has teeth).
  ASSERT_TRUE(together[0].ok) << together[0].error;
  EXPECT_NE(together[0].monitor_csv, together[1].monitor_csv);
}

TEST(RunnerPoolTest, OutcomesArriveInSubmissionOrder) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 8; ++i) {
    RunSpec spec;
    spec.config.datasize = 0.01;
    spec.config.periods = 1;
    spec.label = "spec-" + std::to_string(i);
    specs.push_back(spec);
  }
  std::vector<RunOutcome> outcomes = RunnerPool(4).Run(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].spec.label, "spec-" + std::to_string(i));
  }
}

TEST(RunnerPoolTest, ThrowingTaskDoesNotPoisonThePool) {
  std::vector<std::function<RunOutcome()>> tasks;
  auto ok_task = [] {
    RunOutcome out;
    out.ok = true;
    out.monitor_csv = "fine";
    return out;
  };
  tasks.push_back(ok_task);
  tasks.push_back([]() -> RunOutcome { throw std::runtime_error("boom"); });
  tasks.push_back([]() -> RunOutcome { throw 42; });
  tasks.push_back(ok_task);

  std::vector<RunOutcome> outcomes = RunnerPool(4).RunTasks(std::move(tasks));
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[3].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].error, "uncaught exception: boom");
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].error, "uncaught non-standard exception");
}

TEST(RunnerPoolTest, ThrowingRunFailsWithItsLabel) {
  RunSpec throws;
  throws.label = "throws";
  throws.config.datasize = 0.01;
  throws.config.periods = 1;
  throws.post_run_mutator = [](Scenario*) { throw std::bad_alloc(); };
  RunSpec good = throws;
  good.label = "good";
  good.post_run_mutator = nullptr;
  const std::string error =
      std::string("uncaught exception: ") + std::bad_alloc().what();

  std::vector<RunOutcome> outcomes = RunnerPool(2).Run({throws, good});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].error, error);
  EXPECT_EQ(outcomes[0].spec.DisplayLabel(), "throws");
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;

  RunOutcome one = RunnerPool::ExecuteOne(throws);
  EXPECT_FALSE(one.ok);
  EXPECT_EQ(one.error, error);
  EXPECT_EQ(one.spec.DisplayLabel(), "throws");
}

TEST(RunnerPoolTest, UnknownEngineFailsThatRunOnly) {
  RunSpec good;
  good.config.datasize = 0.01;
  good.config.periods = 1;
  RunSpec bad = good;
  bad.engine = "quantum";
  std::vector<RunOutcome> outcomes = RunnerPool(2).Run({bad, good});
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("unknown engine"), std::string::npos)
      << outcomes[0].error;
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
}

TEST(RunnerPoolTest, JobsDefaultsToHardwareConcurrency) {
  unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(RunnerPool(0).jobs(), hw > 0 ? static_cast<int>(hw) : 1);
  EXPECT_EQ(RunnerPool(1).jobs(), 1);
  EXPECT_EQ(RunnerPool(6).jobs(), 6);
}

// --- temp-directory collision regression ---

TEST(UniqueDirTest, ConcurrentClaimsNeverCollide) {
  std::string base =
      (std::filesystem::temp_directory_path() / "dipbench_claim_race").string();
  constexpr int kThreads = 8;
  constexpr int kClaims = 16;
  std::vector<std::string> claimed(kThreads * kClaims);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &base, &claimed] {
      for (int i = 0; i < kClaims; ++i) {
        auto dir = net::FileStore::ClaimUniqueDir(base, "claim");
        ASSERT_TRUE(dir.ok()) << dir.status().ToString();
        claimed[t * kClaims + i] = dir.ValueOrDie();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::string> unique(claimed.begin(), claimed.end());
  EXPECT_EQ(unique.size(), claimed.size());
  for (const auto& dir : claimed) {
    EXPECT_TRUE(std::filesystem::is_directory(dir)) << dir;
  }
  std::filesystem::remove_all(base);
}

TEST(UniqueDirTest, ConcurrentExportsLandInDistinctIntactDirs) {
  std::string base =
      (std::filesystem::temp_directory_path() / "dipbench_export_race")
          .string();
  // Two concurrent runs export their generated source data under the SAME
  // base directory — the scenario that used to clobber with a fixed path.
  constexpr int kRuns = 2;
  std::vector<std::string> dirs(kRuns);
  std::vector<net::FileStore> stores(kRuns);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRuns; ++r) {
    threads.emplace_back([r, &base, &dirs, &stores] {
      ScaleConfig config;
      config.datasize = 0.01;
      config.seed = 100 + r;  // distinct data per run
      auto scenario = Scenario::Create();
      ASSERT_TRUE(scenario.ok());
      Initializer init(scenario.ValueOrDie().get(), config);
      ASSERT_TRUE(init.InitializePeriod(1).ok());
      ASSERT_TRUE(init.ExportSourceData(&stores[r]).ok());
      auto dir = stores[r].SaveToUniqueDir(base, "export");
      ASSERT_TRUE(dir.ok()) << dir.status().ToString();
      dirs[r] = dir.ValueOrDie();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_NE(dirs[0], dirs[1]);
  // Each directory round-trips to exactly the store that wrote it — no
  // torn or cross-contaminated files.
  for (int r = 0; r < kRuns; ++r) {
    net::FileStore loaded;
    ASSERT_TRUE(loaded.LoadFromDisk(dirs[r]).ok());
    ASSERT_EQ(loaded.size(), stores[r].size());
    for (const auto& name : stores[r].List()) {
      auto got = loaded.Read(name);
      ASSERT_TRUE(got.ok()) << name;
      EXPECT_EQ(got.ValueOrDie(), stores[r].Read(name).ValueOrDie()) << name;
    }
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace harness
}  // namespace dipbench
