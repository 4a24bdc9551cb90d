// Fault-injection sweep: the benchmark under a deterministically faulty
// network. Every endpoint call fails with probability q (seeded PRNG — a
// faulty run reproduces bit-for-bit); the engine recovers with retries +
// exponential backoff in virtual time and dead-letters instances whose
// budget is exhausted instead of aborting the period.
//
// The sweep runs q in {0, 0.01, 0.05, 0.1} and reports NAVG+ degradation,
// retry and dead-letter counts, and the verification outcome per point.
// The q = 0.05 run also takes the CDB endpoint down for 64 calls after its
// 10th: longer than the 8-attempt retry budget, so the instances caught in
// that window are dead-lettered at any period count. Random faults alone
// exhaust that budget too rarely to assert on.
// All points (plus the plain baseline) go through the harness::RunnerPool:
// --jobs=N picks the concurrency (default: hardware_concurrency; --jobs=1
// is the legacy serial loop, byte for byte). Three assertions gate the
// exit code:
//  * q = 0 with the recovery machinery wired produces a Monitor CSV
//    byte-identical to a plain run that never heard of faults;
//  * the sweep-line concurrency matches the O(n²) reference loop;
//  * the q = 0.05 run (with its outage window) completes, dead-letters at
//    least one instance, and still passes VerifyIntegration on the
//    surviving data.
//
// DIPBENCH_PERIODS overrides the period count (default 10);
// --json-out=<path> dumps the sweep as JSON for the CI artifact.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/dipbench/client.h"
#include "src/harness/harness.h"

using namespace dipbench;

namespace {

struct SweepPoint {
  double q = 0.0;
  bool ran_ok = false;
  std::string error;
  uint64_t retries = 0;
  uint64_t dead_letters = 0;
  double navg_plus_total = 0.0;  ///< sum of NAVG+ over process types
  std::string verification;
};

/// Distills a pooled outcome into a sweep point. On a failed run the cost
/// metrics of what DID run are still the degradation signal — summarize
/// the kept instance records directly.
SweepPoint ToSweepPoint(const harness::RunOutcome& outcome) {
  SweepPoint point;
  point.q = outcome.spec.config.fault_rate;
  for (const auto& r : outcome.records) {
    if (r.attempts > 1) point.retries += static_cast<uint64_t>(r.attempts - 1);
    if (r.dead_lettered) ++point.dead_letters;
  }
  if (!outcome.ok) {
    point.error = outcome.error;
    Monitor monitor(outcome.spec.config);
    monitor.Collect(outcome.records);
    for (const auto& m : monitor.Summarize()) {
      point.navg_plus_total += m.navg_plus_tu;
    }
    return point;
  }
  point.ran_ok = true;
  point.verification = outcome.result.verification.ToString();
  for (const auto& m : outcome.result.per_process) {
    point.navg_plus_total += m.navg_plus_tu;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("bench_faults");
  flags.Define("jobs", "pool concurrency (default: hardware threads)")
      .Define("json-out", "write the sweep summary as JSON to this path");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Result<int> jobs = flags.GetInt("jobs", 0);
  if (!jobs.ok()) {
    std::fprintf(stderr, "%s\n%s", jobs.status().ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  ScaleConfig base;
  base.datasize = 0.05;
  base.time_scale = 1.0;
  base.distribution = Distribution::kUniform;
  base.periods = 10;
  Result<int> periods = flags::PeriodsOverrideFromEnv();
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return 2;
  }
  if (*periods > 0) base.periods = *periods;
  const std::string json_out = flags.Get("json-out");
  harness::RunnerPool pool(*jobs);

  std::printf("=== Fault-injection sweep, federated reference "
              "implementation, %d periods, %d jobs ===\n\n",
              base.periods, pool.jobs());

  ScaleConfig faulty = base;
  faulty.retry_backoff_tu = 1.0;
  faulty.retry_backoff_factor = 2.0;
  faulty.retry_dead_letter = true;

  // Spec 0 is the plain baseline (recovery machinery not even configured);
  // specs 1..4 are the q-sweep. One pool submission covers them all.
  const double kRates[] = {0.0, 0.01, 0.05, 0.1};
  std::vector<harness::RunSpec> specs;
  {
    harness::RunSpec spec;
    spec.config = base;
    spec.label = "baseline (plain)";
    specs.push_back(spec);
  }
  for (double q : kRates) {
    harness::RunSpec spec;
    spec.config = faulty;
    spec.config.fault_rate = q;
    // Retry budget matched to the fault rate: a data-intensive instance
    // makes ~20 endpoint calls, so its per-attempt failure probability is
    // ~1-(1-q)^20 — at q = 0.1 that is ~0.88 and a fixed small budget
    // loses the serialized loads the verification depends on.
    spec.config.retry_max_attempts = q >= 0.1 ? 16 : 8;
    if (q == 0.05) {
      spec.config.outages.push_back(OutageWindow{
          "q05-blackout", "cdb", /*after_calls=*/10, /*calls=*/64});
      spec.label = spec.DisplayLabel() + " + cdb outage";
    }
    spec.keep_records = true;  // retries/dead-letters + concurrency check
    specs.push_back(spec);
  }

  StopWatch pool_watch;
  std::vector<harness::RunOutcome> outcomes = pool.Run(specs);
  double pool_wall_ms = pool_watch.ElapsedMillis();

  const harness::RunOutcome& baseline = outcomes[0];
  if (!baseline.ok) {
    std::fprintf(stderr, "baseline run failed: %s\n", baseline.error.c_str());
    return 1;
  }
  std::vector<SweepPoint> sweep;
  std::string q0_csv;
  std::vector<core::InstanceRecord> q05_records;
  for (size_t i = 1; i < outcomes.size(); ++i) {
    sweep.push_back(ToSweepPoint(outcomes[i]));
    if (outcomes[i].spec.config.fault_rate == 0.0) {
      q0_csv = outcomes[i].monitor_csv;
    }
    if (outcomes[i].spec.config.fault_rate == 0.05) {
      q05_records = outcomes[i].records;
    }
  }

  std::printf("%s\n",
              harness::RunnerPool::RenderReport(outcomes, pool_wall_ms).c_str());

  std::printf("%8s %12s %10s %14s %10s  %s\n", "q", "sum NAVG+", "retries",
              "dead_letters", "vs q=0", "verification");
  for (const auto& p : sweep) {
    if (!p.ran_ok) {
      std::printf("%8.2f %12s %10s %14s %10s  FAILED: %s\n", p.q, "-", "-",
                  "-", "-", p.error.c_str());
      continue;
    }
    double rel = sweep.front().ran_ok && sweep.front().navg_plus_total > 0
                     ? p.navg_plus_total / sweep.front().navg_plus_total
                     : 0.0;
    std::printf("%8.2f %12.1f %10llu %14llu %9.2fx  %s\n", p.q,
                p.navg_plus_total, static_cast<unsigned long long>(p.retries),
                static_cast<unsigned long long>(p.dead_letters), rel,
                p.verification.c_str());
  }

  bool all_ok = true;

  // Assertion 1: q = 0 with retries wired is byte-identical to the plain
  // baseline — disabled fault components consume no PRNG draws and an
  // instance that never fails never pays retry charges.
  if (q0_csv == baseline.monitor_csv) {
    std::printf("\nq=0 byte-identity vs plain run: OK (%zu bytes)\n",
                baseline.monitor_csv.size());
  } else {
    std::printf("\nq=0 byte-identity vs plain run: VIOLATED\n");
    all_ok = false;
  }

  // Assertion 2: the sweep-line concurrency matches the O(n²) reference
  // on the q = 0.05 records (retry backoffs included in the intervals).
  {
    std::vector<double> fast = Monitor::OverlapTotals(q05_records);
    std::vector<double> naive = Monitor::OverlapTotalsNaive(q05_records);
    size_t mismatches = 0;
    for (size_t i = 0; i < fast.size(); ++i) {
      double tol = 1e-6 * std::max(1.0, naive[i]);
      if (std::abs(fast[i] - naive[i]) > tol) ++mismatches;
    }
    if (mismatches == 0 && !fast.empty()) {
      std::printf("sweep-line vs naive concurrency (%zu records): OK\n",
                  fast.size());
    } else {
      std::printf("sweep-line vs naive concurrency: VIOLATED "
                  "(%zu mismatches of %zu)\n", mismatches, fast.size());
      all_ok = false;
    }
  }

  // Assertion 3: the q = 0.05 point, with its outage window, recovered —
  // run complete, at least one instance dead-lettered, verification green
  // on the surviving data.
  for (const auto& p : sweep) {
    if (p.q != 0.05) continue;
    if (!p.ran_ok) {
      std::printf("q=0.05 + outage recovery: VIOLATED (%s)\n",
                  p.error.c_str());
      all_ok = false;
    } else if (p.dead_letters == 0) {
      std::printf("q=0.05 + outage recovery: VIOLATED (no dead letters)\n");
      all_ok = false;
    } else {
      std::printf("q=0.05 + outage recovery: OK (%llu retries, %llu dead "
                  "letters, verification passed)\n",
                  static_cast<unsigned long long>(p.retries),
                  static_cast<unsigned long long>(p.dead_letters));
    }
  }

  if (!json_out.empty()) {
    std::string json = "[\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      json += StrFormat(
          "  {\"q\": %.3f, \"ok\": %s, \"navg_plus_total\": %.3f, "
          "\"retries\": %llu, \"dead_letters\": %llu, \"periods\": %d}%s\n",
          p.q, p.ran_ok ? "true" : "false", p.navg_plus_total,
          static_cast<unsigned long long>(p.retries),
          static_cast<unsigned long long>(p.dead_letters), base.periods,
          i + 1 < sweep.size() ? "," : "");
    }
    json += "]\n";
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote sweep to %s\n", json_out.c_str());
  }

  return all_ok ? 0 : 1;
}
