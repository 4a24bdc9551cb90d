// Flags and run configuration shared by the figure drivers (bench_fig10,
// bench_fig11). Both start from the paper's Figure 10 setup, may replace it
// with a scenario manifest's first run, and apply the same fault flags on
// top; both then execute through harness::RunnerPool::ExecuteOne.

#ifndef DIPBENCH_BENCH_FIGURE_FLAGS_H_
#define DIPBENCH_BENCH_FIGURE_FLAGS_H_

#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/harness/harness.h"
#include "src/scenario/manifest.h"

namespace dipbench {
namespace figure {

/// Declares the shared flags, in usage order; `scenario_help` and
/// `trace_help` say what the driver does with them.
inline flags::FlagSet& DefineFlags(flags::FlagSet* flags,
                                   const char* scenario_help,
                                   const char* trace_help) {
  return flags->Define("scenario", scenario_help)
      .Define("trace-out", trace_help)
      .Define("metrics-out", "write metrics (.json or CSV) to this path")
      .Define("fault-rate", "endpoint call failure probability q in [0, 1] "
                            "(enables 8-attempt retry + dead letters)")
      .Define("retry-attempts",
              StrFormat("attempts per process instance, 1 to %d",
                        kMaxRetryAttempts));
}

/// The run a figure starts from: the paper's Figure 10 configuration
/// (d = 0.05, sfTime = 1.0, uniform, 100 periods) on the federated engine,
/// or with --scenario=<file> the manifest's first expanded run (first
/// engine, first sweep value). DIPBENCH_PERIODS overrides the period
/// count. Returns false after printing the error.
inline bool LoadBaseSpec(const flags::FlagSet& flags, harness::RunSpec* spec) {
  spec->config.datasize = 0.05;
  spec->config.time_scale = 1.0;
  spec->config.distribution = Distribution::kUniform;
  spec->config.periods = 100;
  const std::string scenario_path = flags.Get("scenario");
  if (!scenario_path.empty()) {
    auto manifest = scenario::ScenarioManifest::Load(scenario_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
      return false;
    }
    *spec = manifest->Expand().front();
    std::printf("scenario: %s (%s)\n\n", spec->label.c_str(),
                scenario_path.c_str());
  }
  Result<int> periods = flags::PeriodsOverrideFromEnv();
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return false;
  }
  if (*periods > 0) spec->config.periods = *periods;
  return true;
}

/// Prints `why` and the usage to stderr; returns false.
inline bool Reject(const flags::FlagSet& flags, const std::string& why) {
  std::fprintf(stderr, "%s\n%s", why.c_str(), flags.Usage().c_str());
  return false;
}

/// Applies the run dials to `config`; defaults leave it untouched, so
/// output stays byte-identical to a run without them. Returns false after
/// printing the error and the usage.
///  --fault-rate=q      every endpoint call fails with probability q in
///                      [0, 1] (src/net/fault.h, seeded), with 8 attempts
///                      per instance, 1 tu exponential backoff and dead
///                      letters;
///  --retry-attempts=n  n attempts per instance, n in [1, kMaxRetryAttempts],
///                      same backoff.
inline bool ApplyRunFlags(const flags::FlagSet& flags, ScaleConfig* config) {
  if (flags.Has("fault-rate")) {
    Result<double> q = flags.GetDouble("fault-rate", 0.0);
    if (!q.ok()) return Reject(flags, q.status().ToString());
    if (*q < 0.0 || *q > 1.0) {
      return Reject(flags, "invalid --fault-rate: must be in [0, 1]");
    }
    config->fault_rate = *q;
    config->retry_max_attempts = 8;
    config->retry_backoff_tu = 1.0;
    config->retry_dead_letter = true;
  }
  if (flags.Has("retry-attempts")) {
    Result<int> attempts = flags.GetInt("retry-attempts", 1);
    if (!attempts.ok()) return Reject(flags, attempts.status().ToString());
    if (*attempts < 1 || *attempts > kMaxRetryAttempts) {
      return Reject(flags, StrFormat("invalid --retry-attempts: must be in "
                                     "[1, %d]", kMaxRetryAttempts));
    }
    config->retry_max_attempts = *attempts;
    config->retry_backoff_tu = 1.0;
    config->retry_dead_letter = true;
  }
  return true;
}

}  // namespace figure
}  // namespace dipbench

#endif  // DIPBENCH_BENCH_FIGURE_FLAGS_H_
