// Scenario-manifest sweeper: loads every examples/scenarios/*.json
// manifest, validates it against the live system landscape, expands the
// collection into pooled RunSpecs and executes them twice — once at
// --jobs workers and once fully serial. Reports the merged NAVG+ table
// across all scenario runs, one row per run of the ablation measures
// (mean NAVG+ of the E1 and E2 types, mean E1 wait, OrdersMV rows, dirty
// CDB leftovers, completeness) and the wall time of both passes.
//
// Exit gates (all must hold for exit code 0):
//   1. every manifest loads and validates (a bad one exits 2 naming the
//      file, line and column),
//   2. the parallel pool reproduces the serial pool's per-run Monitor
//      CSVs byte for byte — and since that is a full repeat of the whole
//      collection, the same gate proves run-to-run determinism,
//   3. the paper-baseline manifest reproduces the compiled-in schedule
//      (a default-constructed ScaleConfig) byte for byte: the manifest
//      layer adds expressiveness, never drift,
//   4. every run completes and passes VerifyIntegration, warehouse
//      integrity (resolvable references, unique fact keys) included.
//
// DIPBENCH_PERIODS overrides every run's period count (CI smoke);
// --json-out=<path> writes BENCH_scenarios.json for the CI artifact.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/dipbench/processes.h"
#include "src/harness/harness.h"
#include "src/scenario/manager.h"

using namespace dipbench;

namespace {

/// JSON string escaping for the report artifact (labels contain '/').
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// The per-run ablation measures: mean NAVG+ over the E1 and over the E2
/// types, and the mean queueing wait of the E1 types.
struct TypeMeans {
  double e1_navg = 0.0, e2_navg = 0.0, e1_wait = 0.0;
};

TypeMeans MeansOf(const BenchmarkResult& result) {
  TypeMeans means;
  int e1 = 0, e2 = 0;
  for (const ProcessMetrics& m : result.per_process) {
    if (IsE1Process(m.process_id)) {
      means.e1_navg += m.navg_plus_tu;
      means.e1_wait += m.avg_wait_tu;
      ++e1;
    } else {
      means.e2_navg += m.navg_plus_tu;
      ++e2;
    }
  }
  means.e1_navg /= std::max(e1, 1);
  means.e1_wait /= std::max(e1, 1);
  means.e2_navg /= std::max(e2, 1);
  return means;
}

/// One run's per-process measures and verification fields, as JSON.
std::string RunDetailJson(const BenchmarkResult& result) {
  std::string out = "\"per_process\": {";
  for (size_t i = 0; i < result.per_process.size(); ++i) {
    const ProcessMetrics& m = result.per_process[i];
    out += StrFormat(
        "%s\"%s\": {\"navg_plus_tu\": %.3f, \"avg_wait_tu\": %.3f, "
        "\"avg_concurrency\": %.3f, \"validation_failures\": %llu, "
        "\"duplicates_eliminated\": %llu}",
        i == 0 ? "" : ", ", m.process_id.c_str(), m.navg_plus_tu,
        m.avg_wait_tu, m.avg_concurrency,
        static_cast<unsigned long long>(m.quality.validation_failures),
        static_cast<unsigned long long>(m.quality.duplicates_eliminated));
  }
  const VerificationReport& v = result.verification;
  out += StrFormat(
      "}, \"verification\": {\"dwh_orders\": %zu, \"dwh_mv_rows\": %zu, "
      "\"mart_orders\": %zu, \"failed_messages\": %zu, "
      "\"dirty_leftover_cdb\": %zu, \"null_cells\": %zu, "
      "\"total_cells\": %zu, \"dangling_customer_refs\": %zu, "
      "\"dangling_product_refs\": %zu, \"dangling_city_refs\": %zu, "
      "\"duplicate_fact_keys\": %zu, \"null_fraction\": %.6f, "
      "\"completeness\": %.6f}",
      v.dwh_orders, v.dwh_mv_rows, v.mart_orders_total, v.failed_messages,
      v.dirty_leftover_cdb, v.null_cells, v.total_cells,
      v.dangling_customer_refs, v.dangling_product_refs,
      v.dangling_city_refs, v.duplicate_fact_keys, v.NullFraction(),
      v.Completeness());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("bench_scenarios");
  flags.Define("dir", "scenario manifest directory (default: "
                      "examples/scenarios, then ../examples/scenarios)")
      .Define("jobs", "worker threads for the parallel pass (default 4)")
      .Define("json-out", "write the run summary as JSON to this path");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Result<int> jobs = flags.GetInt("jobs", 4);
  if (!jobs.ok()) {
    std::fprintf(stderr, "%s\n%s", jobs.status().ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const std::string json_out = flags.Get("json-out");

  // --- Gate 1: load + validate the collection. ---
  scenario::ScenarioManager manager;
  std::string dir = flags.Get("dir");
  Status loaded;
  if (!dir.empty()) {
    loaded = manager.LoadDirectory(dir);
  } else {
    // Running from the repo root or from build/.
    dir = "examples/scenarios";
    loaded = manager.LoadDirectory(dir);
    if (!loaded.ok()) {
      dir = "../examples/scenarios";
      loaded = manager.LoadDirectory(dir);
    }
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 2;
  }
  if (Status st = manager.ValidateLandscape(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  std::vector<harness::RunSpec> specs = manager.ExpandAll();
  Result<int> periods = flags::PeriodsOverrideFromEnv();
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return 2;
  }
  if (*periods > 0) {
    for (harness::RunSpec& spec : specs) {
      spec.config.periods = *periods;
    }
  }

  std::printf("=== Scenario sweep: %zu manifests from %s -> %zu runs ===\n\n",
              manager.manifests().size(), dir.c_str(), specs.size());

  // --- Run: parallel pass, then the serial reference pass. ---
  harness::RunnerPool parallel_pool(*jobs);
  StopWatch parallel_watch;
  std::vector<harness::RunOutcome> outcomes = parallel_pool.Run(specs);
  const double parallel_ms = parallel_watch.ElapsedMillis();

  harness::RunnerPool serial_pool(1);
  StopWatch serial_watch;
  std::vector<harness::RunOutcome> serial = serial_pool.Run(specs);
  const double serial_ms = serial_watch.ElapsedMillis();

  bool runs_ok = true;
  for (const harness::RunOutcome& outcome : outcomes) {
    if (!outcome.ok) {
      std::fprintf(stderr, "run '%s' failed: %s\n",
                   outcome.spec.DisplayLabel().c_str(),
                   outcome.error.c_str());
      runs_ok = false;
    }
  }

  // --- Gate 2: jobs=N == jobs=1, byte for byte, across a full repeat. ---
  size_t mismatches = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok || !serial[i].ok ||
        outcomes[i].monitor_csv != serial[i].monitor_csv) {
      ++mismatches;
    }
  }

  // --- Gate 3: paper-baseline == compiled-in schedule. ---
  // The manifest spells out the ScaleConfig defaults; the reference run
  // uses a default-constructed config that never saw the manifest layer.
  bool baseline_found = false;
  bool baseline_identical = true;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].spec.label.rfind("paper-baseline", 0) != 0) continue;
    baseline_found = true;
    harness::RunSpec reference;
    reference.config = ScaleConfig{};
    if (*periods > 0) reference.config.periods = *periods;
    reference.engine = outcomes[i].spec.engine;
    harness::RunOutcome ref = harness::RunnerPool::ExecuteOne(reference);
    if (!outcomes[i].ok || !ref.ok ||
        outcomes[i].monitor_csv != ref.monitor_csv) {
      baseline_identical = false;
      std::fprintf(stderr,
                   "paper-baseline gate: '%s' does not reproduce the "
                   "compiled-in schedule\n",
                   outcomes[i].spec.DisplayLabel().c_str());
    }
  }
  if (!baseline_found) {
    std::fprintf(stderr, "paper-baseline gate: no manifest named "
                         "'paper-baseline' in %s\n", dir.c_str());
    baseline_identical = false;
  }

  // No pool speedup line: contention inflates the per-run times it sums.
  std::printf("%s\n",
              harness::RunnerPool::RenderReport(outcomes, 0.0).c_str());
  std::printf("%-36s %9s %9s %13s %8s %11s %12s\n", "run", "E1 NAVG+",
              "E2 NAVG+", "E1 wait [tu]", "MV rows", "dirty left",
              "completeness");
  for (const harness::RunOutcome& o : outcomes) {
    if (!o.ok) continue;  // listed as FAILED in the table above
    const TypeMeans means = MeansOf(o.result);
    const VerificationReport& v = o.result.verification;
    std::printf("%-36s %9.1f %9.1f %13.2f %8zu %11zu %12.4f\n",
                o.spec.DisplayLabel().c_str(), means.e1_navg, means.e2_navg,
                means.e1_wait, v.dwh_mv_rows, v.dirty_leftover_cdb,
                v.Completeness());
  }
  std::printf("\nwall time: serial %.0f ms, parallel (jobs=%d) %.0f ms — "
              "%.2fx\n", serial_ms, parallel_pool.jobs(), parallel_ms,
              serial_ms / parallel_ms);
  std::printf("parallel gate (jobs=%d vs jobs=1, full repeat): %s\n",
              parallel_pool.jobs(),
              mismatches == 0 ? "identical"
                              : StrFormat("%zu MISMATCH", mismatches).c_str());
  std::printf("paper-baseline gate: %s\n",
              baseline_identical ? "identical to compiled-in schedule"
                                 : "VIOLATED");

  if (!json_out.empty()) {
    std::string json = "{\n";
    json += StrFormat("  \"manifests\": %zu,\n", manager.manifests().size());
    json += StrFormat("  \"jobs\": %d,\n", parallel_pool.jobs());
    json += StrFormat("  \"parallel_identical\": %s,\n",
                      mismatches == 0 ? "true" : "false");
    json += StrFormat("  \"baseline_identical\": %s,\n",
                      baseline_identical ? "true" : "false");
    json += StrFormat("  \"serial_wall_ms\": %.3f,\n", serial_ms);
    json += StrFormat("  \"parallel_wall_ms\": %.3f,\n", parallel_ms);
    json += "  \"runs\": [\n";
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const harness::RunOutcome& o = outcomes[i];
      json += StrFormat(
          "    {\"label\": \"%s\", \"engine\": \"%s\", \"ok\": %s, "
          "\"virtual_ms\": %.3f, \"wall_ms\": %.3f%s%s}%s\n",
          JsonEscape(o.spec.DisplayLabel()).c_str(), o.spec.engine.c_str(),
          o.ok ? "true" : "false", o.result.virtual_ms, o.wall_ms,
          o.ok ? ", " : "",
          o.ok ? RunDetailJson(o.result).c_str() : "",
          i + 1 < outcomes.size() ? "," : "");
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote scenario sweep to %s\n", json_out.c_str());
  }

  return (runs_ok && mismatches == 0 && baseline_identical) ? 0 : 1;
}
