#ifndef DIPBENCH_HARNESS_HARNESS_H_
#define DIPBENCH_HARNESS_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/conformance/digest.h"
#include "src/dipbench/client.h"
#include "src/obs/obs.h"

namespace dipbench {
namespace harness {

/// One benchmark configuration for the pool: scale factors + seed (inside
/// the ScaleConfig) and the engine realization to drive. Sweeps are
/// families of RunSpecs differing in exactly one knob (paper §V, DWEB's
/// parameterized run generator).
struct RunSpec {
  ScaleConfig config;
  /// Engine realization: "federated" (default), "dataflow" or "eai".
  std::string engine = "federated";
  /// Display label in the merged report; empty derives one from the spec.
  std::string label;
  /// Attach a per-run obs::TraceRecorder + MetricsRegistry (each run gets
  /// its OWN pair — the obs layer's ownership contract) and hand them back
  /// in the outcome.
  bool observe = false;
  /// Copy the engine's InstanceRecords into the outcome (cross-run
  /// diagnostics such as the concurrency sweep-line cross-check).
  bool keep_records = false;
  /// Capture a conformance::StateDigest of the final landscape (plus
  /// monitor/verification/recovery/run-outcome) into the outcome. The
  /// Scenario dies with ExecuteOne, so this is the only way to observe its
  /// final state from outside.
  bool digest_state = false;
  /// Test hook, called on the live Scenario after the run (success or
  /// failure) and BEFORE digest capture — the fuzzer's self-test injects a
  /// single-cell divergence here to prove the pipeline catches it.
  std::function<void(Scenario*)> post_run_mutator;

  std::string DisplayLabel() const;
};

/// What one pooled run produced. Outcomes are always delivered in
/// submission order, independent of which thread ran what.
struct RunOutcome {
  RunSpec spec;
  bool ok = false;
  std::string error;          ///< Status/exception text when !ok.
  BenchmarkResult result;     ///< Valid when ok.
  std::string monitor_csv;    ///< Monitor::ToCsv of the result (when ok).
  std::vector<core::InstanceRecord> records;      ///< When keep_records.
  std::shared_ptr<obs::TraceRecorder> trace;      ///< When observe.
  std::shared_ptr<obs::MetricsRegistry> metrics;  ///< When observe.
  /// When spec.digest_state: full canonical digest of the run (landscape,
  /// monitor CSV, verification, recovery counters, run outcome). Shared —
  /// digests can be large and outcomes get copied into reports.
  std::shared_ptr<const conformance::StateDigest> digest;
  double wall_ms = 0.0;       ///< This run's own wall-clock time.
};

/// Builds the engine realization named by RunSpec::engine over `network`,
/// with the ScaleConfig's worker slots.
Result<std::unique_ptr<core::EngineBase>> MakeEngine(const std::string& name,
                                                     net::Network* network,
                                                     int worker_slots);

/// Executes N independent benchmark configurations concurrently on OS
/// threads.
///
/// Isolation contract (what makes parallel == serial, byte for byte):
/// every run owns its complete world — Scenario (databases + network +
/// endpoints), engine, Client, Initializer and, when requested, trace
/// recorder and metrics registry. The only process-level state a run
/// touches is (a) the Logger, which is thread-safe at line granularity,
/// and (b) FileStore's unique-directory counter, which exists precisely to
/// keep concurrent runs apart on disk. All randomness is seeded from the
/// RunSpec's config, so a run's bytes depend only on its spec — never on
/// co-scheduled runs, thread identity, or jobs count.
///
/// With jobs == 1 the pool spawns no threads at all and executes the
/// specs sequentially on the calling thread — exactly the legacy serial
/// sweep loop.
class RunnerPool {
 public:
  /// jobs <= 0 selects std::thread::hardware_concurrency().
  explicit RunnerPool(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs every spec (fully isolated, see class doc); outcomes come back
  /// in submission order. A failing or throwing run yields ok == false
  /// with the error text and never poisons the other runs or the pool.
  std::vector<RunOutcome> Run(const std::vector<RunSpec>& specs);

  /// Lower-level form: arbitrary tasks through the same scheduling,
  /// ordering and exception-isolation machinery (exposed for tests and
  /// custom sweeps). Each task runs exactly once, on some pool thread.
  std::vector<RunOutcome> RunTasks(
      std::vector<std::function<RunOutcome()>> tasks);

  /// One fully isolated benchmark run: fresh Scenario + engine + Client
  /// (+ observer pair when spec.observe). The building block Run()
  /// schedules, also called directly by bench_fig10, bench_fig11 and
  /// bench_scenarios. A run that throws (std::bad_alloc under an
  /// address-space cap, or a throwing post_run_mutator) returns
  /// ok == false with RunTasks' error text ("uncaught exception: <what>")
  /// and keeps `spec`, so its label survives into reports.
  static RunOutcome ExecuteOne(const RunSpec& spec);

  /// Merged cross-run report: per-config NAVG+ table (P03/P09/P13 columns
  /// plus the total), retries/dead letters, per-run wall-clock, and the
  /// aggregate speedup of `pool_wall_ms` over the summed per-run times
  /// (left out when `pool_wall_ms` is 0).
  static std::string RenderReport(const std::vector<RunOutcome>& outcomes,
                                  double pool_wall_ms);

 private:
  int jobs_;
};

}  // namespace harness
}  // namespace dipbench

#endif  // DIPBENCH_HARNESS_HARNESS_H_
