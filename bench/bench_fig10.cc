// Reproduces paper Figure 10: "Reference Implementation Performance
// Results (d^x = 0.05)" — the DIPBench performance plot (NAVG+ and NAVG
// per process type) for the federated-DBMS reference implementation with
// sfTime = 1.0, sfDatasize = 0.05, uniformly distributed datasets, over
// the full 100 benchmark periods.
//
// Expected shape (not absolute numbers — the substrate is simulated):
//  * serialized data-intensive types (P03, P09, P11-P14) dominate NAVG+;
//  * highly concurrent message types (P01/P02/P04/P08/P10) sit far lower;
//  * data-intensive types carry a visibly larger standard deviation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/figure_flags.h"
#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/dipbench/client.h"
#include "src/dipbench/processes.h"
#include "src/harness/harness.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/export.h"

using namespace dipbench;

int main(int argc, char** argv) {
  flags::FlagSet flags("bench_fig10");
  figure::DefineFlags(&flags,
                      "drive the figure from a scenario manifest "
                      "(first expanded run) instead of the paper config",
                      "write a Chrome trace of the run to this path")
      .Define("datasize", "override scale factor d (default 0.05)");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  // With --scenario the remaining flags still apply on top of the
  // manifest's run.
  harness::RunSpec spec;
  if (!figure::LoadBaseSpec(flags, &spec)) return 2;
  ScaleConfig& config = spec.config;
  // --datasize=d scales the external datasets and per-period instance
  // counts (the paper's d axis); used by CI to run d = 1.0 under a hard
  // address-space cap.
  if (flags.Has("datasize")) {
    Result<double> d = flags.GetDouble("datasize", config.datasize);
    if (!d.ok() || *d <= 0.0) {
      std::fprintf(stderr, "invalid --datasize\n%s", flags.Usage().c_str());
      return 2;
    }
    config.datasize = *d;
  }
  const std::string trace_out = flags.Get("trace-out");
  const std::string metrics_out = flags.Get("metrics-out");
  if (!figure::ApplyRunFlags(flags, &config)) return 2;

  // Observability is opt-in: without the flags no recorder exists and the
  // run is byte-identical to an uninstrumented binary.
  const bool observed = !trace_out.empty() || !metrics_out.empty();
  spec.observe = observed;
  harness::RunOutcome run = harness::RunnerPool::ExecuteOne(spec);
  if (!run.ok) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
    return 1;
  }
  const BenchmarkResult& result = run.result;

  std::printf("=== Figure 10: DIPBench performance plot, federated "
              "reference implementation, d = 0.05 ===\n\n");
  std::printf("%s\n", result.RenderPlot().c_str());
  std::printf("%s\n", run.monitor_csv.c_str());
  std::printf("verification: %s\n", result.verification.ToString().c_str());
  if (config.fault_rate > 0.0 || config.retry_max_attempts > 1) {
    std::printf("recovery: %llu retries, %llu dead letters at q=%.3f\n",
                static_cast<unsigned long long>(result.retries),
                static_cast<unsigned long long>(result.dead_letters),
                config.fault_rate);
  }
  std::printf("wall time: %.0f ms for %d periods\n", result.wall_ms,
              config.periods);

  // The paper's two headline observations, checked programmatically.
  double msg_max = 0, bulk_min = 1e18, msg_dev = 0, bulk_dev = 0;
  int msg_n = 0, bulk_n = 0;
  for (const auto& m : result.per_process) {
    bool is_bulk = m.process_id == "P12" || m.process_id == "P13" ||
                   m.process_id == "P14";
    if (IsE1Process(m.process_id)) {
      msg_max = std::max(msg_max, m.navg_plus_tu);
      msg_dev += m.stddev_tu;
      ++msg_n;
    }
    if (is_bulk) {
      bulk_min = std::min(bulk_min, m.navg_plus_tu);
      bulk_dev += m.stddev_tu;
      ++bulk_n;
    }
  }
  std::printf("\nshape check 1 (serialized >> concurrent): min(P12..P14) "
              "= %.1f > max(msg types) = %.1f : %s\n",
              bulk_min, msg_max, bulk_min > msg_max ? "OK" : "VIOLATED");
  std::printf("shape check 2 (data-intensive deviation larger): avg sigma "
              "bulk = %.2f vs msg = %.2f : %s\n",
              bulk_dev / bulk_n, msg_dev / msg_n,
              bulk_dev / bulk_n > msg_dev / msg_n ? "OK" : "VIOLATED");

  if (observed) {
    const obs::TraceRecorder& recorder = *run.trace;
    const obs::MetricsRegistry& registry = *run.metrics;
    std::printf("\n%s", Monitor::RenderPercentiles(registry, config).c_str());

    // Reconcile the trace against the Monitor: summed leaf-span durations
    // per category must match the per-process cost totals within 1%.
    if (!trace_out.empty()) {
      double trace_cc = config.MsToTu(
          recorder.CategoryTotalMs(obs::Category::kComm));
      double trace_cm = config.MsToTu(
          recorder.CategoryTotalMs(obs::Category::kManagement));
      double trace_cp = config.MsToTu(
          recorder.CategoryTotalMs(obs::Category::kProcessing));
      double mon_cc = 0, mon_cm = 0, mon_cp = 0;
      for (const auto& m : result.per_process) {
        mon_cc += m.avg_cc_tu * m.instances;
        mon_cm += m.avg_cm_tu * m.instances;
        mon_cp += m.avg_cp_tu * m.instances;
      }
      auto close = [](double a, double b) {
        return std::abs(a - b) <= 0.01 * std::max(1.0, std::max(a, b));
      };
      std::printf("\ntrace/monitor reconciliation [tu]: Cc %.1f/%.1f, "
                  "Cm %.1f/%.1f, Cp %.1f/%.1f : %s\n",
                  trace_cc, mon_cc, trace_cm, mon_cm, trace_cp, mon_cp,
                  close(trace_cc, mon_cc) && close(trace_cm, mon_cm) &&
                          close(trace_cp, mon_cp)
                      ? "OK"
                      : "VIOLATED");
      Status st = obs::WriteFileOrError(trace_out,
                                        obs::ToChromeTraceJson(recorder));
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", recorder.span_count(),
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::string dump = EndsWith(metrics_out, ".json")
                             ? obs::MetricsToJson(registry)
                             : obs::MetricsToCsv(registry);
      Status st = obs::WriteFileOrError(metrics_out, dump);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
