// Reproduces paper Figure 11: "Reference Implementation Performance
// Results (d^x = 0.1)" and its comparison against Figure 10 (d = 0.05).
//
// The paper's observation: doubling the datasize particularly influences
// the process types initiated by event type E1 (more instances in the same
// schedule window -> higher normalized costs), while the E2 types "were
// only executed more often and thus show a decreased standard deviation
// rather than higher normalized costs" — their per-instance cost grows
// with the dataset, but the *relative* deviation shrinks.

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
  flags::FlagSet flags("bench_fig11");
  figure::DefineFlags(&flags,
                      "base both runs on a scenario manifest's first "
                      "expanded config (datasize forced to 0.1/0.05)",
                      "write a Chrome trace of the d=0.1 run here");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  // Both runs share one base configuration (with --scenario, the
  // manifest's first run) and the run dials — fault injection included,
  // so the d comparison stays apples-to-apples; only datasize is forced to
  // the figure's 0.1-vs-0.05 axis.
  harness::RunSpec base;
  if (!figure::LoadBaseSpec(flags, &base)) return 2;
  const std::string trace_out = flags.Get("trace-out");
  const std::string metrics_out = flags.Get("metrics-out");
  if (!figure::ApplyRunFlags(flags, &base.config)) return 2;

  // The observer (when requested) watches the Fig. 11 run (d = 0.1); the
  // d = 0.05 comparison run stays unobserved.
  harness::RunSpec spec11 = base;
  spec11.config.datasize = 0.1;
  spec11.observe = !trace_out.empty() || !metrics_out.empty();
  harness::RunSpec spec10 = base;
  spec10.config.datasize = 0.05;
  harness::RunOutcome run11 = harness::RunnerPool::ExecuteOne(spec11);
  harness::RunOutcome run10 = harness::RunnerPool::ExecuteOne(spec10);
  if (!run11.ok || !run10.ok) {
    auto status_text = [](const harness::RunOutcome& run) {
      return run.ok ? std::string("OK") : run.error;
    };
    std::fprintf(stderr, "%s %s\n", status_text(run11).c_str(),
                 status_text(run10).c_str());
    return 1;
  }
  const BenchmarkResult& fig11 = run11.result;
  const BenchmarkResult& fig10 = run10.result;

  std::printf("=== Figure 11: DIPBench performance plot, federated "
              "reference implementation, d = 0.1 ===\n\n");
  std::printf("%s\n", fig11.RenderPlot().c_str());

  std::printf("=== Fig. 10 vs Fig. 11 (effect of doubling d) ===\n");
  std::printf("%-5s %-3s %12s %12s %8s %14s %14s\n", "Proc", "E",
              "NAVG+ d=.05", "NAVG+ d=.1", "ratio", "reldev d=.05",
              "reldev d=.1");
  for (const auto& m : fig10.per_process) {
    const ProcessMetrics* m11 = nullptr;
    for (const auto& cand : fig11.per_process) {
      if (cand.process_id == m.process_id) m11 = &cand;
    }
    if (m11 == nullptr) continue;
    double rd10 = m.navg_tu > 0 ? m.stddev_tu / m.navg_tu : 0;
    double rd11 = m11->navg_tu > 0 ? m11->stddev_tu / m11->navg_tu : 0;
    std::printf("%-5s %-3s %12.1f %12.1f %8.2f %14.3f %14.3f\n",
                m.process_id.c_str(),
                IsE1Process(m.process_id) ? "E1" : "E2", m.navg_plus_tu,
                m11->navg_plus_tu,
                m.navg_plus_tu > 0 ? m11->navg_plus_tu / m.navg_plus_tu : 0,
                rd10, rd11);
  }

  // Shape checks mirroring the paper's discussion.
  double e1_ratio_sum = 0;
  int e1_n = 0;
  double e2_reldev_drop = 0;
  int e2_n = 0;
  for (const auto& m : fig10.per_process) {
    const ProcessMetrics* m11 = nullptr;
    for (const auto& cand : fig11.per_process) {
      if (cand.process_id == m.process_id) m11 = &cand;
    }
    if (m11 == nullptr || m.navg_plus_tu <= 0) continue;
    if (IsE1Process(m.process_id)) {
      e1_ratio_sum += m11->navg_plus_tu / m.navg_plus_tu;
      ++e1_n;
    } else if (m.navg_tu > 0 && m11->navg_tu > 0) {
      double rd10 = m.stddev_tu / m.navg_tu;
      double rd11 = m11->stddev_tu / m11->navg_tu;
      e2_reldev_drop += (rd10 - rd11);
      ++e2_n;
    }
  }
  std::printf("\nshape check 1 (E1 types get more expensive with d): avg "
              "NAVG+ ratio = %.2f : %s\n",
              e1_ratio_sum / e1_n,
              e1_ratio_sum / e1_n > 1.0 ? "OK" : "VIOLATED");
  // The paper's E2 sigma decrease stems from E2 types being "executed more
  // often" at the larger d; our schedule executes E2 types exactly once per
  // period regardless of d, so their relative deviation stays FLAT instead
  // of falling. The check therefore asserts "does not grow materially".
  std::printf("shape check 2 (E2 relative deviation does not grow; paper's "
              "decrease needs per-d instance scaling): avg drop = %.4f : "
              "%s\n",
              e2_reldev_drop / e2_n,
              e2_reldev_drop / e2_n >= -0.01 ? "OK" : "VIOLATED");

  if (!trace_out.empty()) {
    const obs::TraceRecorder& recorder = *run11.trace;
    Status st =
        obs::WriteFileOrError(trace_out, obs::ToChromeTraceJson(recorder));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %zu spans (d = 0.1 run) to %s\n",
                recorder.span_count(), trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    const obs::MetricsRegistry& registry = *run11.metrics;
    std::string dump = EndsWith(metrics_out, ".json")
                           ? obs::MetricsToJson(registry)
                           : obs::MetricsToCsv(registry);
    Status st = obs::WriteFileOrError(metrics_out, dump);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    ScaleConfig pconfig;
    pconfig.datasize = 0.1;
    std::printf("\n%s", Monitor::RenderPercentiles(registry, pconfig).c_str());
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}
