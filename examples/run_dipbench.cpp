// Full DIPBench run — the toolsuite's command-line face.
//
// Usage:
//   run_dipbench [--datasize=D] [--time=T] [--dist=uniform|zipf|normal]
//                [--periods=N] [--engine=dataflow|federated|eai]
//                [--worker-slots=W] [--error-rate=Q] [--plan-cache]
//                [--csv] [--gnuplot] [--export-data=DIR]
//
// Reproduces the paper's reference-implementation experiments: runs the
// pre/work/post phases over N benchmark periods and prints the DIPBench
// performance plot (Fig. 10/11 style), the verification report (with the
// warehouse's data-quality measures) and, with --csv, the per-process
// metric rows. A malformed flag exits 2 with the usage.

#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/dipbench/client.h"
#include "src/harness/harness.h"

using namespace dipbench;

int main(int argc, char** argv) {
  flags::FlagSet flags("run_dipbench");
  flags.Define("datasize", "scale factor d (default 0.05)")
      .Define("time", "time scale factor t (default 1.0)")
      .Define("dist", "distribution f: uniform (default) | zipf | normal")
      .Define("periods", "benchmark periods (default 10)")
      .Define("engine", "dataflow (default) | federated | eai")
      .Define("worker-slots", "modeled worker slots of the engine (default 4)")
      .Define("error-rate", "injected source-data error rate q (default 0.04)")
      .Define("plan-cache", "cache instantiated process plans")
      .Define("csv", "print the per-process metric rows")
      .Define("gnuplot", "print the plot as gnuplot data")
      .Define("export-data", "export period 0's source data as XML flat "
                             "files to this directory");
  auto usage_error = [&flags](const Status& st) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  };
  if (Status st = flags.Parse(argc, argv); !st.ok()) return usage_error(st);

  ScaleConfig config;
  Result<double> datasize = flags.GetDouble("datasize", config.datasize);
  Result<double> time_scale = flags.GetDouble("time", config.time_scale);
  Result<int> periods = flags.GetInt("periods", config.periods);
  Result<int> slots = flags.GetInt("worker-slots", config.worker_slots);
  Result<double> error_rate = flags.GetDouble("error-rate", config.error_rate);
  for (const Status& st : {datasize.status(), time_scale.status(),
                           periods.status(), slots.status(),
                           error_rate.status()}) {
    if (!st.ok()) return usage_error(st);
  }
  if (*datasize <= 0 || *time_scale <= 0 || *periods < 1 || *slots < 1 ||
      *slots > kMaxWorkerSlots || *error_rate < 0 || *error_rate > 1) {
    return usage_error(Status::InvalidArgument(StrFormat(
        "run_dipbench: need --datasize, --time > 0, --periods >= 1, "
        "--worker-slots in [1, %d] and --error-rate in [0, 1]",
        kMaxWorkerSlots)));
  }
  config.datasize = *datasize;
  config.time_scale = *time_scale;
  config.periods = *periods;
  config.worker_slots = *slots;
  config.error_rate = *error_rate;
  const std::string dist = flags.Get("dist", "uniform");
  if (dist == "zipf") {
    config.distribution = Distribution::kZipf;
  } else if (dist == "normal") {
    config.distribution = Distribution::kNormal;
  } else if (dist != "uniform") {
    return usage_error(Status::InvalidArgument(
        "run_dipbench: unknown distribution '" + dist + "'"));
  }
  const std::string engine_kind = flags.Get("engine", "dataflow");
  const std::string export_dir = flags.Get("export-data");
  if (flags.Has("export-data") && export_dir.empty()) {
    return usage_error(Status::InvalidArgument(
        "run_dipbench: --export-data needs a directory"));
  }

  auto scenario_result = Scenario::Create();
  if (!scenario_result.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario_result.status().ToString().c_str());
    return 1;
  }
  auto scenario = std::move(scenario_result).ValueOrDie();

  auto engine_result = harness::MakeEngine(engine_kind, scenario->network(),
                                           config.worker_slots);
  if (!engine_result.ok()) return usage_error(engine_result.status());
  std::unique_ptr<core::EngineBase> engine =
      std::move(engine_result).ValueOrDie();
  engine->EnablePlanCache(flags.Has("plan-cache"));

  std::printf("%s  engine=%s\n", config.ToString().c_str(),
              engine_kind.c_str());
  Client client(scenario.get(), engine.get(), config);
  auto result = client.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%s\n", result->RenderPlot().c_str());
  std::printf("verification: %s\n",
              result->verification.ToString().c_str());
  std::printf("virtual time: %.1f ms, wall time: %.1f ms\n",
              result->virtual_ms, result->wall_ms);
  if (flags.Has("csv")) {
    std::printf("\n%s", Monitor::ToCsv(result->per_process).c_str());
  }
  if (flags.Has("gnuplot")) {
    std::printf("\n%s", Monitor::ToGnuplot(result->per_process,
                                           config).c_str());
  }
  if (!export_dir.empty()) {
    // Re-initialize period 0 (the run left the last period's data) and
    // export the generated source datasets as XML flat files.
    Initializer initializer(scenario.get(), config);
    net::FileStore store;
    Status st = initializer.InitializePeriod(0);
    if (st.ok()) st = initializer.ExportSourceData(&store);
    if (st.ok()) st = store.SaveToDisk(export_dir);
    if (st.ok()) {
      std::printf("exported %zu XML flat files to %s\n", store.size(),
                  export_dir.c_str());
    } else {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}
