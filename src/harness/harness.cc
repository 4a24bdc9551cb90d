#include "src/harness/harness.h"

#include <atomic>
#include <exception>
#include <thread>

#include "src/common/string_util.h"

namespace dipbench {
namespace harness {

std::string RunSpec::DisplayLabel() const {
  if (!label.empty()) return label;
  std::string out = engine + " d=" + StrFormat("%.3g", config.datasize) +
                    " f=" + DistributionToString(config.distribution);
  if (config.fault_rate > 0.0) {
    out += StrFormat(" q=%.3g", config.fault_rate);
  }
  return out;
}

Result<std::unique_ptr<core::EngineBase>> MakeEngine(const std::string& name,
                                                     net::Network* network,
                                                     int worker_slots) {
  if (name == "federated") {
    return std::unique_ptr<core::EngineBase>(new core::FederatedEngine(
        network, core::FederatedWeights(), worker_slots));
  }
  if (name == "dataflow") {
    return std::unique_ptr<core::EngineBase>(new core::DataflowEngine(
        network, core::DataflowWeights(), worker_slots));
  }
  if (name == "eai") {
    return std::unique_ptr<core::EngineBase>(new core::DataflowEngine(
        network, core::EaiWeights(), worker_slots, "eai"));
  }
  return Status::InvalidArgument("unknown engine realization '" + name +
                                 "' (federated | dataflow | eai)");
}

namespace {

/// Calls `task`. An exception it throws becomes a failed outcome for
/// `spec` carrying the exception's text, so a throwing run ends neither
/// the process nor the pool.
template <typename Task>
RunOutcome CaptureExceptions(const Task& task, const RunSpec& spec) {
  std::string error;
  try {
    return task();
  } catch (const std::exception& e) {
    error = std::string("uncaught exception: ") + e.what();
  } catch (...) {
    error = "uncaught non-standard exception";
  }
  RunOutcome failed;
  failed.spec = spec;
  failed.error = std::move(error);
  return failed;
}

/// ExecuteOne without the exception capture.
RunOutcome ExecuteUncaptured(const RunSpec& spec) {
  RunOutcome out;
  out.spec = spec;
  StopWatch watch;

  auto scenario_result = Scenario::Create();
  if (!scenario_result.ok()) {
    out.error = scenario_result.status().ToString();
    out.wall_ms = watch.ElapsedMillis();
    return out;
  }
  std::unique_ptr<Scenario> scenario = std::move(scenario_result).ValueOrDie();

  auto engine_result =
      MakeEngine(spec.engine, scenario->network(), spec.config.worker_slots);
  if (!engine_result.ok()) {
    out.error = engine_result.status().ToString();
    out.wall_ms = watch.ElapsedMillis();
    return out;
  }
  std::unique_ptr<core::EngineBase> engine =
      std::move(engine_result).ValueOrDie();

  Client client(scenario.get(), engine.get(), spec.config);
  if (spec.observe) {
    out.trace = std::make_shared<obs::TraceRecorder>();
    out.metrics = std::make_shared<obs::MetricsRegistry>();
    obs::ObsContext obs(out.trace.get(), out.metrics.get());
    engine->SetObserver(obs);
    scenario->network()->SetObserver(obs);
    client.SetObserver(obs);
  }

  auto run_result = client.Run();
  if (spec.keep_records) out.records = engine->records();
  if (run_result.ok()) {
    out.ok = true;
    out.result = std::move(run_result).ValueOrDie();
    out.monitor_csv = Monitor::ToCsv(out.result.per_process);
  } else {
    out.error = run_result.status().ToString();
  }

  if (spec.post_run_mutator) spec.post_run_mutator(scenario.get());
  if (spec.digest_state) {
    auto digest = std::make_shared<conformance::StateDigest>(
        conformance::CaptureStateDigest(scenario.get()));
    digest->run_ok = out.ok;
    digest->run_error = out.error;
    if (out.ok) {
      digest->monitor_csv = out.monitor_csv;
      digest->verification = out.result.verification.ToString();
      digest->retries = out.result.retries;
      digest->dead_letters = out.result.dead_letters;
    }
    out.digest = std::move(digest);
  }

  out.wall_ms = watch.ElapsedMillis();
  return out;
}

}  // namespace

RunnerPool::RunnerPool(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

RunOutcome RunnerPool::ExecuteOne(const RunSpec& spec) {
  return CaptureExceptions([&spec] { return ExecuteUncaptured(spec); }, spec);
}

std::vector<RunOutcome> RunnerPool::Run(const std::vector<RunSpec>& specs) {
  std::vector<std::function<RunOutcome()>> tasks;
  tasks.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    tasks.push_back([spec] { return ExecuteOne(spec); });
  }
  return RunTasks(std::move(tasks));
}

std::vector<RunOutcome> RunnerPool::RunTasks(
    std::vector<std::function<RunOutcome()>> tasks) {
  std::vector<RunOutcome> outcomes(tasks.size());

  // A throwing task is an outcome, not a pool failure: record it and keep
  // draining — co-scheduled runs are isolated by construction.
  auto run_task = [&](size_t i) {
    outcomes[i] = CaptureExceptions(tasks[i], RunSpec());
  };

  if (jobs_ <= 1 || tasks.size() <= 1) {
    // Legacy serial sweep: no threads, calling-thread execution.
    for (size_t i = 0; i < tasks.size(); ++i) run_task(i);
    return outcomes;
  }

  std::atomic<size_t> next{0};
  size_t n_threads = std::min(static_cast<size_t>(jobs_), tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= outcomes.size()) return;
        run_task(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return outcomes;
}

std::string RunnerPool::RenderReport(const std::vector<RunOutcome>& outcomes,
                                     double pool_wall_ms) {
  std::string out;
  out += StrFormat("%-36s %10s %10s %10s %12s %8s %12s %10s\n", "config",
                   "P03 NAVG+", "P09 NAVG+", "P13 NAVG+", "sum NAVG+",
                   "retries", "dead_letters", "wall ms");
  double summed_wall_ms = 0.0;
  for (const RunOutcome& o : outcomes) {
    summed_wall_ms += o.wall_ms;
    if (!o.ok) {
      out += StrFormat("%-36s FAILED: %s\n", o.spec.DisplayLabel().c_str(),
                       o.error.c_str());
      continue;
    }
    double total = 0.0;
    for (const auto& m : o.result.per_process) total += m.navg_plus_tu;
    out += StrFormat(
        "%-36s %10.1f %10.1f %10.1f %12.1f %8llu %12llu %10.0f\n",
        o.spec.DisplayLabel().c_str(), o.result.NavgPlus("P03"),
        o.result.NavgPlus("P09"), o.result.NavgPlus("P13"), total,
        static_cast<unsigned long long>(o.result.retries),
        static_cast<unsigned long long>(o.result.dead_letters), o.wall_ms);
  }
  if (pool_wall_ms > 0.0 && summed_wall_ms > 0.0) {
    out += StrFormat(
        "pool wall-clock %.0f ms for %.0f ms of runs — %.2fx speedup\n",
        pool_wall_ms, summed_wall_ms, summed_wall_ms / pool_wall_ms);
  }
  return out;
}

}  // namespace harness
}  // namespace dipbench
