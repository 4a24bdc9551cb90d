// Wall-clock benchmark binary: runs one DIPBench workload (a scenario
// manifest) repeatedly for a fixed time and prints its metrics.
//
//   dipbench_perf --manifest=<file.json> --seed=<n> --seconds=<s>
//                 --trace=<0|1> [--expect-monitor=<hex>]
//                 [--expect-state=<hex>]
//   dipbench_perf --selftest
//
// Each repetition builds a fresh Scenario and engine, deploys, and times
// one Client::Run through a forwarding engine (probe.h) that stamps every
// call the Client makes. --trace=0 reports the end-to-end metrics;
// --trace=1 alternates untraced and traced repetitions (traced = metrics
// registry, allocation counting and CPU clocks) and reports the per-layer
// metrics. Every repetition passes an output gate: Client::Run OK (which
// includes VerifyIntegration), no failed or dead-lettered instance, and
// the Monitor CSV hash and landscape state hash equal to the expected
// values, or else to the first repetition's. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/alloc_hook.h"
#include "perfbench/src/probe.h"
#include "src/common/flags.h"
#include "src/conformance/digest.h"
#include "src/dipbench/client.h"
#include "src/harness/harness.h"
#include "src/obs/metrics.h"
#include "src/scenario/manifest.h"

using namespace dipbench;
using perfbench::Median;
using perfbench::RunProfile;
using perfbench::Stamp;

namespace {

/// Repetitions per invocation never run past this, whatever --seconds says.
constexpr double kMaxWallMs = 120e3;
/// Set-up-only samples taken back to back before every timed repetition.
constexpr int kSetupsPerRep = 8;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Everything one repetition builds before Client::Run.
struct World {
  std::unique_ptr<obs::MetricsRegistry> registry;  // outlives the engine
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<core::EngineBase> engine;
  std::unique_ptr<perfbench::ProbedEngine> probe;
  std::unique_ptr<Client> client;
  double scenario_ms = 0.0;  ///< Scenario::Create
  double deploy_ms = 0.0;    ///< engine construction + DeployProcesses
};

Result<World> SetUp(const harness::RunSpec& spec, bool traced) {
  World w;
  Stamp t0 = perfbench::Now(false);
  DIP_ASSIGN_OR_RETURN(w.scenario, Scenario::Create());
  Stamp t1 = perfbench::Now(false);
  DIP_ASSIGN_OR_RETURN(w.engine,
                       harness::MakeEngine(spec.engine, w.scenario->network(),
                                           spec.config.worker_slots));
  w.probe = std::make_unique<perfbench::ProbedEngine>(w.engine.get(), traced);
  w.client = std::make_unique<Client>(w.scenario.get(), w.probe.get(),
                                      spec.config);
  DIP_RETURN_NOT_OK(w.client->DeployProcesses());
  Stamp t2 = perfbench::Now(false);
  w.scenario_ms = (t1 - t0).ms;
  w.deploy_ms = (t2 - t1).ms;
  if (traced) {
    w.registry = std::make_unique<obs::MetricsRegistry>();
    obs::ObsContext obs(nullptr, w.registry.get());
    w.engine->SetObserver(obs);
    w.scenario->network()->SetObserver(obs);
  }
  return w;
}

/// Sum of every registry counter named "endpoint.<name>.<suffix>".
uint64_t EndpointSum(const obs::MetricsRegistry& reg, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind("endpoint.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += counter.value();
    }
  }
  return total;
}

uint64_t CounterValue(const obs::MetricsRegistry& reg, const std::string& name) {
  const obs::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// What one repetition measured.
struct Rep {
  bool traced = false;
  RunProfile profile;
  perfbench::RepCheck check;
  std::string error;  ///< set-up, run or attribution failure
  double calibration_ms = 0.0;    ///< calibration time paired with the run
  double fastest_setup_ms = 0.0;  ///< fastest set-up sample taken before it
  // Work counts, traced repetitions only.
  double instances = 0, dispatches = 0;
  double net_round_trips = 0, net_rows = 0, net_bytes = 0, net_ws_rows = 0;
  double rows_read = 0, rows_written = 0;
};

Rep RunRep(const harness::RunSpec& spec, bool traced, double* peak_rss_mib) {
  Rep rep;
  rep.traced = traced;
  Result<World> world = SetUp(spec, traced);
  if (!world.ok()) {
    rep.error = world.status().ToString();
    return rep;
  }
  World& w = *world;
  w.probe->ClearCalls();

  perfbench::SetAllocCounting(traced);
  const Stamp begin = perfbench::Now(traced);
  Result<BenchmarkResult> result = w.client->Run();
  const Stamp end = perfbench::Now(traced);
  perfbench::SetAllocCounting(false);
  if (peak_rss_mib != nullptr) *peak_rss_mib = PeakRssMib();

  for (const perfbench::Call& c : w.probe->calls()) {
    if (c.kind == perfbench::CallKind::kSubmit) ++rep.check.submitted;
  }
  rep.check.run_ok = result.ok();
  if (!result.ok()) {
    rep.error = result.status().ToString();
  } else {
    rep.check.monitor_hash = Hex(conformance::HashBytes(
        0, Monitor::ToCsv(result->per_process)));
  }
  for (const core::InstanceRecord& r : w.engine->records()) {
    if (!r.ok || r.dead_lettered) ++rep.check.failed_instances;
  }
  Result<RunProfile> profile =
      perfbench::Attribute(w.probe->calls(), begin, end);
  if (profile.ok()) {
    rep.profile = std::move(profile).ValueOrDie();
  } else if (rep.error.empty()) {
    rep.error = "attribution: " + profile.status().ToString();
  }

  if (traced) {
    for (const std::string& name : w.scenario->DatabaseNames()) {
      Result<Database*> db = w.scenario->db(name);
      if (!db.ok()) continue;
      rep.rows_read += static_cast<double>((*db)->TotalRowsRead());
      rep.rows_written += static_cast<double>((*db)->TotalRowsWritten());
    }
    const obs::MetricsRegistry& reg = *w.registry;
    rep.instances = static_cast<double>(CounterValue(reg, "engine.instances"));
    rep.dispatches =
        static_cast<double>(CounterValue(reg, "engine.operator_dispatches"));
    rep.net_round_trips = static_cast<double>(EndpointSum(reg, ".round_trips"));
    rep.net_rows = static_cast<double>(EndpointSum(reg, ".rows"));
    rep.net_bytes = static_cast<double>(EndpointSum(reg, ".bytes"));
    for (const char* ws :
         {Scenario::kBeijing, Scenario::kSeoul, Scenario::kHongkong}) {
      rep.net_ws_rows += static_cast<double>(
          CounterValue(reg, "endpoint." + std::string(ws) + ".rows"));
    }
  }
  // The digest scan reads every table, so it comes after the storage
  // counters.
  rep.check.state_hash =
      Hex(conformance::CaptureStateDigest(w.scenario.get()).state_hash);
  return rep;
}

/// One reported metric with its sample count.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// Median over the repetitions in `reps` of `get(rep)`.
Metric RepMedian(const std::vector<const Rep*>& reps, std::string name,
                 std::string unit, const std::function<double(const Rep&)>& get) {
  std::vector<double> values;
  for (const Rep* r : reps) values.push_back(get(*r));
  return {std::move(name), Median(values), std::move(unit), values.size()};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up time of one sample, split as in World.
struct SetupSample {
  double scenario_ms = 0.0;
  double deploy_ms = 0.0;
};

double MinOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// The calibrated summary of `reps` (zero when it cannot be formed).
perfbench::CalibratedRun CalibratedOf(const std::vector<const Rep*>& reps) {
  std::vector<const RunProfile*> runs;
  std::vector<double> calibration_ms;
  for (const Rep* r : reps) {
    runs.push_back(&r->profile);
    calibration_ms.push_back(r->calibration_ms);
  }
  Result<perfbench::CalibratedRun> c = perfbench::Calibrated(runs, calibration_ms);
  return c.ok() ? *c : perfbench::CalibratedRun{};
}

/// End-to-end times are calibrated medians over the repetitions: run_s and
/// period_ms_p50 from the calibrated summary, setup_s as the median over
/// repetitions of the fastest set-up sample taken before each, over its
/// calibration time. All read as times at the reference speed.
std::vector<Metric> EndToEndMetrics(const std::vector<Rep>& reps,
                                    double peak_rss_mib) {
  std::vector<const Rep*> all;
  std::vector<double> setup_ms, raw_setup_ms, raw_run_ms, calibration_ms;
  for (const Rep& r : reps) {
    all.push_back(&r);
    setup_ms.push_back(r.fastest_setup_ms * perfbench::kReferenceCalibrationMs /
                       r.calibration_ms);
    raw_setup_ms.push_back(r.fastest_setup_ms);
    raw_run_ms.push_back(r.profile.run.ms);
    calibration_ms.push_back(r.calibration_ms);
  }
  const perfbench::CalibratedRun run = CalibratedOf(all);
  std::printf("wall medians: run %.4f s, set-up %.6f s; calibration median "
              "%.3f ms (reference %.0f ms)\n",
              Median(raw_run_ms) / 1e3, Median(raw_setup_ms) / 1e3,
              Median(calibration_ms), perfbench::kReferenceCalibrationMs);
  return {
      {"run_s", run.TotalMs() / 1e3, "s", all.size()},
      {"period_ms_p50", Median(run.period_ms), "ms", run.period_ms.size()},
      {"setup_s", Median(setup_ms) / 1e3, "s", setup_ms.size()},
      {"peak_rss_mib", peak_rss_mib, "MiB", 1},
  };
}

/// Per-layer metrics are medians over the traced repetitions.
std::vector<Metric> PerLayerMetrics(const std::vector<Rep>& reps,
                                    const std::vector<SetupSample>& setups) {
  std::vector<const Rep*> traced, untraced;
  for (const Rep& r : reps) (r.traced ? traced : untraced).push_back(&r);
  std::vector<double> scenario_ms, deploy_ms;
  for (const SetupSample& s : setups) {
    scenario_ms.push_back(s.scenario_ms);
    deploy_ms.push_back(s.deploy_ms);
  }
  using P = const RunProfile&;
  auto prof = [&](std::string name, std::string unit,
                  std::function<double(P)> get) {
    return RepMedian(traced, std::move(name), std::move(unit),
                     [get](const Rep& r) { return get(r.profile); });
  };
  auto count = [&](std::string name, double Rep::*field) {
    return RepMedian(traced, std::move(name), "count",
                     [field](const Rep& r) { return r.*field; });
  };
  auto bulk = [](P p) {
    Stamp s;
    for (size_t i = 1; i < p.steps.size(); ++i) s += p.steps[i];
    return s;
  };

  std::vector<Metric> m = {
      {"setup.scenario_ms", MinOf(scenario_ms), "ms", scenario_ms.size()},
      {"setup.deploy_ms", MinOf(deploy_ms), "ms", deploy_ms.size()},
      prof("client.pre_ms", "ms", [](P p) { return p.pre.ms; }),
      prof("client.gen_ms", "ms", [](P p) { return p.gen.ms; }),
      prof("client.gen_share", "fraction",
           [](P p) { return Ratio(p.gen.ms, p.run.ms); }),
      prof("monitor.ms", "ms", [](P p) { return p.monitor.ms; }),
      prof("verify.ms", "ms", [](P p) { return p.verify.ms; }),
      prof("engine.submit_ms", "ms", [](P p) { return p.submit.ms; }),
  };
  for (size_t i = 0; i < perfbench::kStepNames.size(); ++i) {
    m.push_back(prof(std::string("engine.") + perfbench::kStepNames[i] + "_ms",
                     "ms", [i](P p) { return p.steps[i].ms; }));
  }
  const std::vector<Metric> rest = {
      prof("engine.ab_us_per_instance", "us",
           [](P p) {
             return Ratio(p.steps[0].ms * 1e3,
                          static_cast<double>(p.ab_instances));
           }),
      prof("engine.cpu_util", "cpu_s/s",
           [](P p) {
             Stamp s;
             for (const Stamp& step : p.steps) s += step;
             return Ratio(s.cpu_ms, s.ms);
           }),
      count("engine.instances", &Rep::instances),
      count("engine.operator_dispatches", &Rep::dispatches),
      count("net.round_trips", &Rep::net_round_trips),
      count("net.rows", &Rep::net_rows),
      RepMedian(traced, "net.bytes", "bytes",
                [](const Rep& r) { return r.net_bytes; }),
      count("net.ws_rows", &Rep::net_ws_rows),
      count("storage.rows_read", &Rep::rows_read),
      count("storage.rows_written", &Rep::rows_written),
      RepMedian(traced, "storage.rows_read_per_instance", "rows",
                [](const Rep& r) { return Ratio(r.rows_read, r.instances); }),
      prof("alloc.count", "count",
           [](P p) { return static_cast<double>(p.run.allocs); }),
      prof("alloc.bytes", "bytes",
           [](P p) { return static_cast<double>(p.run.alloc_bytes); }),
      prof("alloc.gen_count", "count",
           [](P p) { return static_cast<double>(p.gen.allocs); }),
      prof("alloc.gen_bytes", "bytes",
           [](P p) { return static_cast<double>(p.gen.alloc_bytes); }),
      prof("alloc.ab_count", "count",
           [](P p) { return static_cast<double>(p.steps[0].allocs); }),
      prof("alloc.ab_bytes", "bytes",
           [](P p) { return static_cast<double>(p.steps[0].alloc_bytes); }),
      prof("alloc.bulk_count", "count",
           [bulk](P p) { return static_cast<double>(bulk(p).allocs); }),
      prof("alloc.bulk_bytes", "bytes",
           [bulk](P p) { return static_cast<double>(bulk(p).alloc_bytes); }),
      {"trace.overhead_frac",
       CalibratedOf(traced).TotalMs() / CalibratedOf(untraced).TotalMs() - 1.0,
       "fraction", traced.size() + untraced.size()},
      prof("unattributed_ms", "ms", [](P p) { return p.UnattributedMs(); }),
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Usage(const flags::FlagSet& flags, const std::string& why) {
  std::fprintf(stderr, "%s\n%s", why.c_str(), flags.Usage().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("dipbench_perf");
  flags.Define("manifest", "workload scenario manifest (JSON)")
      .Define("seed", "workload seed; replaces the manifest's seed")
      .Define("seconds", "measure for this many seconds")
      .Define("trace", "0 = end-to-end metrics, 1 = per-layer metrics")
      .Define("expect-monitor", "expected hex hash of the Monitor CSV")
      .Define("expect-state", "expected hex landscape state hash")
      .Define("selftest", "run the benchmark's self-tests and exit");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    return Usage(flags, st.ToString());
  }
  if (flags.Has("selftest")) {
    const int failures = perfbench::RunSelfTests();
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }

  Result<double> seconds = flags.GetDouble("seconds", 10.0);
  Result<int> trace = flags.GetInt("trace", 0);
  const std::string seed_text = flags.Get("seed");
  if (!seconds.ok() || *seconds <= 0.0 || !trace.ok() ||
      (*trace != 0 && *trace != 1) || seed_text.empty() ||
      seed_text.find_first_not_of("0123456789") != std::string::npos ||
      seed_text.size() > 19) {
    return Usage(flags, "need --manifest, a numeric --seed, --seconds > 0 "
                        "and --trace=0|1");
  }
  const bool traced_mode = *trace == 1;

  Result<scenario::ScenarioManifest> manifest =
      scenario::ScenarioManifest::Load(flags.Get("manifest"));
  if (!manifest.ok()) return Usage(flags, manifest.status().ToString());
  std::vector<harness::RunSpec> specs = manifest->Expand();
  if (specs.size() != 1) {
    return Usage(flags, "a workload manifest must expand to exactly one run");
  }
  harness::RunSpec spec = specs.front();
  spec.config.seed = std::stoull(seed_text);

  // A warm-up repetition first: it passes the output gate and gives the
  // peak RSS, but its cold-heap timings are not reported. Then, until the
  // time is up, a batch of set-up samples, a calibration sample and one
  // timed repetition: at least three untraced repetitions, or at least one
  // untraced + traced pair. A last calibration sample closes the run; each
  // repetition is paired with the mean of the samples before and after it.
  const Stamp start = perfbench::Now(false);
  double peak_rss_mib = 0.0;
  std::vector<Rep> reps = {RunRep(spec, false, &peak_rss_mib)};
  std::vector<SetupSample> setups;
  std::vector<double> fastest_setup_ms, calibration_ms;
  size_t n_traced = 0, n_untraced = 0;
  while (reps.back().error.empty()) {
    const double elapsed = (perfbench::Now(false) - start).ms;
    const bool enough = traced_mode ? (n_traced >= 1 && n_untraced >= 1)
                                    : n_untraced >= 3;
    if ((enough && elapsed >= *seconds * 1e3) || elapsed >= kMaxWallMs) break;
    std::vector<double> setup_ms;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      Result<World> w = SetUp(spec, false);
      if (!w.ok()) continue;
      setups.push_back({w->scenario_ms, w->deploy_ms});
      setup_ms.push_back(w->scenario_ms + w->deploy_ms);
    }
    fastest_setup_ms.push_back(MinOf(setup_ms));
    calibration_ms.push_back(perfbench::CalibrationMs());
    const bool traced = traced_mode && n_untraced > n_traced;
    reps.push_back(RunRep(spec, traced, nullptr));
    ++(traced ? n_traced : n_untraced);
  }
  if (!calibration_ms.empty()) calibration_ms.push_back(perfbench::CalibrationMs());
  for (size_t i = 1; i < reps.size(); ++i) {
    reps[i].calibration_ms = (calibration_ms[i - 1] + calibration_ms[i]) / 2.0;
    reps[i].fastest_setup_ms = fastest_setup_ms[i - 1];
  }
  const std::vector<Rep> timed(reps.begin() + 1, reps.end());
  for (const Rep& r : reps) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "repetition failed: %s\n", r.error.c_str());
    }
  }

  // Output gate.
  std::string want_monitor = flags.Get("expect-monitor");
  std::string want_state = flags.Get("expect-state");
  if (want_monitor.empty()) want_monitor = reps.front().check.monitor_hash;
  if (want_state.empty()) want_state = reps.front().check.state_hash;
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const Rep& r : reps) {
    const uint64_t f = perfbench::FailedInstances(r.check, want_monitor,
                                                  want_state);
    attempted += std::max<uint64_t>(r.check.submitted, 1);
    failed += f;
    if (f != 0 || !r.error.empty()) correct = false;
  }

  std::printf("workload %s seed %s: warm-up + %zu untraced + %zu traced "
              "repetitions\n",
              manifest->name.c_str(), seed_text.c_str(), n_untraced, n_traced);
  std::printf("monitor csv %s, state %s (expected %s, %s)\n",
              reps.front().check.monitor_hash.c_str(),
              reps.front().check.state_hash.c_str(), want_monitor.c_str(),
              want_state.c_str());
  std::printf("output gate: %s, %" PRIu64 " of %" PRIu64
              " instances failed\n",
              correct ? "OK" : "FAILED", failed, attempted);
  std::printf("run_s per repetition:");
  for (const Rep& r : timed) {
    std::printf(" %.3f%s", r.profile.run.ms / 1e3, r.traced ? "t" : "");
  }
  std::printf("\n");
  std::vector<Metric> metrics = traced_mode
                                    ? PerLayerMetrics(timed, setups)
                                    : EndToEndMetrics(timed, peak_rss_mib);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-9s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
