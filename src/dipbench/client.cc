#include "src/dipbench/client.h"

#include <algorithm>

#include "src/core/retry.h"
#include "src/dipbench/processes.h"
#include "src/net/fault.h"
#include "src/dipbench/schedule.h"

namespace dipbench {

std::string BenchmarkResult::RenderPlot() const {
  return Monitor::RenderPlot(per_process, config);
}

double BenchmarkResult::NavgPlus(const std::string& process_id) const {
  for (const auto& m : per_process) {
    if (m.process_id == process_id) return m.navg_plus_tu;
  }
  return 0.0;
}

namespace {

/// Render lane for the Client's period/stream spans — far above any
/// plausible worker-slot track id.
constexpr int kClientTrack = 96;

}  // namespace

Client::Client(Scenario* scenario, core::IntegrationSystem* engine,
               const ScaleConfig& config)
    : scenario_(scenario),
      engine_(engine),
      config_(config),
      initializer_(scenario, config) {}

void Client::SetObserver(obs::ObsContext obs) {
  obs_ = obs;
  if (obs_.trace() != nullptr) {
    obs_.trace()->NameTrack(kClientTrack, "client schedule");
  }
}

Status Client::DeployProcesses() {
  for (const auto& def : BuildProcesses()) {
    Status st = engine_->Deploy(def);
    if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  }
  return Status::OK();
}

Status Client::SubmitSeries(const std::string& process_id, int k,
                            double t0_ms) {
  // The shaped series equals Table II exactly when the config carries no
  // traffic shape for the process's stream (the compiled-in schedule).
  std::vector<double> series =
      Schedule::ShapedSeriesTu(process_id, k, config_);
  auto share = [](xml::Node doc) {
    return std::make_shared<const xml::Node>(std::move(doc));
  };
  for (size_t m = 0; m < series.size(); ++m) {
    core::ProcessEvent ev;
    ev.process_id = process_id;
    ev.when = t0_ms + config_.TuToMs(series[m]);
    ev.period = k;
    int idx = static_cast<int>(m) + 1;
    if (process_id == "P01") {
      ev.message = share(initializer_.MakeBeijingCustomer(k, idx));
    } else if (process_id == "P02") {
      ev.message = share(initializer_.MakeMdmCustomer(k, idx));
    } else if (process_id == "P04") {
      ev.message = share(initializer_.MakeViennaOrder(k, idx));
    } else if (process_id == "P08") {
      ev.message = share(initializer_.MakeHongkongSale(k, idx));
    } else if (process_id == "P10") {
      ev.message = share(initializer_.MakeSanDiegoOrder(k, idx));
    }
    DIP_RETURN_NOT_OK(engine_->Submit(std::move(ev)));
  }
  return Status::OK();
}

Status Client::RunPeriod(int k) {
  obs::TraceRecorder* rec = obs_.trace();
  uint64_t period_span = 0;
  if (rec != nullptr) {
    period_span = rec->BeginSpan("period " + std::to_string(k),
                                 obs::Category::kNone, engine_->Now(),
                                 kClientTrack);
  }
  obs_.Count("client.periods");

  // Uninitialize all external systems + initialize the source systems.
  DIP_RETURN_NOT_OK(initializer_.InitializePeriod(k));

  const double gap = config_.TuToMs(Schedule::kChainGapTu);
  double t0 = engine_->Now() + gap;

  // Last event time of a (shaped) E1 series, for the dependency-driven
  // time events below. With late-arrival windows the series is no longer
  // monotone, so take the max rather than the final element; for the
  // unshaped schedule both are the same double.
  auto series_end = [&](const std::string& id) {
    double end = 0.0;
    for (double t : Schedule::ShapedSeriesTu(id, k, config_)) {
      end = std::max(end, t);
    }
    return end;
  };

  // --- Streams A and B (concurrent) ---
  DIP_RETURN_NOT_OK(SubmitSeries("P01", k, t0));
  DIP_RETURN_NOT_OK(SubmitSeries("P02", k, t0));
  DIP_RETURN_NOT_OK(SubmitSeries("P04", k, t0));
  DIP_RETURN_NOT_OK(SubmitSeries("P08", k, t0));
  DIP_RETURN_NOT_OK(SubmitSeries("P10", k, t0));

  auto single = [&](const std::string& id, double when) {
    core::ProcessEvent ev;
    ev.process_id = id;
    ev.when = when;
    ev.period = k;
    return engine_->Submit(std::move(ev));
  };

  // tau_1-driven time events, approximated on the schedule axis so they
  // interleave with the message streams.
  double end_a = std::max(series_end("P01"), series_end("P02"));
  DIP_RETURN_NOT_OK(single("P03", t0 + config_.TuToMs(end_a) + gap));
  double end_p04 = series_end("P04");
  DIP_RETURN_NOT_OK(single("P05", t0 + config_.TuToMs(end_p04) + gap));
  DIP_RETURN_NOT_OK(single("P06", t0 + config_.TuToMs(end_p04) + 2 * gap));
  DIP_RETURN_NOT_OK(single("P07", t0 + config_.TuToMs(end_p04) + 3 * gap));
  double end_p08 = series_end("P08");
  DIP_RETURN_NOT_OK(single("P09", t0 + config_.TuToMs(end_p08) + gap));
  uint64_t stream_ab = 0;
  if (rec != nullptr) {
    stream_ab = rec->BeginSpan("streams A+B", obs::Category::kNone, t0,
                               kClientTrack);
  }
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());

  // P11 = tau_1(Stream B): after the whole stream drained.
  DIP_RETURN_NOT_OK(single("P11", engine_->Now() + gap));
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());
  if (rec != nullptr) rec->EndSpan(stream_ab, engine_->Now());

  // --- Stream C (serialized) ---
  double t0_c = engine_->Now() + gap;
  uint64_t stream_c = 0;
  if (rec != nullptr) {
    stream_c = rec->BeginSpan("stream C", obs::Category::kNone, t0_c,
                              kClientTrack);
  }
  DIP_RETURN_NOT_OK(single("P12", t0_c));
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());
  DIP_RETURN_NOT_OK(single("P13", std::max(engine_->Now(),
                                           t0_c + config_.TuToMs(10.0))));
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());
  if (rec != nullptr) rec->EndSpan(stream_c, engine_->Now());

  // --- Stream D (serialized) ---
  uint64_t stream_d = 0;
  if (rec != nullptr) {
    stream_d = rec->BeginSpan("stream D", obs::Category::kNone,
                              engine_->Now() + gap, kClientTrack);
  }
  DIP_RETURN_NOT_OK(single("P14", engine_->Now() + gap));
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());
  DIP_RETURN_NOT_OK(single("P15", engine_->Now() + gap));
  DIP_RETURN_NOT_OK(engine_->RunUntilIdle());
  if (rec != nullptr) {
    rec->EndSpan(stream_d, engine_->Now());
    rec->EndSpan(period_span, engine_->Now());
  }
  return Status::OK();
}

Result<BenchmarkResult> Client::Run() {
  StopWatch watch;
  // --- pre phase ---
  DIP_RETURN_NOT_OK(DeployProcesses());
  engine_->Reset();

  // Fault injection + recovery. With the default config both calls are
  // no-ops: InstallFaults removes any injectors, the retry policy is the
  // legacy one-attempt/abort — the run stays byte-identical.
  net::FaultPlan faults = net::FaultPlan::Uniform(config_.fault_rate);
  faults.defaults.spike_rate = config_.fault_spike_rate;
  faults.defaults.spike_ms = config_.TuToMs(config_.fault_spike_tu);
  // Scenario-manifest fault composition: named outage windows and
  // error-rate phases compile onto the plan (no-op when the config
  // declares none).
  DIP_RETURN_NOT_OK(config_.CompileFaultPlan(&faults));
  scenario_->network()->InstallFaults(faults, config_.seed);

  core::RetryPolicy retry;
  retry.max_attempts = config_.retry_max_attempts;
  retry.backoff_base_ms = config_.TuToMs(config_.retry_backoff_tu);
  retry.backoff_factor = config_.retry_backoff_factor;
  retry.instance_timeout_ms = config_.TuToMs(config_.instance_timeout_tu);
  retry.dead_letter = config_.retry_dead_letter;
  engine_->SetRetryPolicy(retry);

  // --- work phase ---
  for (int k = 0; k < config_.periods; ++k) {
    DIP_RETURN_NOT_OK(RunPeriod(k).WithContext(
        "period " + std::to_string(k)));
  }

  // --- post phase ---
  Monitor monitor(config_);
  monitor.Collect(engine_->records());
  BenchmarkResult result;
  result.config = config_;
  result.engine_name = engine_->name();
  result.per_process = monitor.Summarize();
  for (const auto& r : engine_->records()) {
    if (r.attempts > 1) result.retries += static_cast<uint64_t>(r.attempts - 1);
    if (r.dead_lettered) ++result.dead_letters;
  }
  DIP_ASSIGN_OR_RETURN(result.verification,
                       VerifyIntegration(scenario_, result.dead_letters));
  result.virtual_ms = engine_->Now();
  result.wall_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace dipbench
