#include "src/dipbench/config.h"

#include "src/common/string_util.h"
#include "src/net/fault.h"

namespace dipbench {

double TrafficShape::MultiplierFor(const std::string& stream, int period,
                                   int periods, uint64_t seed) const {
  switch (kind) {
    case Kind::kSteady:
      return scale;
    case Kind::kBurst: {
      // One private draw per (seed, stream, period): whether a period
      // bursts cannot depend on evaluation order or on other streams.
      Rng rng(seed ^ SeedHash("traffic/" + stream) ^
              (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(period + 1)));
      return rng.NextBool(burst_probability) ? amplitude : scale;
    }
    case Kind::kFlashSale: {
      int spike = spike_period >= 0 ? spike_period : periods / 2;
      if (period == spike) return amplitude;
      if (period == spike - 1 || period == spike + 1) {
        return (scale + amplitude) / 2.0;
      }
      return scale;
    }
    case Kind::kRamp: {
      if (periods <= 1) return ramp_to;
      double f = static_cast<double>(period) / (periods - 1);
      return scale + (ramp_to - scale) * f;
    }
  }
  return scale;
}

Status ScaleConfig::CompileFaultPlan(net::FaultPlan* plan) const {
  // Endpoint overrides replace the defaults wholesale under FaultPlan's
  // ProfileFor, so a profile created for an endpoint-scoped entry starts
  // from a snapshot of the defaults' *base* rates, taken before any
  // default-scoped window below mutates them.
  const net::FaultProfile base = plan->defaults;
  auto profile_for = [&](const std::string& endpoint) -> net::FaultProfile* {
    if (endpoint.empty()) return &plan->defaults;
    auto [it, inserted] = plan->per_endpoint.try_emplace(endpoint, base);
    (void)inserted;
    return &it->second;
  };

  for (const OutageWindow& outage : outages) {
    net::FaultProfile* profile = profile_for(outage.endpoint);
    if (profile->outage_calls > 0) {
      return Status::InvalidArgument(
          "outage '" + outage.name + "': " +
          (outage.endpoint.empty() ? std::string("the default profile")
                                   : "endpoint '" + outage.endpoint + "'") +
          " already has an outage window");
    }
    profile->outage_after_calls = outage.after_calls;
    profile->outage_calls = outage.calls;
  }

  for (const ErrorPhaseSpec& phase : error_phases) {
    net::FaultProfile* profile = profile_for(phase.endpoint);
    profile->phases.push_back(
        net::FaultPhase{phase.after_calls, phase.calls, phase.error_rate});
  }
  return Status::OK();
}

namespace {

const char* ShapeKindName(TrafficShape::Kind kind) {
  switch (kind) {
    case TrafficShape::Kind::kSteady:
      return "steady";
    case TrafficShape::Kind::kBurst:
      return "burst";
    case TrafficShape::Kind::kFlashSale:
      return "flash_sale";
    case TrafficShape::Kind::kRamp:
      return "ramp";
  }
  return "?";
}

}  // namespace

std::string ScaleConfig::ToString() const {
  std::string out = StrFormat(
      "ScaleConfig{d=%.3f, t=%.2f, f=%s, periods=%d, seed=%llu, "
      "worker_slots=%d",
      datasize, time_scale, DistributionToString(distribution), periods,
      static_cast<unsigned long long>(seed), worker_slots);
  // Fault/recovery knobs appear only when switched on, so the rendering of
  // every pre-existing configuration stays unchanged.
  if (fault_rate > 0.0 || fault_spike_rate > 0.0) {
    out += StrFormat(", q=%.3f, spike=%.3f@%.1ftu", fault_rate,
                     fault_spike_rate, fault_spike_tu);
  }
  if (retry_max_attempts > 1 || retry_dead_letter) {
    out += StrFormat(", retries=%d, backoff=%.1ftu, dead_letter=%s",
                     retry_max_attempts, retry_backoff_tu,
                     retry_dead_letter ? "on" : "off");
  }
  // Scenario-manifest extensions, rendered only when present.
  if (!traffic.empty()) {
    out += ", traffic={";
    bool first = true;
    for (const auto& [stream, shape] : traffic) {
      if (!first) out += ", ";
      first = false;
      out += stream + ":" + ShapeKindName(shape.kind);
      if (shape.late_fraction > 0.0 && shape.late_delay_tu > 0.0) {
        out += StrFormat("+late(%.0f%%@%.0ftu)", 100.0 * shape.late_fraction,
                         shape.late_delay_tu);
      }
    }
    out += "}";
  }
  if (!outages.empty() || !error_phases.empty()) {
    out += StrFormat(", outages=%zu, error_phases=%zu", outages.size(),
                     error_phases.size());
  }
  if (!source_error_rates.empty()) {
    out += StrFormat(", dirty_sources=%zu", source_error_rates.size());
  }
  out += "}";
  return out;
}

}  // namespace dipbench
