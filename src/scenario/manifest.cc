#include "src/scenario/manifest.h"

#include <climits>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/json.h"
#include "src/common/string_util.h"
#include "src/net/fault.h"

namespace dipbench {
namespace scenario {

namespace {

/// Strict, line-anchored manifest reader. Every rejection names the
/// origin, the position of the offending value, and what was expected —
/// the schema is the error messages.
class ManifestReader {
 public:
  explicit ManifestReader(const std::string& origin) : origin_(origin) {}

  Status Read(const json::Value& root, ScenarioManifest* out) {
    out_ = out;
    if (!root.is_object()) {
      return Err(root, "manifest must be a JSON object, got " +
                           std::string(root.TypeName()));
    }
    for (const auto& [key, value] : root.members) {
      if (key == "name") {
        DIP_ASSIGN_OR_RETURN(out->name, Str(value, "name"));
      } else if (key == "description") {
        DIP_ASSIGN_OR_RETURN(out->description, Str(value, "description"));
      } else if (key == "engine") {
        DIP_ASSIGN_OR_RETURN(std::string engine, Str(value, "engine"));
        DIP_RETURN_NOT_OK(CheckEngine(value, engine));
        out->engines.push_back(engine);
      } else if (key == "engines") {
        if (!value.is_array()) return Expected(value, "engines", "an array");
        for (const json::Value& item : value.items) {
          DIP_ASSIGN_OR_RETURN(std::string engine, Str(item, "engines entry"));
          DIP_RETURN_NOT_OK(CheckEngine(item, engine));
          out->engines.push_back(engine);
        }
        if (out->engines.empty()) {
          return Err(value, "'engines' must list at least one engine");
        }
      } else if (key == "config") {
        DIP_RETURN_NOT_OK(ReadConfig(value, &out->config));
      } else if (key == "traffic") {
        DIP_RETURN_NOT_OK(ReadTraffic(value, &out->config));
      } else if (key == "faults") {
        DIP_RETURN_NOT_OK(ReadFaults(value, &out->config));
      } else if (key == "dirtiness") {
        DIP_RETURN_NOT_OK(ReadDirtiness(value, &out->config));
      } else if (key == "sweep") {
        DIP_RETURN_NOT_OK(ReadSweep(value, out));
      } else {
        return Err(value, "unknown manifest key '" + key + "'");
      }
    }
    if (out->name.empty()) {
      return Status::InvalidArgument(
          origin_ + ": manifest is missing the required 'name' key");
    }
    std::set<std::string> seen(out->engines.begin(), out->engines.end());
    if (seen.size() != out->engines.size()) {
      return Status::InvalidArgument(origin_ + ": manifest '" + out->name +
                                     "' lists an engine twice");
    }
    if (out->engines.empty()) out->engines.push_back("federated");
    return Status::OK();
  }

 private:
  Status Err(const json::Value& v, const std::string& msg) const {
    return Status::InvalidArgument(origin_ + ": " + v.Where() + ": " + msg);
  }
  Status Expected(const json::Value& v, const std::string& what,
                  const std::string& kind) const {
    return Err(v, "'" + what + "' must be " + kind + ", got " +
                      std::string(v.TypeName()));
  }

  Result<std::string> Str(const json::Value& v, const std::string& what) const {
    if (!v.is_string()) return Expected(v, what, "a string");
    return v.string_value;
  }
  Result<double> Num(const json::Value& v, const std::string& what) const {
    if (!v.is_number()) return Expected(v, what, "a number");
    return v.number_value;
  }
  Result<bool> Bool(const json::Value& v, const std::string& what) const {
    if (!v.is_bool()) return Expected(v, what, "a boolean");
    return v.bool_value;
  }
  Result<int> Int(const json::Value& v, const std::string& what) const {
    DIP_ASSIGN_OR_RETURN(double d, Num(v, what));
    if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
      return Err(v, "'" + what + "' must be an integer");
    }
    return static_cast<int>(d);
  }
  Result<uint64_t> Uint64(const json::Value& v, const std::string& what) const {
    DIP_ASSIGN_OR_RETURN(double d, Num(v, what));
    if (d != std::floor(d) || d < 0.0 || d > 9007199254740992.0) {
      return Err(v, "'" + what + "' must be a non-negative integer");
    }
    return static_cast<uint64_t>(d);
  }
  Result<double> Fraction(const json::Value& v, const std::string& what) const {
    DIP_ASSIGN_OR_RETURN(double d, Num(v, what));
    if (d < 0.0 || d > 1.0) {
      return Err(v, "'" + what + "' must be in [0, 1]");
    }
    return d;
  }
  Result<double> Positive(const json::Value& v, const std::string& what) const {
    DIP_ASSIGN_OR_RETURN(double d, Num(v, what));
    if (d <= 0.0) return Err(v, "'" + what + "' must be > 0");
    return d;
  }
  Result<double> NonNegative(const json::Value& v,
                             const std::string& what) const {
    DIP_ASSIGN_OR_RETURN(double d, Num(v, what));
    if (d < 0.0) return Err(v, "'" + what + "' must be >= 0");
    return d;
  }

  Status CheckEngine(const json::Value& v, const std::string& engine) const {
    if (engine == "federated" || engine == "dataflow" || engine == "eai") {
      return Status::OK();
    }
    return Err(v, "unknown engine '" + engine +
                      "' (expected federated, dataflow or eai)");
  }

  Status ReadConfig(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "config", "an object");
    for (const auto& [key, value] : v.members) {
      if (key == "datasize") {
        DIP_ASSIGN_OR_RETURN(config->datasize, Positive(value, key));
      } else if (key == "time_scale") {
        DIP_ASSIGN_OR_RETURN(config->time_scale, Positive(value, key));
      } else if (key == "distribution") {
        DIP_ASSIGN_OR_RETURN(std::string dist, Str(value, key));
        if (dist == "uniform") {
          config->distribution = Distribution::kUniform;
        } else if (dist == "zipf") {
          config->distribution = Distribution::kZipf;
        } else if (dist == "normal") {
          config->distribution = Distribution::kNormal;
        } else {
          return Err(value, "unknown distribution '" + dist +
                                "' (expected uniform, zipf or normal)");
        }
      } else if (key == "error_rate") {
        DIP_ASSIGN_OR_RETURN(config->error_rate, Fraction(value, key));
      } else if (key == "periods") {
        DIP_ASSIGN_OR_RETURN(int periods, Int(value, key));
        if (periods < 1) return Err(value, "'periods' must be >= 1");
        config->periods = periods;
      } else if (key == "seed") {
        DIP_ASSIGN_OR_RETURN(config->seed, Uint64(value, key));
      } else if (key == "worker_slots") {
        DIP_ASSIGN_OR_RETURN(int slots, Int(value, key));
        if (slots < 1 || slots > kMaxWorkerSlots) {
          return Err(value, StrFormat("'worker_slots' must be in [1, %d]",
                                      kMaxWorkerSlots));
        }
        config->worker_slots = slots;
      } else if (key == "workers") {
        // Retired: a run executes on one thread. Still read so that older
        // manifests that spell out the serial default keep loading.
        DIP_ASSIGN_OR_RETURN(int workers, Int(value, key));
        if (workers != 1) {
          return Err(value, "'workers' must be 1: a run executes on one "
                            "thread (run manifests in parallel with --jobs)");
        }
      } else if (key == "fault_rate") {
        DIP_ASSIGN_OR_RETURN(config->fault_rate, Fraction(value, key));
      } else if (key == "fault_spike_rate") {
        DIP_ASSIGN_OR_RETURN(config->fault_spike_rate, Fraction(value, key));
      } else if (key == "fault_spike_tu") {
        DIP_ASSIGN_OR_RETURN(config->fault_spike_tu, NonNegative(value, key));
      } else if (key == "retry_max_attempts") {
        DIP_ASSIGN_OR_RETURN(int attempts, Int(value, key));
        if (attempts < 1 || attempts > kMaxRetryAttempts) {
          return Err(value, StrFormat("'retry_max_attempts' must be in "
                                      "[1, %d]", kMaxRetryAttempts));
        }
        config->retry_max_attempts = attempts;
      } else if (key == "retry_backoff_tu") {
        DIP_ASSIGN_OR_RETURN(config->retry_backoff_tu, NonNegative(value, key));
      } else if (key == "retry_backoff_factor") {
        DIP_ASSIGN_OR_RETURN(config->retry_backoff_factor,
                             Positive(value, key));
      } else if (key == "instance_timeout_tu") {
        DIP_ASSIGN_OR_RETURN(config->instance_timeout_tu,
                             NonNegative(value, key));
      } else if (key == "retry_dead_letter") {
        DIP_ASSIGN_OR_RETURN(config->retry_dead_letter, Bool(value, key));
      } else if (key == "realization") {
        // Retired: the process types have one realization. Still read so
        // that manifests that spell out "full" keep loading.
        DIP_ASSIGN_OR_RETURN(std::string name, Str(value, key));
        if (name != "full") {
          return Err(value, "'realization' must be \"full\": the process "
                            "types have one realization");
        }
      } else {
        return Err(value, "unknown config key '" + key + "'");
      }
    }
    return Status::OK();
  }

  Status ReadTraffic(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "traffic", "an object");
    for (const auto& [stream, shape_value] : v.members) {
      if (stream != "A" && stream != "B") {
        return Err(shape_value,
                   "unknown traffic stream '" + stream +
                       "' (only streams A and B carry E1 series)");
      }
      TrafficShape shape;
      DIP_RETURN_NOT_OK(ReadShape(shape_value, stream, &shape));
      config->traffic[stream] = shape;
    }
    return Status::OK();
  }

  Status ReadShape(const json::Value& v, const std::string& stream,
                   TrafficShape* shape) {
    if (!v.is_object()) return Expected(v, "traffic." + stream, "an object");
    for (const auto& [key, value] : v.members) {
      if (key == "shape") {
        DIP_ASSIGN_OR_RETURN(std::string kind, Str(value, key));
        if (kind == "steady") {
          shape->kind = TrafficShape::Kind::kSteady;
        } else if (kind == "burst") {
          shape->kind = TrafficShape::Kind::kBurst;
        } else if (kind == "flash_sale") {
          shape->kind = TrafficShape::Kind::kFlashSale;
        } else if (kind == "ramp") {
          shape->kind = TrafficShape::Kind::kRamp;
        } else {
          return Err(value,
                     "unknown traffic shape '" + kind +
                         "' (expected steady, burst, flash_sale or ramp)");
        }
      } else if (key == "scale") {
        DIP_ASSIGN_OR_RETURN(shape->scale, NonNegative(value, key));
      } else if (key == "amplitude") {
        DIP_ASSIGN_OR_RETURN(shape->amplitude, NonNegative(value, key));
      } else if (key == "burst_probability") {
        DIP_ASSIGN_OR_RETURN(shape->burst_probability, Fraction(value, key));
      } else if (key == "spike_period") {
        DIP_ASSIGN_OR_RETURN(shape->spike_period, Int(value, key));
        if (shape->spike_period < 0) {
          return Err(value, "'spike_period' must be >= 0");
        }
      } else if (key == "ramp_to") {
        DIP_ASSIGN_OR_RETURN(shape->ramp_to, NonNegative(value, key));
      } else if (key == "late_fraction") {
        DIP_ASSIGN_OR_RETURN(shape->late_fraction, Fraction(value, key));
      } else if (key == "late_delay_tu") {
        DIP_ASSIGN_OR_RETURN(shape->late_delay_tu, NonNegative(value, key));
      } else {
        return Err(value, "unknown traffic shape key '" + key + "'");
      }
    }
    return Status::OK();
  }

  Status ReadFaults(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "faults", "an object");
    for (const auto& [key, value] : v.members) {
      if (key == "outages") {
        if (!value.is_array()) return Expected(value, key, "an array");
        for (const json::Value& item : value.items) {
          DIP_RETURN_NOT_OK(ReadOutage(item, config));
        }
      } else if (key == "phases") {
        if (!value.is_array()) return Expected(value, key, "an array");
        for (const json::Value& item : value.items) {
          DIP_RETURN_NOT_OK(ReadPhase(item, config));
        }
      } else {
        return Err(value, "unknown faults key '" + key +
                              "' (expected outages or phases)");
      }
    }
    return Status::OK();
  }

  Status ReadOutage(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "outage", "an object");
    OutageWindow outage;
    bool have_calls = false;
    for (const auto& [key, value] : v.members) {
      if (key == "name") {
        DIP_ASSIGN_OR_RETURN(outage.name, Str(value, key));
      } else if (key == "endpoint") {
        DIP_ASSIGN_OR_RETURN(outage.endpoint, Str(value, key));
      } else if (key == "after_calls") {
        DIP_ASSIGN_OR_RETURN(outage.after_calls, Uint64(value, key));
      } else if (key == "calls") {
        DIP_ASSIGN_OR_RETURN(outage.calls, Uint64(value, key));
        have_calls = true;
      } else {
        return Err(value, "unknown outage key '" + key + "'");
      }
    }
    if (outage.name.empty()) {
      return Err(v, "outage is missing the required 'name' key");
    }
    if (!have_calls || outage.calls == 0) {
      return Err(v, "outage '" + outage.name + "' must set 'calls' > 0");
    }
    // A FaultProfile holds exactly one outage window, so two outages on
    // the same profile (same endpoint, or both default-scoped) can never
    // compile. Rejecting here — with the second outage's position —
    // instead of at the scratch-compile gives the error a line:column.
    for (const OutageWindow& existing : config->outages) {
      if (existing.endpoint == outage.endpoint) {
        std::string profile =
            outage.endpoint.empty()
                ? "the default profile"
                : "endpoint '" + outage.endpoint + "'";
        return Err(v, "outage '" + outage.name +
                          "': overlapping outage windows — " + profile +
                          " already has an outage window from '" +
                          existing.name + "'");
      }
    }
    out_->key_positions["outage:" + outage.name] = v.Where();
    config->outages.push_back(std::move(outage));
    return Status::OK();
  }

  Status ReadPhase(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "phase", "an object");
    ErrorPhaseSpec phase;
    bool have_calls = false, have_rate = false;
    for (const auto& [key, value] : v.members) {
      if (key == "name") {
        DIP_ASSIGN_OR_RETURN(phase.name, Str(value, key));
      } else if (key == "endpoint") {
        DIP_ASSIGN_OR_RETURN(phase.endpoint, Str(value, key));
      } else if (key == "after_calls") {
        DIP_ASSIGN_OR_RETURN(phase.after_calls, Uint64(value, key));
      } else if (key == "calls") {
        DIP_ASSIGN_OR_RETURN(phase.calls, Uint64(value, key));
        have_calls = true;
      } else if (key == "error_rate") {
        DIP_ASSIGN_OR_RETURN(phase.error_rate, Fraction(value, key));
        have_rate = true;
      } else {
        return Err(value, "unknown phase key '" + key + "'");
      }
    }
    if (phase.name.empty()) {
      return Err(v, "phase is missing the required 'name' key");
    }
    if (!have_calls || phase.calls == 0) {
      return Err(v, "phase '" + phase.name + "' must set 'calls' > 0");
    }
    if (!have_rate) {
      return Err(v, "phase '" + phase.name + "' must set 'error_rate'");
    }
    out_->key_positions["phase:" + phase.name] = v.Where();
    config->error_phases.push_back(std::move(phase));
    return Status::OK();
  }

  Status ReadDirtiness(const json::Value& v, ScaleConfig* config) {
    if (!v.is_object()) return Expected(v, "dirtiness", "an object");
    for (const auto& [source, value] : v.members) {
      DIP_ASSIGN_OR_RETURN(double rate, Fraction(value, "dirtiness rate"));
      out_->key_positions["dirtiness:" + source] = value.Where();
      config->source_error_rates[source] = rate;
    }
    return Status::OK();
  }

  Status ReadSweep(const json::Value& v, ScenarioManifest* out) {
    if (!v.is_object()) return Expected(v, "sweep", "an object");
    const json::Value* values = nullptr;
    for (const auto& [key, value] : v.members) {
      if (key == "field") {
        DIP_ASSIGN_OR_RETURN(out->sweep_field, Str(value, key));
      } else if (key == "values") {
        if (!value.is_array()) return Expected(value, key, "an array");
        values = &value;
      } else {
        return Err(value, "unknown sweep key '" + key +
                              "' (expected field and values)");
      }
    }
    if (out->sweep_field.empty()) {
      return Err(v, "sweep is missing the required 'field' key");
    }
    if (values == nullptr || values->items.empty()) {
      return Err(v, "sweep must list at least one value");
    }
    for (const json::Value& item : values->items) {
      DIP_ASSIGN_OR_RETURN(double d, Num(item, "sweep value"));
      // Dry-apply onto a scratch config so a bad field name or value is a
      // load error with a position, not a surprise mid-sweep.
      ScaleConfig scratch = out->config;
      Status applied = ApplySweepValue(out->sweep_field, d, &scratch);
      if (!applied.ok()) return Err(item, applied.message());
      out->sweep_values.push_back(d);
    }
    return Status::OK();
  }

  const std::string origin_;
  ScenarioManifest* out_ = nullptr;  ///< set by Read for the duration
};

}  // namespace

Status ApplySweepValue(const std::string& field, double value,
                       ScaleConfig* config) {
  auto integral = [&](int min, int max) -> Result<int> {
    if (value != std::floor(value) || value < min || value > max) {
      return Status::InvalidArgument(StrFormat(
          "sweep value %g for '%s' must be an integer in [%d, %d]", value,
          field.c_str(), min, max));
    }
    return static_cast<int>(value);
  };
  if (field == "datasize" || field == "time_scale") {
    if (value <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("sweep value %g for '%s' must be > 0", value,
                    field.c_str()));
    }
    (field == "datasize" ? config->datasize : config->time_scale) = value;
    return Status::OK();
  }
  if (field == "error_rate" || field == "fault_rate") {
    if (value < 0.0 || value > 1.0) {
      return Status::InvalidArgument(
          StrFormat("sweep value %g for '%s' must be in [0, 1]", value,
                    field.c_str()));
    }
    (field == "error_rate" ? config->error_rate : config->fault_rate) = value;
    return Status::OK();
  }
  if (field == "periods") {
    DIP_ASSIGN_OR_RETURN(config->periods, integral(1, INT_MAX));
    return Status::OK();
  }
  if (field == "worker_slots") {
    DIP_ASSIGN_OR_RETURN(config->worker_slots, integral(1, kMaxWorkerSlots));
    return Status::OK();
  }
  if (field == "seed") {
    if (value != std::floor(value) || value < 0.0 ||
        value > 9007199254740992.0) {
      return Status::InvalidArgument(
          StrFormat("sweep value %g for 'seed' must be a non-negative "
                    "integer", value));
    }
    config->seed = static_cast<uint64_t>(value);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown sweep field '" + field +
      "' (expected datasize, time_scale, periods, seed, worker_slots, "
      "error_rate or fault_rate)");
}

Result<ScenarioManifest> ScenarioManifest::FromJsonText(
    std::string_view text, const std::string& origin) {
  Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(origin + ": " +
                                   parsed.status().message());
  }
  ScenarioManifest manifest;
  manifest.origin = origin;
  DIP_RETURN_NOT_OK(ManifestReader(origin).Read(*parsed, &manifest));
  // Compile the fault composition once against a scratch plan: double
  // outage windows on one profile are a load error, not a run error.
  net::FaultPlan scratch = net::FaultPlan::Uniform(manifest.config.fault_rate);
  Status compiled = manifest.config.CompileFaultPlan(&scratch);
  if (!compiled.ok()) {
    return Status::InvalidArgument(origin + ": manifest '" + manifest.name +
                                   "': " + compiled.message());
  }
  return manifest;
}

Result<ScenarioManifest> ScenarioManifest::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read scenario manifest '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJsonText(buffer.str(), path);
}

std::vector<harness::RunSpec> ScenarioManifest::Expand() const {
  std::vector<std::string> engine_list = engines;
  if (engine_list.empty()) engine_list.push_back("federated");

  std::vector<harness::RunSpec> specs;
  for (const std::string& engine : engine_list) {
    std::string base_label = name;
    if (engine_list.size() > 1) base_label += "/" + engine;
    if (sweep_field.empty()) {
      harness::RunSpec spec;
      spec.config = config;
      spec.engine = engine;
      spec.label = base_label;
      specs.push_back(std::move(spec));
      continue;
    }
    for (double value : sweep_values) {
      harness::RunSpec spec;
      spec.config = config;
      // Values were dry-applied at load time; a failure here would mean
      // the manifest was mutated after parsing.
      Status applied = ApplySweepValue(sweep_field, value, &spec.config);
      if (!applied.ok()) continue;
      spec.engine = engine;
      spec.label = base_label + " " + sweep_field + "=" +
                   StrFormat("%g", value);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

}  // namespace scenario
}  // namespace dipbench
