#include "src/conformance/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace conformance {

namespace {

/// Shortest %g rendering that round-trips the exact double — manifests
/// stay readable ("0.01", not "0.01000000000000000021") without ever
/// losing a bit.
std::string FmtDouble(double d) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

const char* ShapeName(TrafficShape::Kind kind) {
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
  return "steady";
}

/// Landscape names the generator draws from, captured once from a live
/// Scenario so fuzzed outages/phases/dirtiness always hit real targets.
struct LandscapeNames {
  std::vector<std::string> endpoints;
  std::vector<std::string> databases;
};

const LandscapeNames& CachedLandscape() {
  static const LandscapeNames* names = [] {
    auto* n = new LandscapeNames();
    auto scenario = Scenario::Create();
    if (scenario.ok()) {
      n->endpoints = (*scenario)->network()->ListEndpoints();
      n->databases = (*scenario)->DatabaseNames();
      std::sort(n->endpoints.begin(), n->endpoints.end());
      std::sort(n->databases.begin(), n->databases.end());
    }
    return n;
  }();
  return *names;
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& from) {
  return from[rng->NextBounded(from.size())];
}

}  // namespace

std::vector<MatrixCell> DefaultMatrix(bool include_eai) {
  std::vector<MatrixCell> matrix = {MatrixCell{"federated"},
                                    MatrixCell{"dataflow"}};
  if (include_eai) matrix.push_back(MatrixCell{"eai"});
  return matrix;
}

std::string RenderManifestJson(const scenario::ScenarioManifest& manifest) {
  const ScaleConfig& c = manifest.config;
  std::string out = "{\n";
  out += "  \"name\": " + JsonString(manifest.name) + ",\n";
  if (!manifest.description.empty()) {
    out += "  \"description\": " + JsonString(manifest.description) + ",\n";
  }
  out += "  \"config\": {\n";
  out += "    \"datasize\": " + FmtDouble(c.datasize) + ",\n";
  out += "    \"time_scale\": " + FmtDouble(c.time_scale) + ",\n";
  out += std::string("    \"distribution\": \"") +
         DistributionToString(c.distribution) + "\",\n";
  out += "    \"error_rate\": " + FmtDouble(c.error_rate) + ",\n";
  out += "    \"periods\": " + std::to_string(c.periods) + ",\n";
  out += "    \"seed\": " + std::to_string(c.seed) + ",\n";
  out += "    \"worker_slots\": " + std::to_string(c.worker_slots) + ",\n";
  out += "    \"fault_rate\": " + FmtDouble(c.fault_rate) + ",\n";
  out += "    \"fault_spike_rate\": " + FmtDouble(c.fault_spike_rate) +
         ",\n";
  out += "    \"fault_spike_tu\": " + FmtDouble(c.fault_spike_tu) + ",\n";
  out += "    \"retry_max_attempts\": " +
         std::to_string(c.retry_max_attempts) + ",\n";
  out += "    \"retry_backoff_tu\": " + FmtDouble(c.retry_backoff_tu) +
         ",\n";
  out += "    \"retry_backoff_factor\": " +
         FmtDouble(c.retry_backoff_factor) + ",\n";
  out += "    \"instance_timeout_tu\": " +
         FmtDouble(c.instance_timeout_tu) + ",\n";
  out += std::string("    \"retry_dead_letter\": ") +
         (c.retry_dead_letter ? "true" : "false") + "\n";
  out += "  }";

  if (!c.traffic.empty()) {
    out += ",\n  \"traffic\": {\n";
    bool first_stream = true;
    for (const auto& [stream, shape] : c.traffic) {
      if (!first_stream) out += ",\n";
      first_stream = false;
      out += "    " + JsonString(stream) + ": {\n";
      out += std::string("      \"shape\": \"") + ShapeName(shape.kind) +
             "\",\n";
      out += "      \"scale\": " + FmtDouble(shape.scale) + ",\n";
      out += "      \"amplitude\": " + FmtDouble(shape.amplitude) + ",\n";
      out += "      \"burst_probability\": " +
             FmtDouble(shape.burst_probability) + ",\n";
      if (shape.spike_period >= 0) {
        out += "      \"spike_period\": " +
               std::to_string(shape.spike_period) + ",\n";
      }
      out += "      \"ramp_to\": " + FmtDouble(shape.ramp_to) + ",\n";
      out += "      \"late_fraction\": " + FmtDouble(shape.late_fraction) +
             ",\n";
      out += "      \"late_delay_tu\": " + FmtDouble(shape.late_delay_tu) +
             "\n";
      out += "    }";
    }
    out += "\n  }";
  }

  if (!c.outages.empty() || !c.error_phases.empty()) {
    out += ",\n  \"faults\": {\n";
    bool first_section = true;
    if (!c.outages.empty()) {
      first_section = false;
      out += "    \"outages\": [\n";
      for (size_t i = 0; i < c.outages.size(); ++i) {
        const OutageWindow& o = c.outages[i];
        out += "      {\"name\": " + JsonString(o.name);
        if (!o.endpoint.empty()) {
          out += ", \"endpoint\": " + JsonString(o.endpoint);
        }
        out += ", \"after_calls\": " + std::to_string(o.after_calls);
        out += ", \"calls\": " + std::to_string(o.calls) + "}";
        out += i + 1 < c.outages.size() ? ",\n" : "\n";
      }
      out += "    ]";
    }
    if (!c.error_phases.empty()) {
      if (!first_section) out += ",\n";
      out += "    \"phases\": [\n";
      for (size_t i = 0; i < c.error_phases.size(); ++i) {
        const ErrorPhaseSpec& p = c.error_phases[i];
        out += "      {\"name\": " + JsonString(p.name);
        if (!p.endpoint.empty()) {
          out += ", \"endpoint\": " + JsonString(p.endpoint);
        }
        out += ", \"after_calls\": " + std::to_string(p.after_calls);
        out += ", \"calls\": " + std::to_string(p.calls);
        out += ", \"error_rate\": " + FmtDouble(p.error_rate) + "}";
        out += i + 1 < c.error_phases.size() ? ",\n" : "\n";
      }
      out += "    ]";
    }
    out += "\n  }";
  }

  if (!c.source_error_rates.empty()) {
    out += ",\n  \"dirtiness\": {\n";
    bool first = true;
    for (const auto& [source, rate] : c.source_error_rates) {
      if (!first) out += ",\n";
      first = false;
      out += "    " + JsonString(source) + ": " + FmtDouble(rate);
    }
    out += "\n  }";
  }

  out += "\n}\n";
  return out;
}

Result<FuzzCase> GenerateCase(uint64_t master_seed, size_t index) {
  Rng rng(master_seed ^
          SeedHash("conformance.case." + std::to_string(index)));
  const LandscapeNames& landscape = CachedLandscape();

  scenario::ScenarioManifest manifest;
  manifest.name = StrFormat("fuzz-%llu-%zu",
                            static_cast<unsigned long long>(master_seed),
                            index);
  ScaleConfig& c = manifest.config;

  // Scale factors. Small datasizes keep the matrix affordable; the
  // occasional 0.05 exercises larger operator inputs.
  static const std::vector<double> kDatasizes = {0.005, 0.008, 0.01, 0.015,
                                                 0.02};
  c.datasize = rng.NextBool(0.1) ? 0.05 : Pick(&rng, kDatasizes);
  static const std::vector<double> kTimeScales = {0.5, 1.0, 2.0, 4.0};
  c.time_scale = Pick(&rng, kTimeScales);
  static const std::vector<Distribution> kDistributions = {
      Distribution::kUniform, Distribution::kZipf, Distribution::kNormal};
  c.distribution = Pick(&rng, kDistributions);
  c.error_rate = rng.NextDoubleIn(0.0, 0.15);
  c.periods = static_cast<int>(rng.NextInt(1, 3));
  c.seed = rng.Next() % 9007199254740992ULL;
  c.worker_slots = static_cast<int>(rng.NextInt(1, 8));
  rng.NextInt(1, 2);  // retired datagen_jobs draw; keeps later draws stable

  // Fault composition. Dead-lettering stays ON whenever anything can
  // fail: without it a run aborts mid-period, and aborted-run landscapes
  // are only covered by the kRun section of the contract.
  if (rng.NextBool(0.5)) {
    c.fault_rate = rng.NextDoubleIn(0.005, 0.03);
  }
  if (rng.NextBool(0.3)) {
    c.fault_spike_rate = rng.NextDoubleIn(0.01, 0.1);
    c.fault_spike_tu = rng.NextDoubleIn(0.5, 5.0);
  }
  if (rng.NextBool(0.4) && !landscape.endpoints.empty()) {
    // Distinct endpoints per outage — a FaultProfile holds one window.
    std::vector<size_t> order(landscape.endpoints.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    int n = static_cast<int>(rng.NextInt(1, 2));
    for (int i = 0; i < n && i < static_cast<int>(order.size()); ++i) {
      OutageWindow outage;
      outage.name = StrFormat("outage-%d", i);
      outage.endpoint = landscape.endpoints[order[i]];
      outage.after_calls = static_cast<uint64_t>(rng.NextInt(0, 300));
      outage.calls = static_cast<uint64_t>(rng.NextInt(1, 20));
      c.outages.push_back(std::move(outage));
    }
  }
  if (rng.NextBool(0.4) && !landscape.endpoints.empty()) {
    int n = static_cast<int>(rng.NextInt(1, 2));
    for (int i = 0; i < n; ++i) {
      ErrorPhaseSpec phase;
      phase.name = StrFormat("phase-%d", i);
      phase.endpoint = Pick(&rng, landscape.endpoints);
      phase.after_calls = static_cast<uint64_t>(rng.NextInt(0, 300));
      phase.calls = static_cast<uint64_t>(rng.NextInt(1, 100));
      phase.error_rate = rng.NextDoubleIn(0.0, 0.2);
      c.error_phases.push_back(std::move(phase));
    }
  }
  bool can_fail = c.fault_rate > 0.0 || !c.outages.empty() ||
                  !c.error_phases.empty();
  if (can_fail) {
    c.retry_max_attempts = static_cast<int>(rng.NextInt(4, 6));
    c.retry_backoff_tu = rng.NextDoubleIn(0.5, 4.0);
    c.retry_backoff_factor = rng.NextDoubleIn(1.5, 2.5);
    c.retry_dead_letter = true;
  }

  // Traffic shapes for the two shapeable streams.
  for (const char* stream : {"A", "B"}) {
    if (!rng.NextBool(0.4)) continue;
    TrafficShape shape;
    static const std::vector<TrafficShape::Kind> kKinds = {
        TrafficShape::Kind::kSteady, TrafficShape::Kind::kBurst,
        TrafficShape::Kind::kFlashSale, TrafficShape::Kind::kRamp};
    shape.kind = Pick(&rng, kKinds);
    shape.scale = rng.NextDoubleIn(0.5, 1.5);
    switch (shape.kind) {
      case TrafficShape::Kind::kBurst:
        shape.amplitude = rng.NextDoubleIn(1.0, 3.0);
        shape.burst_probability = rng.NextDoubleIn(0.1, 0.6);
        break;
      case TrafficShape::Kind::kFlashSale:
        shape.amplitude = rng.NextDoubleIn(1.5, 3.0);
        shape.spike_period =
            static_cast<int>(rng.NextInt(0, c.periods - 1));
        break;
      case TrafficShape::Kind::kRamp:
        shape.ramp_to = rng.NextDoubleIn(0.5, 3.0);
        break;
      case TrafficShape::Kind::kSteady:
        break;
    }
    if (rng.NextBool(0.3)) {
      shape.late_fraction = rng.NextDoubleIn(0.05, 0.4);
      shape.late_delay_tu = rng.NextDoubleIn(1.0, 10.0);
    }
    c.traffic[stream] = shape;
  }

  // Dirtiness dials on 1-3 seeding units.
  if (rng.NextBool(0.4) && !landscape.databases.empty()) {
    int n = static_cast<int>(rng.NextInt(1, 3));
    for (int i = 0; i < n; ++i) {
      c.source_error_rates[Pick(&rng, landscape.databases)] =
          rng.NextDoubleIn(0.0, 0.3);
    }
  }

  FuzzCase fuzz_case;
  fuzz_case.index = index;
  fuzz_case.case_seed = c.seed;
  fuzz_case.json = RenderManifestJson(manifest);
  // The JSON is the source of truth: re-parse it through the strict
  // reader, so every case the fuzzer runs is replayable from text and a
  // generator/render bug surfaces here instead of as a phantom run.
  std::string origin =
      StrFormat("<fuzz seed=%llu case=%zu>",
                static_cast<unsigned long long>(master_seed), index);
  DIP_ASSIGN_OR_RETURN(
      fuzz_case.manifest,
      scenario::ScenarioManifest::FromJsonText(fuzz_case.json, origin));
  return fuzz_case;
}

PairContext MakePairContext(const MatrixCell& a, const MatrixCell& b) {
  PairContext ctx;
  ctx.engine_a = a.engine;
  ctx.engine_b = b.engine;
  return ctx;
}

bool DigestsEquivalent(const StateDigest& a, const StateDigest& b) {
  return a.run_ok == b.run_ok && a.run_error == b.run_error &&
         a.state_hash == b.state_hash &&
         a.counters_hash == b.counters_hash &&
         a.monitor_csv == b.monitor_csv &&
         a.verification == b.verification && a.retries == b.retries &&
         a.dead_letters == b.dead_letters;
}

CaseResult RunCase(const FuzzCase& fuzz_case, const FuzzOptions& opt) {
  StopWatch watch;
  CaseResult result;
  result.fuzz_case = fuzz_case;

  const std::vector<MatrixCell> matrix =
      opt.matrix.empty() ? DefaultMatrix(opt.include_eai) : opt.matrix;

  std::vector<harness::RunSpec> specs;
  specs.reserve(matrix.size());
  for (const MatrixCell& cell : matrix) {
    harness::RunSpec spec;
    spec.config = fuzz_case.manifest.config;
    if (opt.periods_override > 0) spec.config.periods = opt.periods_override;
    spec.engine = cell.engine;
    spec.digest_state = true;
    spec.label = StrFormat("case-%zu %s", fuzz_case.index,
                           cell.engine.c_str());
    if (opt.inject) {
      auto inject = opt.inject;
      spec.post_run_mutator = [inject, cell](Scenario* scenario) {
        inject(cell, scenario);
      };
    }
    specs.push_back(std::move(spec));
  }

  harness::RunnerPool pool(opt.jobs);
  std::vector<harness::RunOutcome> outcomes = pool.Run(specs);

  result.cells.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    CellRun run;
    run.cell = matrix[i];
    run.ok = outcomes[i].ok;
    run.error = outcomes[i].error;
    run.wall_ms = outcomes[i].wall_ms;
    if (outcomes[i].digest != nullptr) {
      run.digest = outcomes[i].digest;
    } else {
      // A run that threw never reached digest capture; the synthesized
      // digest keeps the pairwise loop total.
      auto digest = std::make_shared<StateDigest>();
      digest->run_ok = false;
      digest->run_error =
          run.error.empty() ? "no digest captured" : run.error;
      run.digest = std::move(digest);
    }
    result.cells.push_back(std::move(run));
  }

  for (size_t i = 0; i < result.cells.size(); ++i) {
    for (size_t j = i + 1; j < result.cells.size(); ++j) {
      ++result.pairs;
      const StateDigest& a = *result.cells[i].digest;
      const StateDigest& b = *result.cells[j].digest;
      if (DigestsEquivalent(a, b)) continue;
      PairContext ctx =
          MakePairContext(result.cells[i].cell, result.cells[j].cell);
      DigestDiff diff = DiffDigests(a, b, ctx);
      if (diff.clean()) {
        if (!diff.identical()) ++result.allowlisted_pairs;
        continue;
      }
      if (result.findings.size() < kMaxFindingsPerCase) {
        PairFinding finding;
        finding.cell_a = i;
        finding.cell_b = j;
        finding.context = std::move(ctx);
        finding.diff = std::move(diff);
        result.findings.push_back(std::move(finding));
      }
    }
  }

  result.wall_ms = watch.ElapsedMillis();
  return result;
}

FuzzReport RunFuzz(const FuzzOptions& opt) {
  StopWatch watch;
  FuzzReport report;
  for (size_t i = 0; i < opt.configs; ++i) {
    Result<FuzzCase> generated = GenerateCase(opt.master_seed, i);
    if (!generated.ok()) {
      report.generator_error = generated.status().ToString();
      break;
    }
    CaseResult result = RunCase(*generated, opt);
    ++report.cases_run;
    report.runs += result.cells.size();
    report.pairs += result.pairs;
    report.allowlisted_pairs += result.allowlisted_pairs;
    bool conformant = result.conformant();
    if (opt.on_case) opt.on_case(result);
    if (!conformant) {
      report.failures.push_back(std::move(result));
      if (opt.max_failures > 0 &&
          report.failures.size() >= opt.max_failures) {
        break;
      }
    }
  }
  report.wall_ms = watch.ElapsedMillis();
  return report;
}

}  // namespace conformance
}  // namespace dipbench
