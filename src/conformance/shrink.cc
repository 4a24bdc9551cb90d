#include "src/conformance/shrink.h"

#include <functional>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace conformance {

namespace {

/// One reduction of the shrinker's state, the manifest; the two cells stay
/// fixed, because the engine pair IS the divergence under investigation.
struct Candidate {
  std::string what;  ///< human-readable reduction, for tracing
  scenario::ScenarioManifest manifest;
};

struct Evaluation {
  bool violates = false;
  DigestDiff diff;
};

Evaluation EvaluatePair(const scenario::ScenarioManifest& manifest,
                        const MatrixCell& cell_a, const MatrixCell& cell_b,
                        size_t case_index, const FuzzOptions& opt,
                        size_t* runs) {
  std::vector<harness::RunSpec> specs;
  for (const MatrixCell* cell : {&cell_a, &cell_b}) {
    harness::RunSpec spec;
    spec.config = manifest.config;
    if (opt.periods_override > 0) spec.config.periods = opt.periods_override;
    spec.engine = cell->engine;
    spec.digest_state = true;
    spec.label = "shrink " + cell->engine;
    if (opt.inject) {
      auto inject = opt.inject;
      MatrixCell copy = *cell;
      spec.post_run_mutator = [inject, copy](Scenario* scenario) {
        inject(copy, scenario);
      };
    }
    specs.push_back(std::move(spec));
  }
  (void)case_index;

  harness::RunnerPool pool(opt.jobs);
  std::vector<harness::RunOutcome> outcomes = pool.Run(specs);
  *runs += outcomes.size();

  auto digest_of = [](const harness::RunOutcome& o)
      -> std::shared_ptr<const StateDigest> {
    if (o.digest != nullptr) return o.digest;
    auto d = std::make_shared<StateDigest>();
    d->run_ok = false;
    d->run_error = o.error.empty() ? "no digest captured" : o.error;
    return d;
  };
  std::shared_ptr<const StateDigest> da = digest_of(outcomes[0]);
  std::shared_ptr<const StateDigest> db = digest_of(outcomes[1]);

  Evaluation eval;
  if (DigestsEquivalent(*da, *db)) return eval;
  eval.diff = DiffDigests(*da, *db, MakePairContext(cell_a, cell_b));
  eval.violates = !eval.diff.clean();
  return eval;
}

/// Builds this round's candidate reductions from the current state, most
/// aggressive first (greedy: big cuts tried before element-wise ones).
std::vector<Candidate> BuildCandidates(
    const scenario::ScenarioManifest& manifest) {
  std::vector<Candidate> out;
  auto add = [&](const std::string& what,
                 const std::function<void(Candidate*)>& mutate) {
    Candidate c{what, manifest};
    mutate(&c);
    out.push_back(std::move(c));
  };
  const ScaleConfig& cfg = manifest.config;

  if (cfg.periods > 1) {
    add("periods=1",
        [](Candidate* c) { c->manifest.config.periods = 1; });
    if (cfg.periods > 2) {
      int half = cfg.periods / 2;
      add(StrFormat("periods=%d", half),
          [half](Candidate* c) { c->manifest.config.periods = half; });
    }
  }
  if (cfg.datasize > 0.005) {
    add("datasize=0.005",
        [](Candidate* c) { c->manifest.config.datasize = 0.005; });
    double half = cfg.datasize / 2.0;
    if (half > 0.005) {
      add(StrFormat("datasize=%g", half),
          [half](Candidate* c) { c->manifest.config.datasize = half; });
    }
  }

  if (!cfg.traffic.empty()) {
    add("drop traffic",
        [](Candidate* c) { c->manifest.config.traffic.clear(); });
    if (cfg.traffic.size() > 1) {
      for (const auto& [stream, shape] : cfg.traffic) {
        std::string s = stream;
        add("drop traffic." + s, [s](Candidate* c) {
          c->manifest.config.traffic.erase(s);
        });
      }
    }
  }

  bool any_faults = cfg.fault_rate > 0.0 || cfg.fault_spike_rate > 0.0 ||
                    !cfg.outages.empty() || !cfg.error_phases.empty();
  if (any_faults) {
    add("drop all faults", [](Candidate* c) {
      ScaleConfig& m = c->manifest.config;
      m.fault_rate = 0.0;
      m.fault_spike_rate = 0.0;
      m.fault_spike_tu = 0.0;
      m.outages.clear();
      m.error_phases.clear();
      m.retry_max_attempts = 1;
      m.retry_backoff_tu = 0.0;
      m.retry_backoff_factor = 2.0;
      m.instance_timeout_tu = 0.0;
      m.retry_dead_letter = false;
    });
  }
  if (!cfg.outages.empty()) {
    add("drop outages",
        [](Candidate* c) { c->manifest.config.outages.clear(); });
    if (cfg.outages.size() > 1) {
      for (size_t i = 0; i < cfg.outages.size(); ++i) {
        add(StrFormat("drop outage %zu", i), [i](Candidate* c) {
          auto& v = c->manifest.config.outages;
          v.erase(v.begin() + static_cast<long>(i));
        });
      }
    }
  }
  if (!cfg.error_phases.empty()) {
    add("drop phases",
        [](Candidate* c) { c->manifest.config.error_phases.clear(); });
    if (cfg.error_phases.size() > 1) {
      for (size_t i = 0; i < cfg.error_phases.size(); ++i) {
        add(StrFormat("drop phase %zu", i), [i](Candidate* c) {
          auto& v = c->manifest.config.error_phases;
          v.erase(v.begin() + static_cast<long>(i));
        });
      }
    }
  }
  if (!cfg.source_error_rates.empty()) {
    add("drop dirtiness", [](Candidate* c) {
      c->manifest.config.source_error_rates.clear();
    });
    if (cfg.source_error_rates.size() > 1) {
      for (const auto& [source, rate] : cfg.source_error_rates) {
        std::string s = source;
        add("drop dirtiness." + s, [s](Candidate* c) {
          c->manifest.config.source_error_rates.erase(s);
        });
      }
    }
  }

  if (cfg.error_rate != 0.0) {
    add("error_rate=0",
        [](Candidate* c) { c->manifest.config.error_rate = 0.0; });
  }
  if (cfg.time_scale != 1.0) {
    add("time_scale=1",
        [](Candidate* c) { c->manifest.config.time_scale = 1.0; });
  }
  if (cfg.distribution != Distribution::kUniform) {
    add("distribution=uniform", [](Candidate* c) {
      c->manifest.config.distribution = Distribution::kUniform;
    });
  }
  if (cfg.worker_slots != 4) {
    add("worker_slots=4",
        [](Candidate* c) { c->manifest.config.worker_slots = 4; });
  }
  return out;
}

}  // namespace

Result<ShrinkResult> ShrinkCase(const FuzzCase& fuzz_case,
                                const MatrixCell& cell_a,
                                const MatrixCell& cell_b,
                                const FuzzOptions& opt) {
  ShrinkResult result;
  result.manifest = fuzz_case.manifest;
  result.cell_a = cell_a;
  result.cell_b = cell_b;

  Evaluation baseline = EvaluatePair(result.manifest, result.cell_a,
                                     result.cell_b, fuzz_case.index, opt,
                                     &result.runs);
  if (!baseline.violates) {
    return Status::InvalidArgument(StrFormat(
        "shrink: pair %s vs %s of case %zu does not violate — nothing to "
        "shrink",
        cell_a.engine.c_str(), cell_b.engine.c_str(), fuzz_case.index));
  }
  result.diff = std::move(baseline.diff);

  // Greedy fixpoint: keep the first reduction that still violates, then
  // rebuild the candidate list against the new minimum (candidates index
  // into vectors, so stale ones must not survive a keep). Terminates
  // because every kept reduction strictly shrinks the state, with a hard
  // step cap as a belt.
  constexpr size_t kMaxKept = 64;
  bool kept_any = true;
  while (kept_any && result.steps_kept < kMaxKept) {
    kept_any = false;
    std::vector<Candidate> candidates = BuildCandidates(result.manifest);
    for (Candidate& candidate : candidates) {
      ++result.steps_tried;
      std::string json = RenderManifestJson(candidate.manifest);
      auto reparsed = scenario::ScenarioManifest::FromJsonText(
          json, "<shrink candidate>");
      if (!reparsed.ok()) continue;  // invalid reduction, discard
      Evaluation eval =
          EvaluatePair(*reparsed, result.cell_a, result.cell_b,
                       fuzz_case.index, opt, &result.runs);
      if (!eval.violates) continue;
      result.manifest = std::move(*reparsed);
      result.diff = std::move(eval.diff);
      ++result.steps_kept;
      kept_any = true;
      break;  // state changed; rebuild candidates against the new minimum
    }
  }

  result.manifest.name = StrFormat("repro-%zu", fuzz_case.index);
  result.json = RenderManifestJson(result.manifest);
  return result;
}

}  // namespace conformance
}  // namespace dipbench
