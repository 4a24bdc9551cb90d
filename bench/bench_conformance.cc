// Cross-engine differential conformance fuzzer (SPECIFICATION.md §15).
//
// Generates --configs seeded scenario manifests from --seed, runs every
// one through the full execution matrix — {federated, dataflow} (+ eai
// with --include-eai) — and diffs all canonical state digests pairwise.
// Exit 0 means zero non-allowlisted divergences across the whole sweep.
//
// On a failure the first violating case is shrunk to a minimal manifest
// and written as a runnable JSON repro (--shrink-out, default
// conformance_repro.json) for tests/repros/ and the CI artifact upload.
//
// --inject-divergence flips the binary into its self-test: a test hook
// mutates one dwh.orders cell after every dataflow run, and the exit gate
// INVERTS — the run passes (exit 0) only when the pipeline catches the
// divergence, shrinks it, and the shrunk repro replays to the same
// failure (and to a clean pass without the hook).
//
// DIPBENCH_PERIODS overrides every generated config's period count (CI
// smoke); --json-out=<path> writes BENCH_conformance.json.

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/conformance/fuzzer.h"
#include "src/conformance/repro.h"
#include "src/conformance/shrink.h"

using namespace dipbench;

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// The self-test's injected divergence: one price cell of dwh.orders,
/// nudged after every dataflow run. Every pair involving that cell must
/// then fail the kRows section.
void InjectPriceDivergence(const conformance::MatrixCell& cell,
                           Scenario* scenario) {
  if (cell.engine != "dataflow") return;
  auto db = scenario->db("dwh_db");
  if (!db.ok()) return;
  auto orders = (*db)->GetTable("orders");
  if (!orders.ok()) return;
  bool done = false;
  (void)(*orders)->UpdateWhere(
      [&done](RowView) {
        if (done) return false;
        done = true;
        return true;
      },
      [](MutableRowView row) {
        // DwhOrders column 6 is `price` (not part of the primary key).
        row[6] = Value::Double(row[6].AsDouble() + 0.5);
      });
}

int WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return 0;
}

/// Shrinks the first violating pair of a failing case and writes the
/// repro JSON. Returns the repro (cells + minimal manifest) on success.
Result<conformance::Repro> ShrinkAndEmit(
    const conformance::CaseResult& failure,
    const conformance::FuzzOptions& opt, const std::string& shrink_out) {
  const conformance::PairFinding& finding = failure.findings.front();
  const conformance::MatrixCell& cell_a =
      failure.cells[finding.cell_a].cell;
  const conformance::MatrixCell& cell_b =
      failure.cells[finding.cell_b].cell;
  std::printf("shrinking case %zu pair %s ...\n", failure.fuzz_case.index,
              finding.context.ToString().c_str());
  DIP_ASSIGN_OR_RETURN(
      conformance::ShrinkResult shrunk,
      conformance::ShrinkCase(failure.fuzz_case, cell_a, cell_b, opt));
  std::printf(
      "shrink: %zu/%zu reductions kept over %zu runs; minimal diff:\n%s\n",
      shrunk.steps_kept, shrunk.steps_tried, shrunk.runs,
      shrunk.diff.ToString().c_str());
  conformance::Repro repro = conformance::MakeRepro(
      shrunk, opt.master_seed, failure.fuzz_case.index,
      StrFormat("shrunk from fuzz case %zu (seed %llu): %s",
                failure.fuzz_case.index,
                static_cast<unsigned long long>(opt.master_seed),
                finding.context.ToString().c_str()));
  if (WriteFile(shrink_out, conformance::ReproToJson(repro)) != 0) {
    return Status::Internal("cannot write repro to " + shrink_out);
  }
  std::printf("wrote shrunk repro to %s\n", shrink_out.c_str());
  return repro;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("bench_conformance");
  flags.Define("configs", "fuzz cases to generate and run (default 200)")
      .Define("seed", "master seed; case i derives from seed^hash(i) "
                      "(default 1)")
      .Define("jobs", "worker threads for the matrix cells of one case "
                      "(default 4)")
      .Define("include-eai", "add the eai engine to the matrix")
      .Define("inject-divergence",
              "self-test: inject a one-cell divergence and require it to "
              "be caught, shrunk and replayed")
      .Define("shrink-out", "path for the shrunk repro JSON on failure "
                            "(default conformance_repro.json)")
      .Define("json-out", "write the fuzz summary as JSON to this path");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Result<int> configs = flags.GetInt("configs", 200);
  Result<int> seed = flags.GetInt("seed", 1);
  Result<int> jobs = flags.GetInt("jobs", 4);
  if (!configs.ok() || !seed.ok() || !jobs.ok() || *configs < 1 ||
      *seed < 0) {
    std::fprintf(stderr, "invalid --configs/--seed/--jobs\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  const bool inject = flags.Has("inject-divergence");
  const std::string shrink_out =
      flags.Get("shrink-out", "conformance_repro.json");
  const std::string json_out = flags.Get("json-out");

  conformance::FuzzOptions opt;
  opt.master_seed = static_cast<uint64_t>(*seed);
  opt.configs = static_cast<size_t>(inject ? std::min(*configs, 3)
                                           : *configs);
  opt.jobs = *jobs;
  opt.include_eai = flags.Has("include-eai");
  opt.max_failures = 1;
  Result<int> periods = flags::PeriodsOverrideFromEnv();
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return 2;
  }
  opt.periods_override = *periods;
  if (inject) opt.inject = InjectPriceDivergence;
  opt.on_case = [](const conformance::CaseResult& result) {
    std::printf("case %-4zu %-22s cells=%zu pairs=%zu allowlisted=%zu "
                "%s  (%.0f ms)\n",
                result.fuzz_case.index,
                result.fuzz_case.manifest.name.c_str(),
                result.cells.size(), result.pairs,
                result.allowlisted_pairs,
                result.conformant() ? "conformant" : "VIOLATION",
                result.wall_ms);
    std::fflush(stdout);
  };

  std::printf("=== Conformance fuzz: %zu configs, seed %llu, matrix of %zu "
              "cells%s ===\n\n",
              opt.configs,
              static_cast<unsigned long long>(opt.master_seed),
              conformance::DefaultMatrix(opt.include_eai).size(),
              inject ? ", INJECTED DIVERGENCE self-test" : "");

  conformance::FuzzReport report = conformance::RunFuzz(opt);

  std::printf("\n%zu cases, %zu runs, %zu pairs compared (%zu differed "
              "only in allowlisted ways), %zu failure(s), %.0f ms\n",
              report.cases_run, report.runs, report.pairs,
              report.allowlisted_pairs, report.failures.size(),
              report.wall_ms);
  if (!report.generator_error.empty()) {
    std::fprintf(stderr, "generator error: %s\n",
                 report.generator_error.c_str());
  }

  bool caught = !report.failures.empty();
  bool shrunk_ok = false;
  bool replay_fails_with_hook = false;
  bool replay_clean_without_hook = false;

  if (caught) {
    const conformance::CaseResult& failure = report.failures.front();
    std::printf("\nfirst violation (case %zu):\n%s\n",
                failure.fuzz_case.index,
                failure.findings.front().diff.ToString().c_str());
    Result<conformance::Repro> repro = ShrinkAndEmit(failure, opt,
                                                     shrink_out);
    if (repro.ok()) {
      shrunk_ok = true;
      // Gate: the shrunk repro must replay to the same failure under the
      // same hook, and (for the self-test) to a clean pass without it.
      Result<conformance::CaseResult> with_hook =
          conformance::ReplayRepro(*repro, opt);
      replay_fails_with_hook = with_hook.ok() && !with_hook->conformant();
      conformance::FuzzOptions clean = opt;
      clean.inject = nullptr;
      Result<conformance::CaseResult> without_hook =
          conformance::ReplayRepro(*repro, clean);
      replay_clean_without_hook =
          without_hook.ok() && without_hook->conformant();
      std::printf("repro replay: with hook %s, without hook %s\n",
                  replay_fails_with_hook ? "reproduces the failure"
                                         : "DOES NOT REPRODUCE",
                  replay_clean_without_hook ? "conformant" : "NOT clean");
    } else {
      std::fprintf(stderr, "shrink failed: %s\n",
                   repro.status().ToString().c_str());
    }
  }

  int exit_code;
  if (inject) {
    // Self-test: the machinery must catch, shrink and replay the planted
    // divergence — and the repro must be hook-dependent.
    exit_code = (caught && shrunk_ok && replay_fails_with_hook &&
                 replay_clean_without_hook)
                    ? 0
                    : 1;
    std::printf("\nself-test %s: caught=%d shrunk=%d replay_fails=%d "
                "replay_clean=%d\n",
                exit_code == 0 ? "PASSED" : "FAILED", caught ? 1 : 0,
                shrunk_ok ? 1 : 0, replay_fails_with_hook ? 1 : 0,
                replay_clean_without_hook ? 1 : 0);
  } else {
    exit_code = report.conformant() ? 0 : 1;
    std::printf("\nconformance: %s\n",
                exit_code == 0 ? "PASS — zero non-allowlisted divergences"
                               : "FAIL");
  }

  if (!json_out.empty()) {
    std::string json = "{\n";
    json += StrFormat("  \"configs\": %zu,\n", report.cases_run);
    json += StrFormat("  \"seed\": %llu,\n",
                      static_cast<unsigned long long>(opt.master_seed));
    json += StrFormat("  \"matrix_cells\": %zu,\n",
                      conformance::DefaultMatrix(opt.include_eai).size());
    json += StrFormat("  \"runs\": %zu,\n", report.runs);
    json += StrFormat("  \"pairs\": %zu,\n", report.pairs);
    json += StrFormat("  \"allowlisted_pairs\": %zu,\n",
                      report.allowlisted_pairs);
    json += StrFormat("  \"failures\": %zu,\n", report.failures.size());
    json += StrFormat("  \"inject_self_test\": %s,\n",
                      inject ? "true" : "false");
    json += StrFormat("  \"wall_ms\": %.0f,\n", report.wall_ms);
    json += StrFormat("  \"conformant\": %s", exit_code == 0 ? "true"
                                                             : "false");
    if (!report.failures.empty()) {
      json += StrFormat(
          ",\n  \"first_violation\": \"%s\"",
          JsonEscape(report.failures.front()
                         .findings.front()
                         .diff.ToString())
              .c_str());
    }
    json += "\n}\n";
    if (WriteFile(json_out, json) != 0) return 1;
    std::printf("wrote conformance summary to %s\n", json_out.c_str());
  }

  return exit_code;
}
