#ifndef DIPBENCH_CONFORMANCE_FUZZER_H_
#define DIPBENCH_CONFORMANCE_FUZZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/conformance/diff.h"
#include "src/conformance/digest.h"
#include "src/dipbench/config.h"
#include "src/scenario/manifest.h"

namespace dipbench {
namespace conformance {

/// One point of the differential execution matrix: an engine realization.
/// The fuzzer runs every generated scenario through every cell and diffs
/// all digests pairwise.
struct MatrixCell {
  std::string engine = "federated";
};

/// The full matrix: {federated, dataflow} (+ eai on request).
std::vector<MatrixCell> DefaultMatrix(bool include_eai);

/// One generated scenario: its manifest both as the parsed structure and
/// as the canonical JSON it round-trips through. The JSON is the source
/// of truth — `manifest` is FromJsonText(json), so anything the fuzzer
/// runs is replayable from text alone.
struct FuzzCase {
  size_t index = 0;
  uint64_t case_seed = 0;
  scenario::ScenarioManifest manifest;
  std::string json;
};

/// Renders a manifest back to scenario-DSL JSON (name, config, traffic,
/// faults, dirtiness). Doubles use round-trip precision, so
/// FromJsonText(RenderManifestJson(m)) reconstructs m exactly.
std::string RenderManifestJson(const scenario::ScenarioManifest& manifest);

/// Deterministically generates case `index` under `master_seed`: every
/// knob is drawn from Rng(master_seed ^ SeedHash("conformance.case.<i>")),
/// so case i is a pure function of (master_seed, i) — independent of
/// which other cases run, in what order, or on how many threads. The
/// generated manifest is rendered to JSON and re-parsed through the strict
/// manifest reader; a generator bug that emits an invalid manifest is an
/// error here, never a silently skipped case.
Result<FuzzCase> GenerateCase(uint64_t master_seed, size_t index);

struct CaseResult;

struct FuzzOptions {
  uint64_t master_seed = 1;
  size_t configs = 50;
  /// RunnerPool jobs for the matrix cells of one case (<= 0: hardware).
  int jobs = 1;
  /// > 0 forces every generated config to this period count (CI smoke).
  int periods_override = 0;
  bool include_eai = false;
  /// Cells to execute; empty selects DefaultMatrix(include_eai).
  std::vector<MatrixCell> matrix;
  /// Divergence-injection test hook, forwarded to RunSpec::post_run_mutator
  /// with the cell being run — mutate the landscape for SOME cells and the
  /// pairwise diff must catch it (bench_conformance --inject-divergence).
  std::function<void(const MatrixCell&, Scenario*)> inject;
  /// Stop fuzzing after this many non-conformant cases (0 = never stop).
  size_t max_failures = 1;
  /// Progress callback, invoked after each case.
  std::function<void(const CaseResult&)> on_case;
};

/// One executed matrix cell of one case.
struct CellRun {
  MatrixCell cell;
  bool ok = false;
  std::string error;
  std::shared_ptr<const StateDigest> digest;  ///< never null
  double wall_ms = 0.0;
};

/// One non-clean pairwise comparison.
struct PairFinding {
  size_t cell_a = 0, cell_b = 0;  ///< indexes into CaseResult::cells
  PairContext context;
  DigestDiff diff;
};

struct CaseResult {
  FuzzCase fuzz_case;
  std::vector<CellRun> cells;
  /// Pairs with violations (allowlisted-only pairs are counted, not kept).
  std::vector<PairFinding> findings;
  size_t pairs = 0;
  size_t allowlisted_pairs = 0;  ///< diverged, but every entry allowlisted
  double wall_ms = 0.0;

  bool conformant() const { return findings.empty(); }
};

/// Runs one case through the matrix and diffs all digests pairwise.
/// Identical digests short-circuit on their hashes; at most
/// kMaxFindingsPerCase violating pairs are kept in full.
CaseResult RunCase(const FuzzCase& fuzz_case, const FuzzOptions& opt);

inline constexpr size_t kMaxFindingsPerCase = 8;

struct FuzzReport {
  size_t cases_run = 0;
  size_t runs = 0;             ///< matrix cells executed
  size_t pairs = 0;            ///< pairwise comparisons
  size_t allowlisted_pairs = 0;
  std::vector<CaseResult> failures;  ///< non-conformant cases, in order
  std::string generator_error;       ///< non-empty = GenerateCase failed
  double wall_ms = 0.0;

  bool conformant() const {
    return failures.empty() && generator_error.empty();
  }
};

/// The fuzz loop: GenerateCase(seed, 0..configs) -> RunCase, stopping
/// early after opt.max_failures non-conformant cases.
FuzzReport RunFuzz(const FuzzOptions& opt);

/// PairContext for two matrix cells — the allowlist policy input.
PairContext MakePairContext(const MatrixCell& a, const MatrixCell& b);

/// True when the two digests agree on every compared section — the cheap
/// hash/scalar short-circuit before a structured diff.
bool DigestsEquivalent(const StateDigest& a, const StateDigest& b);

}  // namespace conformance
}  // namespace dipbench

#endif  // DIPBENCH_CONFORMANCE_FUZZER_H_
