// Realization equivalence (SPECIFICATION.md §16): the incremental
// maintenance realization must land in a landscape byte-identical to the
// full recompute — same state digest, same rows, same verification —
// across engines and operator memory budgets. Only the
// documented §16 divergences (IO counters, monitor cost CSV) may appear,
// and each must match an allowlist rule.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/conformance/diff.h"
#include "src/conformance/digest.h"
#include "src/conformance/fuzzer.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace {

struct Cell {
  const char* engine;
  size_t budget;
};

/// Every engine, plus the budget axis — each axis value meets both
/// realizations.
std::vector<Cell> EquivalenceMatrix() {
  constexpr size_t kSmallBudget = 64 * 1024;
  std::vector<Cell> cells;
  for (const char* engine : {"federated", "dataflow", "eai"}) {
    cells.push_back({engine, 0});
  }
  cells.push_back({"federated", kSmallBudget});
  cells.push_back({"dataflow", kSmallBudget});
  return cells;
}

TEST(RealizationEquivalenceTest, IncrementalLandsInTheFullLandscape) {
  std::vector<Cell> cells = EquivalenceMatrix();
  std::vector<harness::RunSpec> specs;
  for (const Cell& cell : cells) {
    harness::RunSpec spec;
    spec.engine = cell.engine;
    spec.config.datasize = 0.005;
    spec.config.periods = 1;
    spec.config.operator_memory_budget = cell.budget;
    spec.digest_state = true;
    spec.config.realization = Realization::kFullRecompute;
    specs.push_back(spec);
    spec.config.realization = Realization::kIncremental;
    specs.push_back(spec);
  }
  std::vector<harness::RunOutcome> outcomes =
      harness::RunnerPool(4).Run(specs);
  ASSERT_EQ(outcomes.size(), cells.size() * 2);

  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunOutcome& full = outcomes[2 * i];
    const harness::RunOutcome& inc = outcomes[2 * i + 1];
    SCOPED_TRACE(std::string(cell.engine) + "/b" +
                 std::to_string(cell.budget));
    ASSERT_TRUE(full.ok) << full.error;
    ASSERT_TRUE(inc.ok) << inc.error;
    ASSERT_NE(full.digest, nullptr);
    ASSERT_NE(inc.digest, nullptr);

    // The headline claim: table content is hash-identical...
    EXPECT_EQ(full.digest->state_hash, inc.digest->state_hash);
    // ...and the structured diff agrees row by row: no state, schema or
    // verification divergence at all, and anything else (counters,
    // monitor) matches a documented §16 rule.
    conformance::PairContext ctx;
    ctx.engine_a = ctx.engine_b = cell.engine;
    ctx.budget_a = ctx.budget_b = cell.budget;
    ctx.realization_a = "full";
    ctx.realization_b = "incremental";
    conformance::DigestDiff diff =
        conformance::DiffDigests(*full.digest, *inc.digest, ctx);
    EXPECT_TRUE(diff.clean()) << diff.ToString();
    for (const conformance::DiffEntry& entry : diff.entries) {
      EXPECT_TRUE(entry.section == conformance::Section::kCounters ||
                  entry.section == conformance::Section::kMonitor)
          << entry.ToString();
    }
    EXPECT_EQ(full.digest->verification, inc.digest->verification);
    EXPECT_EQ(full.digest->run_ok, inc.digest->run_ok);
  }
}

TEST(RealizationEquivalenceTest, RealizationRulesNeverGateStateSections) {
  // The §16 allowlist rules must stay confined to counters/monitor — a
  // future rule that allowlists rows or verification across realizations
  // would hollow out the equivalence contract. This pins the policy.
  for (const conformance::AllowRule& rule :
       conformance::DocumentedAllowlist()) {
    if (!rule.requires_realization_mismatch) continue;
    EXPECT_TRUE(rule.section == conformance::Section::kCounters ||
                rule.section == conformance::Section::kMonitor)
        << rule.name;
  }
}

}  // namespace
}  // namespace dipbench
