// Realization equivalence (SPECIFICATION.md §16): the incremental
// maintenance realization must land in a landscape byte-identical to the
// full recompute — same state digest, same rows, same verification — on
// every engine. Only the documented §16 divergences (IO counters, monitor
// cost CSV) may appear, and each must match an allowlist rule.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/conformance/diff.h"
#include "src/conformance/digest.h"
#include "src/conformance/fuzzer.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace {

TEST(RealizationEquivalenceTest, IncrementalLandsInTheFullLandscape) {
  // Every engine meets both realizations.
  const std::vector<std::string> engines = {"federated", "dataflow", "eai"};
  std::vector<harness::RunSpec> specs;
  for (const std::string& engine : engines) {
    harness::RunSpec spec;
    spec.engine = engine;
    spec.config.datasize = 0.005;
    spec.config.periods = 1;
    spec.digest_state = true;
    spec.config.realization = Realization::kFullRecompute;
    specs.push_back(spec);
    spec.config.realization = Realization::kIncremental;
    specs.push_back(spec);
  }
  std::vector<harness::RunOutcome> outcomes =
      harness::RunnerPool(4).Run(specs);
  ASSERT_EQ(outcomes.size(), engines.size() * 2);

  for (size_t i = 0; i < engines.size(); ++i) {
    const std::string& engine = engines[i];
    const harness::RunOutcome& full = outcomes[2 * i];
    const harness::RunOutcome& inc = outcomes[2 * i + 1];
    SCOPED_TRACE(engine);
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
    ctx.engine_a = ctx.engine_b = engine;
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
