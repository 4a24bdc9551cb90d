#ifndef DIPBENCH_CONFORMANCE_SHRINK_H_
#define DIPBENCH_CONFORMANCE_SHRINK_H_

#include <cstddef>
#include <string>

#include "src/conformance/fuzzer.h"

namespace dipbench {
namespace conformance {

/// A failing case reduced toward a minimal reproducer: the smallest
/// manifest (periods, datasize, traffic, faults, dirtiness, scalar knobs)
/// that still makes the failing cell pair violate the conformance
/// contract.
struct ShrinkResult {
  scenario::ScenarioManifest manifest;
  std::string json;            ///< RenderManifestJson of the minimum
  MatrixCell cell_a, cell_b;   ///< the failing pair
  DigestDiff diff;             ///< the minimum's violation
  size_t steps_tried = 0;      ///< candidate reductions evaluated
  size_t steps_kept = 0;       ///< reductions that preserved the failure
  size_t runs = 0;             ///< benchmark runs spent shrinking
};

/// Greedy delta-debugging over one failing pair. Each candidate reduction
/// is re-rendered to JSON and re-parsed through the strict manifest
/// reader (invalid candidates are discarded, not run), then the two cells
/// are re-executed and the digests re-diffed; a reduction is kept only
/// when a violation survives. Passes repeat to a fixpoint (bounded
/// rounds). The two cells are never touched — they are the divergence
/// dimension, not the noise being removed.
///
/// opt supplies jobs, periods_override and the inject hook (an injected
/// divergence must keep being injected while shrinking, or nothing
/// reproduces). Fails with InvalidArgument when the initial pair does not
/// violate — only failing pairs can shrink.
Result<ShrinkResult> ShrinkCase(const FuzzCase& fuzz_case,
                                const MatrixCell& cell_a,
                                const MatrixCell& cell_b,
                                const FuzzOptions& opt);

}  // namespace conformance
}  // namespace dipbench

#endif  // DIPBENCH_CONFORMANCE_SHRINK_H_
