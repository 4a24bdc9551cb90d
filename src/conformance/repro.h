#ifndef DIPBENCH_CONFORMANCE_REPRO_H_
#define DIPBENCH_CONFORMANCE_REPRO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/conformance/fuzzer.h"
#include "src/conformance/shrink.h"

namespace dipbench {
namespace conformance {

/// A runnable conformance reproducer: the (shrunk) scenario manifest plus
/// the matrix cells whose digests diverged, self-contained in one JSON
/// file. Shrunk repros from CI failures get committed to tests/repros/ as
/// a regression corpus that ctest replays (conformance_test).
struct Repro {
  std::string note;  ///< free text: what diverged, where it came from
  uint64_t master_seed = 0;
  size_t case_index = 0;
  std::string manifest_json;  ///< the scenario-DSL manifest, verbatim
  std::vector<MatrixCell> cells;  ///< usually the shrunk failing pair
};

/// Packages a shrink result as a repro.
Repro MakeRepro(const ShrinkResult& shrunk, uint64_t master_seed,
                size_t case_index, const std::string& note);

/// {"dipbench_repro": 1, "note": ..., "master_seed": ..., "case_index":
///  ..., "cells": [{"engine"}],
///  "manifest": {...}}
std::string ReproToJson(const Repro& repro);

/// Parses a repro. A cell accepts only the keys ReproToJson writes; any
/// other key is an InvalidArgument naming its position.
Result<Repro> ReproFromJsonText(std::string_view text,
                                const std::string& origin);
Result<Repro> LoadRepro(const std::string& path);

/// Re-executes the repro's cells on its manifest and re-diffs all digests
/// pairwise. opt contributes jobs, periods_override and the inject hook
/// (opt.matrix is ignored — the repro's own cells run). A regression-
/// corpus replay expects a conformant() result; the injected-divergence
/// self-test expects the opposite.
Result<CaseResult> ReplayRepro(const Repro& repro, const FuzzOptions& opt);

}  // namespace conformance
}  // namespace dipbench

#endif  // DIPBENCH_CONFORMANCE_REPRO_H_
