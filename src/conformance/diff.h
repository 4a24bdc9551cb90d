#ifndef DIPBENCH_CONFORMANCE_DIFF_H_
#define DIPBENCH_CONFORMANCE_DIFF_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/conformance/digest.h"

namespace dipbench {
namespace conformance {

/// What distinguishes the two runs being compared — the diff consults it
/// to decide which divergences are documented (allowlisted) rather than
/// conformance violations.
struct PairContext {
  std::string engine_a, engine_b;

  bool engines_differ() const { return engine_a != engine_b; }
  std::string ToString() const;
};

/// Which digest section a divergence lives in.
enum class Section {
  kRun,           ///< run ok-flag or error text
  kSchema,        ///< database/table/schema presence or shape
  kRows,          ///< table content
  kCounters,      ///< per-table rows_read / rows_written
  kMonitor,       ///< Monitor CSV
  kVerification,  ///< verification report
  kRecovery,      ///< retries / dead-letter totals
};

const char* SectionName(Section s);

/// One divergence, pinpointed: database, table, row key, cell.
struct DiffEntry {
  Section section = Section::kRows;
  std::string database;
  std::string table;
  /// Canonical key of the divergent row (kRows), or a field name such as
  /// "rows_read", "ok", "retries" for the scalar sections.
  std::string key;
  int column = -1;          ///< divergent cell index (kRows), -1 otherwise
  std::string column_name;  ///< its schema name
  std::string left, right;  ///< the two sides' values ("<absent>" = missing)
  bool allowlisted = false;
  std::string rule;         ///< matching allowlist rule, when allowlisted

  /// "rows cdb_db.orders key=i17: cell price: d0x1.8p+6 != d0x1.9p+6"
  std::string ToString() const;
};

/// One documented divergence class. A diff entry matching a rule is
/// reported but does not make the pair non-conformant. The list of rules
/// IS the conformance contract's fine print (SPECIFICATION.md §15.3).
struct AllowRule {
  std::string name;    ///< stable id, printed next to allowlisted entries
  std::string reason;  ///< one-line documentation
  Section section;
  /// Rule only applies when the two runs used different engines (false =
  /// applies to any pair).
  bool requires_engine_mismatch = false;
  /// Restrict to one entry key ("rows_read", "error", ...); empty = any
  /// key within the section.
  std::string key;
};

/// The documented divergences:
///   * engine-cost-model      — Monitor CSVs embed engine cost weights;
///                              they only compare within one engine.
///   * engine-failure-text    — when both runs fail, the error text may
///                              name engine internals (the ok-flag itself
///                              must still agree).
const std::vector<AllowRule>& DocumentedAllowlist();

/// Structured comparison of two digests.
struct DigestDiff {
  std::vector<DiffEntry> entries;  ///< first kMaxEntries divergences
  size_t total_diffs = 0;          ///< including entries beyond the cap
  size_t violations = 0;           ///< non-allowlisted divergences

  bool identical() const { return total_diffs == 0; }
  /// Conformant: every divergence is a documented one.
  bool clean() const { return violations == 0; }

  /// Multi-line report leading with the first non-allowlisted entry.
  std::string ToString() const;

  static constexpr size_t kMaxEntries = 24;
};

/// Diffs b against a. Sections are compared in severity order (run
/// outcome, schemas, rows, counters, monitor, verification, recovery);
/// when either run failed, only the kRun section is compared — partial
/// landscape state after an aborted run is not part of the contract.
DigestDiff DiffDigests(const StateDigest& a, const StateDigest& b,
                       const PairContext& ctx,
                       const std::vector<AllowRule>& allowlist =
                           DocumentedAllowlist());

}  // namespace conformance
}  // namespace dipbench

#endif  // DIPBENCH_CONFORMANCE_DIFF_H_
