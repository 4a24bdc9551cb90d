#ifndef DIPBENCH_CONFORMANCE_DIGEST_H_
#define DIPBENCH_CONFORMANCE_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dipbench/scenario.h"

namespace dipbench {
namespace conformance {

/// Canonical, representation-exact encoding of one cell. Type-tagged so a
/// kInt64 1 and a kDouble 1.0 (equal under Value::Compare) digest
/// differently, and doubles are rendered as hex floats so every bit
/// pattern — including -0.0 — round-trips. Strings escape '"', '\' and
/// control characters, so no encoded cell ever contains the cell
/// separator (0x1f) used by CanonicalRow.
std::string CanonicalCell(const Value& v);

/// Cells of one row joined by kCellSep, in schema column order.
std::string CanonicalRow(RowView row);

/// Separator between encoded cells inside one canonical row. Control
/// character, never produced by CanonicalCell.
constexpr char kCellSep = '\x1f';

/// Splits a canonical row back into its encoded cells (diff pinpointing).
std::vector<std::string> SplitCanonicalRow(const std::string& row);

/// One table of the landscape, canonically serialized: schema text, the
/// IO counters as they stood BEFORE the digest scan (the scan itself
/// bumps rows_read), and every live row encoded by CanonicalRow and
/// sorted by the schema-declared primary key (ties and keyless tables
/// fall back to whole-row encoding order). Row insertion order is thus
/// never part of the digest — the spec treats tables as multisets.
struct TableDigest {
  std::string table;
  std::string schema_text;
  std::vector<std::string> column_names;
  std::vector<size_t> primary_key;    ///< key column indexes (may be empty)
  std::vector<std::string> rows;      ///< canonical, key-sorted
  uint64_t rows_read = 0;
  uint64_t rows_written = 0;
  uint64_t content_hash = 0;          ///< FNV-1a over schema + rows
};

struct DatabaseDigest {
  std::string database;
  std::vector<TableDigest> tables;    ///< sorted by table name
};

/// Deterministic serialization of everything a conformance comparison may
/// inspect after one benchmark run: the full external-system landscape
/// (every table of every database), the Monitor CSV, the verification
/// report, recovery counters, and the run's own success/error outcome.
/// Two runs that the specification requires to agree produce equal
/// digests; a structured diff of two digests pinpoints the first
/// divergent database/table/row/cell (src/conformance/diff.h).
struct StateDigest {
  std::vector<DatabaseDigest> databases;  ///< sorted by database name

  /// Monitor::ToCsv of the run ("" when the run failed).
  std::string monitor_csv;
  /// VerificationReport::ToString ("" when the run failed).
  std::string verification;
  uint64_t retries = 0;
  uint64_t dead_letters = 0;

  /// The run outcome itself is part of the digest: an engine change
  /// turning a green run red IS a conformance bug.
  bool run_ok = true;
  std::string run_error;

  uint64_t state_hash = 0;     ///< table content only (schemas + rows)
  uint64_t counters_hash = 0;  ///< per-table rows_read/rows_written

  /// "state=<hex> counters=<hex> rows=<n> ok=<0|1>" — log-friendly.
  std::string Summary() const;
};

/// Captures the landscape sections (databases, state_hash, counters_hash)
/// from a live Scenario. Counters are read before each table's content
/// scan; the scan's own rows_read bumps are not part of the digest.
/// Monitor CSV, verification and run outcome are filled by the caller
/// (harness::RunnerPool::ExecuteOne owns those strings).
StateDigest CaptureStateDigest(Scenario* scenario);

/// FNV-1a 64-bit, the repo's standard content hash (see common::SeedHash).
uint64_t HashBytes(uint64_t seed, std::string_view bytes);

}  // namespace conformance
}  // namespace dipbench

#endif  // DIPBENCH_CONFORMANCE_DIGEST_H_
