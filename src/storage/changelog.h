#ifndef DIPBENCH_STORAGE_CHANGELOG_H_
#define DIPBENCH_STORAGE_CHANGELOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/types/schema.h"

namespace dipbench {
namespace storage {

/// One captured table mutation. Entries record post-images (pre-image for
/// deletes) in the exact serial order the table applied them, so a
/// consumer folding entries in log order re-associates floating-point
/// aggregates exactly like a full scan in insertion order would.
struct ChangeEntry {
  enum class Op { kInsert, kUpdate, kDelete };
  Op op = Op::kInsert;
  Row row;           ///< post-image (kInsert/kUpdate) or pre-image (kDelete)
  uint64_t version;  ///< table content version after the mutation
};

const char* ChangeOpName(ChangeEntry::Op op);

/// One consumed delta range of a named cursor, stamped with the engine
/// instance (and retry attempt) that applied it. The ledger is the
/// at-most-once evidence: ranges of one cursor must never overlap, so a
/// retried or replayed instance re-applying a delta it already consumed is
/// an Internal error instead of a silent double-application.
struct AppliedRange {
  size_t from = 0;  ///< first log index consumed (inclusive)
  size_t to = 0;    ///< one past the last log index consumed
  uint64_t instance_tag = 0;
  int attempt = 0;
};

/// Per-table change-data-capture log with named consumer cursors.
///
/// Lifecycle (anchored to the owning Table, see Table::EnableChangeCapture):
///  * every committed Insert / InsertOrReplace / UpdateWhere / DeleteWhere
///    appends one entry per affected row, version-stamped;
///  * Table::Clear truncates the log and resets every cursor — a cleared
///    table has no history, so consumers restart from zero;
///  * transaction rollback (Table::RestoreState) truncates the log back to
///    the snapshot's watermark and clamps cursors, so entries from rolled-
///    back work are never visible to a consumer.
///
/// Concurrency: mutations and cursor advances run on the owning run's one
/// thread (SPECIFICATION.md §13); the log itself adds no locking.
class ChangeLog {
 public:
  size_t size() const { return log_.size(); }
  const std::vector<ChangeEntry>& entries() const { return log_; }

  /// Appends one captured mutation (called by the owning Table).
  void Append(ChangeEntry::Op op, Row row, uint64_t version);

  /// Current position of a named cursor (0 for a never-advanced cursor).
  size_t CursorPos(const std::string& cursor) const;

  /// Consumed delta ranges of a cursor, in application order.
  const std::vector<AppliedRange>& AppliedRanges(
      const std::string& cursor) const;

  /// Compare-and-advance: moves `cursor` from `from` to `to` and records
  /// the consumed range under (instance_tag, attempt). Fails with Internal
  /// when `from` is not the cursor's current position or when [from, to)
  /// overlaps a range the cursor already consumed — both are double-apply
  /// bugs, never recoverable conditions. An empty range (from == to) is a
  /// no-op and records nothing.
  Status AdvanceCursor(const std::string& cursor, size_t from, size_t to,
                       uint64_t instance_tag, int attempt);

  /// Truncates the whole history and forgets every cursor (table cleared).
  void Clear();

  /// Drops entries at index >= end and clamps cursors + applied ranges
  /// (transaction rollback to a snapshot taken at watermark `end`).
  void TruncateTo(size_t end);

 private:
  struct Cursor {
    size_t pos = 0;
    std::vector<AppliedRange> applied;
  };

  std::vector<ChangeEntry> log_;
  std::map<std::string, Cursor> cursors_;
};

}  // namespace storage
}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_CHANGELOG_H_
