#ifndef DIPBENCH_STORAGE_SPILL_H_
#define DIPBENCH_STORAGE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/obs.h"
#include "src/types/schema.h"

namespace dipbench {

/// --- Operator memory budget -------------------------------------------
///
/// Per-THREAD byte budget for blocking plan operators (sort, hash
/// aggregate, union-distinct, hash-join build). 0 = unlimited (the
/// default): blocking operators materialize in memory exactly as before.
/// A non-zero budget makes them buffer at most ~budget bytes and spill
/// partitioned runs to disk, merging/re-probing out of core. The budget is
/// thread-local because src/harness runs independent benchmark configs on
/// concurrent threads; the harness re-applies the submitting thread's
/// budget on its pool threads.
///
/// Determinism contract: every operator produces byte-identical rows, in
/// the same order, with identical cost counters, for ANY budget value —
/// spilling changes where intermediate data lives, never what is computed.
size_t CurrentMemoryBudget();
void SetMemoryBudget(size_t bytes);

/// RAII budget override for this thread.
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(size_t bytes) : prev_(CurrentMemoryBudget()) {
    SetMemoryBudget(bytes);
  }
  ~ScopedMemoryBudget() { SetMemoryBudget(prev_); }
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  size_t prev_;
};

/// --- Telemetry ----------------------------------------------------------

/// Cumulative spill counters (process-wide atomics; order-independent
/// totals, safe under the parallel harness). Tests and bench gates read them
/// to prove the spill path actually engaged.
struct SpillStats {
  uint64_t runs = 0;    ///< run files written
  uint64_t rows = 0;    ///< rows written to runs
  uint64_t bytes = 0;   ///< encoded bytes written
  uint64_t merges = 0;  ///< out-of-core merge phases
};
SpillStats GetSpillStats();
void ResetSpillStats();

/// Optional per-thread obs sink: when installed (Client/engine wiring), the
/// spill layer also counts ra.spill.{runs,rows,bytes,merges} into the run's
/// MetricsRegistry. Never touches the Monitor cost ledger, so Monitor CSVs
/// stay byte-identical across budgets.
void SetSpillObserver(obs::ObsContext ctx);
obs::ObsContext SpillObserver();
class ScopedSpillObserver {
 public:
  explicit ScopedSpillObserver(obs::ObsContext ctx) : prev_(SpillObserver()) {
    SetSpillObserver(ctx);
  }
  ~ScopedSpillObserver() { SetSpillObserver(prev_); }
  ScopedSpillObserver(const ScopedSpillObserver&) = delete;
  ScopedSpillObserver& operator=(const ScopedSpillObserver&) = delete;

 private:
  obs::ObsContext prev_;
};

/// Counts one merge phase (spill cursors call this when they start merging
/// runs back; SpillRunWriter counts runs/rows/bytes itself).
void CountSpillMerge();

/// --- Spill files --------------------------------------------------------

/// A claimed private directory for one operator's spill runs, removed
/// recursively on destruction. Claiming mirrors the harness temp-dir
/// protocol: <tmp>/dipbench_spill/<pid>_<counter> with a create-as-claim
/// loop, so concurrent operators (and concurrent processes) never collide.
///
/// Lifetime contract: operators hold the dir via shared_ptr and every
/// writer/reader constructed through the shared_ptr overloads co-owns it,
/// so the claim is released exactly when the LAST open run file closes —
/// on every exit path, including an instance that dead-letters or errors
/// mid-spill (the cursor unwinds, the co-owners drop, the dir is removed).
class SpillDir {
 public:
  SpillDir();
  ~SpillDir();
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path for a run file inside the directory.
  std::string RunPath(const std::string& name) const;

 private:
  std::string path_;
};

/// Test hook observing the spill-dir claim protocol: invoked with
/// (path, true) when a directory is claimed and (path, false) after it has
/// been removed. Tests install it to assert that every claimed dir is
/// released on every exit path — including aborted instances
/// mid-external-sort. Process-wide; pass nullptr to uninstall.
using SpillDirProbe = std::function<void(const std::string& path,
                                         bool claimed)>;
void SetSpillDirProbe(SpillDirProbe probe);

/// Binary row codec. Values round-trip bit-exactly (int64/double payloads
/// are copied byte for byte), which the determinism contract requires:
/// a spilled-and-reloaded row must be indistinguishable from one that
/// stayed in memory.
void EncodeRow(const Row& row, std::string* out);
/// Decodes one row from `data` starting at *pos; advances *pos. Returns
/// false on a malformed record.
bool DecodeRow(const std::string& data, size_t* pos, Row* row);

/// Sequential writer for one spill run. Records carry an optional uint64
/// tag (sequence numbers for order-reconstructing merges) and an optional
/// string key (grouped-aggregation merge keys); plain Add writes tag 0 and
/// an empty key. Writes are buffered and flushed in large chunks.
class SpillRunWriter {
 public:
  explicit SpillRunWriter(std::string path);
  /// Writes run `name` inside `dir`, co-owning the claim: the directory
  /// cannot be removed while this writer is alive.
  SpillRunWriter(std::shared_ptr<SpillDir> dir, const std::string& name);
  ~SpillRunWriter();
  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  void Add(const Row& row) { AddRecord(0, "", row); }
  void AddTagged(uint64_t tag, const Row& row) { AddRecord(tag, "", row); }
  void AddKeyed(uint64_t tag, const std::string& key, const Row& row) {
    AddRecord(tag, key, row);
  }

  uint64_t rows() const { return rows_; }
  /// Flushes and closes the file; must be called before reading the run.
  Status Finish();

 private:
  void AddRecord(uint64_t tag, const std::string& key, const Row& row);
  void FlushBuffer();

  std::shared_ptr<SpillDir> dir_;  ///< claim co-owner, may be null
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buf_;
  uint64_t rows_ = 0;
  uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// Sequential reader over a finished run. Reads ahead in large chunks.
class SpillRunReader {
 public:
  explicit SpillRunReader(std::string path);
  /// Reads run `name` inside `dir`, co-owning the claim (see
  /// SpillRunWriter).
  SpillRunReader(std::shared_ptr<SpillDir> dir, const std::string& name);
  ~SpillRunReader();
  SpillRunReader(const SpillRunReader&) = delete;
  SpillRunReader& operator=(const SpillRunReader&) = delete;

  /// Reads the next record; returns false at end of run.
  bool Next(uint64_t* tag, std::string* key, Row* row);
  bool Next(Row* row) {
    uint64_t tag;
    std::string key;
    return Next(&tag, &key, row);
  }

 private:
  bool Refill(size_t need);

  std::shared_ptr<SpillDir> dir_;  ///< claim co-owner, may be null
  std::FILE* file_ = nullptr;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_SPILL_H_
