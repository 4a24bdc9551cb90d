#ifndef DIPBENCH_STORAGE_DATABASE_H_
#define DIPBENCH_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/table.h"

namespace dipbench {

class Database;

/// A stored procedure: receives the owning database and positional
/// arguments. Used for the cleansing procedures of process types P12/P13
/// and for the federated engine's E2 (time-event) process realization
/// (paper Fig. 9b).
using StoredProcedure =
    std::function<Status(Database* db, const std::vector<Value>& args)>;

/// An insert trigger: fired after a row is inserted through
/// Database::InsertWithTriggers, on the cells the caller inserted. This is
/// the federated engine's E1 (message-stream) realization vehicle (paper
/// Fig. 9a).
using InsertTrigger = std::function<Status(
    Database* db, const std::string& table_name, RowView inserted)>;

/// A named database instance: a catalog of tables, sequences, stored
/// procedures, and insert triggers. The benchmark scenario instantiates
/// eleven of these (paper Section VI: "one DBMS installation with eleven
/// database instances").
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  /// Creates a table; errors if the name exists or schema is invalid.
  Result<Table*> CreateTable(const std::string& table_name, Schema schema);
  Result<Table*> GetTable(const std::string& table_name);
  Result<const Table*> GetTable(const std::string& table_name) const;
  bool HasTable(const std::string& table_name) const;
  std::vector<std::string> ListTables() const;

  /// Clears the content of every table (schemas survive). Used by the
  /// per-period "uninitialize all external systems" step.
  void ClearAllTables();

  /// Inserts and fires the table's insert trigger, if any, on `row`
  /// itself. Trigger errors propagate; the row stays inserted (queue-table
  /// semantics).
  Status InsertWithTriggers(const std::string& table_name, RowView row);

  /// Registers/fires stored procedures.
  Status RegisterProcedure(const std::string& proc_name, StoredProcedure proc);
  Status CallProcedure(const std::string& proc_name,
                       const std::vector<Value>& args);

  /// Sets (replaces) the insert trigger for a table.
  Status SetInsertTrigger(const std::string& table_name, InsertTrigger trig);

  /// Monotone sequence generator (auto-created at first use, starts at 1).
  int64_t NextSequenceValue(const std::string& seq_name);

  /// Total live rows across tables.
  size_t TotalRows() const;
  /// Sum of per-table IO counters.
  uint64_t TotalRowsRead() const;
  uint64_t TotalRowsWritten() const;

 private:
  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, StoredProcedure> procedures_;
  std::map<std::string, InsertTrigger> triggers_;
  std::map<std::string, int64_t> sequences_;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_DATABASE_H_
