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
/// arguments. Used for the cleansing and housekeeping procedures of process
/// types P12/P13 and the materialized-view refreshes of P13 and P15.
using StoredProcedure =
    std::function<Status(Database* db, const std::vector<Value>& args)>;

/// A named database instance: a catalog of tables, sequences and stored
/// procedures. The benchmark scenario instantiates eleven of these (paper
/// Section VI: "one DBMS installation with eleven database instances").
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

  /// Registers/fires stored procedures.
  Status RegisterProcedure(const std::string& proc_name, StoredProcedure proc);
  Status CallProcedure(const std::string& proc_name,
                       const std::vector<Value>& args);

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
  std::map<std::string, int64_t> sequences_;
};

}  // namespace dipbench

#endif  // DIPBENCH_STORAGE_DATABASE_H_
