#ifndef DIPBENCH_SQL_ENGINE_H_
#define DIPBENCH_SQL_ENGINE_H_

#include <string>

#include "src/net/endpoint.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"

namespace dipbench {
namespace sql {

/// Result of executing one SQL statement.
struct SqlResult {
  bool is_query = false;
  RowSet rows;         ///< populated for SELECT
  size_t affected = 0; ///< rows inserted / updated / deleted
};

/// Executes SQL statements against one database, planning SELECTs onto the
/// relational-algebra operators. Intended for registering external-system
/// operations concisely and for interactive exploration (see
/// examples/sql_shell.cpp); the integration processes themselves speak the
/// plan API directly.
class SqlEngine {
 public:
  explicit SqlEngine(Database* db) : db_(db) {}

  /// Parses and executes one statement.
  Result<SqlResult> Execute(const std::string& statement);

  /// Executes a parsed statement (for callers that cache parses).
  Result<SqlResult> Execute(const Statement& stmt);

  /// Convenience: run a SELECT and return its rows.
  Result<RowSet> Query(const std::string& select_statement);

  /// Work counters of the last Execute (for cost accounting).
  const ExecContext& last_exec() const { return last_exec_; }

 private:
  Result<SqlResult> ExecuteSelect(const SelectStmt& stmt);
  Result<SqlResult> ExecuteInsert(const InsertStmt& stmt);
  Result<SqlResult> ExecuteUpdate(const UpdateStmt& stmt);
  Result<SqlResult> ExecuteDelete(const DeleteStmt& stmt);
  Result<SqlResult> ExecuteCreate(const CreateTableStmt& stmt);

  Database* db_;
  ExecContext last_exec_;
};

/// Wraps a SELECT statement as an endpoint query operation: the statement
/// is parsed once at registration; positional parameters are not supported
/// (bake constants into the statement or use the plan API).
///
///   endpoint->RegisterQuery("big_accounts",
///       sql::SqlQueryOp("SELECT * FROM customer WHERE balance > 200"));
Result<net::QueryOp> SqlQueryOp(const std::string& select_statement);

}  // namespace sql
}  // namespace dipbench

#endif  // DIPBENCH_SQL_ENGINE_H_
