#include "src/sql/engine.h"

namespace dipbench {
namespace sql {

Result<SqlResult> SqlEngine::Execute(const std::string& statement) {
  DIP_ASSIGN_OR_RETURN(Statement stmt, ParseSql(statement));
  return Execute(stmt);
}

Result<SqlResult> SqlEngine::Execute(const Statement& stmt) {
  last_exec_ = ExecContext();
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(stmt.select);
    case Statement::Kind::kInsert:
      return ExecuteInsert(stmt.insert);
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(stmt.update);
    case Statement::Kind::kDelete:
      return ExecuteDelete(stmt.del);
    case Statement::Kind::kCreateTable:
      return ExecuteCreate(stmt.create);
  }
  return Status::Internal("unknown statement kind");
}

Result<RowSet> SqlEngine::Query(const std::string& select_statement) {
  DIP_ASSIGN_OR_RETURN(SqlResult result, Execute(select_statement));
  if (!result.is_query) {
    return Status::InvalidArgument("not a SELECT statement");
  }
  return result.rows;
}

Result<SqlResult> SqlEngine::ExecuteSelect(const SelectStmt& stmt) {
  DIP_ASSIGN_OR_RETURN(Table * from, db_->GetTable(stmt.from_table));
  PlanPtr plan = ScanTable(from);
  for (const JoinClause& join : stmt.joins) {
    DIP_ASSIGN_OR_RETURN(Table * right, db_->GetTable(join.table));
    plan = HashJoin(plan, ScanTable(right), join.left_keys, join.right_keys);
  }
  if (stmt.where != nullptr) plan = Filter(plan, stmt.where);

  bool has_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    if (item.is_aggregate) has_aggregate = true;
  }

  // ORDER BY placement: when every sort column is an output column the
  // sort runs after the projection (aliases work); otherwise it runs
  // before it, against the source columns.
  bool sort_before_projection = false;
  if (!stmt.order_by.empty()) {
    std::vector<std::string> output_names;
    for (const SelectItem& item : stmt.items) {
      if (!item.star) output_names.push_back(item.alias);
    }
    for (const SortKey& key : stmt.order_by) {
      bool in_output = false;
      for (const auto& name : output_names) {
        if (name == key.column) in_output = true;
      }
      if (!in_output && !(stmt.items.size() == 1 && stmt.items[0].star)) {
        sort_before_projection = true;
      }
    }
  }
  if (sort_before_projection && !has_aggregate && stmt.group_by.empty()) {
    plan = Sort(plan, stmt.order_by);
  }

  if (has_aggregate || !stmt.group_by.empty()) {
    std::vector<AggregateItem> aggs;
    for (const SelectItem& item : stmt.items) {
      if (item.is_aggregate) {
        aggs.push_back(AggregateItem{item.alias, item.agg_func,
                                     item.agg_input});
      } else if (item.star) {
        return Status::InvalidArgument("SELECT * cannot mix with aggregates");
      }
      // Non-aggregate items must be GROUP BY columns; the aggregate node
      // outputs the group columns first, so they are available by name.
    }
    plan = Aggregate(plan, stmt.group_by, std::move(aggs));
    // Re-project when the statement lists group columns in a custom order
    // or aliases them.
    bool needs_projection = false;
    bool having_applied = false;
    for (const SelectItem& item : stmt.items) {
      if (!item.is_aggregate && !item.star) needs_projection = true;
    }
    if (needs_projection) {
      std::vector<ProjectionItem> proj;
      for (const SelectItem& item : stmt.items) {
        if (item.is_aggregate) {
          proj.push_back({item.alias, Col(item.alias), DataType::kNull});
        } else {
          proj.push_back({item.alias, item.expr, DataType::kNull});
        }
      }
      plan = Project(plan, std::move(proj));
    }
    if (stmt.having != nullptr && !having_applied) {
      plan = Filter(plan, stmt.having);
      having_applied = true;
    }
  } else if (!(stmt.items.size() == 1 && stmt.items[0].star)) {
    std::vector<ProjectionItem> proj;
    for (const SelectItem& item : stmt.items) {
      proj.push_back({item.alias, item.expr, DataType::kNull});
    }
    plan = Project(plan, std::move(proj));
  }

  if (stmt.distinct) plan = Distinct(plan);
  if (!stmt.order_by.empty() && !sort_before_projection) {
    plan = Sort(plan, stmt.order_by);
  }
  if (stmt.limit.has_value()) plan = Limit(plan, *stmt.limit);

  SqlResult result;
  result.is_query = true;
  DIP_ASSIGN_OR_RETURN(result.rows, plan->Execute(&last_exec_));
  return result;
}

Result<SqlResult> SqlEngine::ExecuteInsert(const InsertStmt& stmt) {
  DIP_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  const Schema& schema = table->schema();
  // Column mapping: listed columns or full schema order.
  std::vector<size_t> target_idx;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) target_idx.push_back(i);
  } else {
    for (const auto& col : stmt.columns) {
      DIP_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndexOf(col));
      target_idx.push_back(idx);
    }
  }
  SqlResult result;
  if (stmt.select != nullptr) {
    // INSERT INTO ... SELECT: positional mapping of the query's columns.
    DIP_ASSIGN_OR_RETURN(SqlResult selected, ExecuteSelect(*stmt.select));
    for (const Row& src : selected.rows.rows) {
      if (src.size() != target_idx.size()) {
        return Status::InvalidArgument("SELECT arity mismatch for INSERT");
      }
      Row row(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < src.size(); ++i) {
        DIP_ASSIGN_OR_RETURN(Value v,
                             src[i].CastTo(schema.column(target_idx[i]).type));
        row[target_idx[i]] = std::move(v);
      }
      DIP_RETURN_NOT_OK(table->Insert(std::move(row)));
      ++result.affected;
    }
    return result;
  }
  Schema empty;
  Row none;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != target_idx.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < value_exprs.size(); ++i) {
      DIP_ASSIGN_OR_RETURN(Value v, value_exprs[i]->Eval(none, empty));
      DIP_ASSIGN_OR_RETURN(v, v.CastTo(schema.column(target_idx[i]).type));
      row[target_idx[i]] = std::move(v);
    }
    DIP_RETURN_NOT_OK(table->Insert(std::move(row)));
    ++result.affected;
    ++last_exec_.rows_processed;
  }
  return result;
}

Result<SqlResult> SqlEngine::ExecuteUpdate(const UpdateStmt& stmt) {
  DIP_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  const Schema schema = table->schema();
  std::vector<std::pair<size_t, ExprPtr>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    DIP_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndexOf(col));
    sets.emplace_back(idx, expr);
  }
  // Evaluate the predicate and the assignments against the OLD row.
  Status eval_error;
  auto pred = [&](const Row& row) {
    if (stmt.where == nullptr) return true;
    auto keep = stmt.where->Eval(row, schema);
    if (!keep.ok()) {
      eval_error = keep.status();
      return false;
    }
    return !keep->is_null() && keep->type() == DataType::kBool &&
           keep->AsBool();
  };
  auto apply = [&](Row* row) {
    Row old = *row;
    for (const auto& [idx, expr] : sets) {
      auto v = expr->Eval(old, schema);
      if (!v.ok()) {
        eval_error = v.status();
        return;
      }
      auto cast = v->CastTo(schema.column(idx).type);
      if (!cast.ok()) {
        eval_error = cast.status();
        return;
      }
      (*row)[idx] = std::move(*cast);
    }
  };
  DIP_ASSIGN_OR_RETURN(size_t updated, table->UpdateWhere(pred, apply));
  DIP_RETURN_NOT_OK(eval_error);
  SqlResult result;
  result.affected = updated;
  last_exec_.rows_processed += updated;
  return result;
}

Result<SqlResult> SqlEngine::ExecuteDelete(const DeleteStmt& stmt) {
  DIP_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  const Schema schema = table->schema();
  Status eval_error;
  size_t removed = table->DeleteWhere([&](const Row& row) {
    if (stmt.where == nullptr) return true;
    auto keep = stmt.where->Eval(row, schema);
    if (!keep.ok()) {
      eval_error = keep.status();
      return false;
    }
    return !keep->is_null() && keep->type() == DataType::kBool &&
           keep->AsBool();
  });
  DIP_RETURN_NOT_OK(eval_error);
  SqlResult result;
  result.affected = removed;
  last_exec_.rows_processed += removed;
  return result;
}

Result<SqlResult> SqlEngine::ExecuteCreate(const CreateTableStmt& stmt) {
  Schema schema;
  for (const ColumnDef& def : stmt.columns) {
    schema.AddColumn(def.name, def.type, !def.not_null);
  }
  schema.SetPrimaryKey(stmt.primary_key);
  // Reject unknown primary-key columns (SetPrimaryKey silently skips them).
  if (schema.primary_key().size() != stmt.primary_key.size()) {
    return Status::InvalidArgument("PRIMARY KEY names unknown column");
  }
  DIP_RETURN_NOT_OK(db_->CreateTable(stmt.table, std::move(schema)).status());
  return SqlResult{};
}

Result<net::QueryOp> SqlQueryOp(const std::string& select_statement) {
  DIP_ASSIGN_OR_RETURN(Statement stmt, ParseSql(select_statement));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("SqlQueryOp needs a SELECT statement");
  }
  auto shared = std::make_shared<Statement>(std::move(stmt));
  return net::QueryOp(
      [shared](Database* db, const std::vector<Value>&) -> Result<RowSet> {
        SqlEngine engine(db);
        DIP_ASSIGN_OR_RETURN(SqlResult result, engine.Execute(*shared));
        return std::move(result.rows);
      });
}

}  // namespace sql
}  // namespace dipbench
