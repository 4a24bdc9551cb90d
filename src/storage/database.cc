#include "src/storage/database.h"

namespace dipbench {

Result<Table*> Database::CreateTable(const std::string& table_name,
                                     Schema schema) {
  if (tables_.count(table_name) > 0) {
    return Status::AlreadyExists("table " + table_name + " in " + name_);
  }
  DIP_RETURN_NOT_OK(schema.Validate());
  auto table = std::make_unique<Table>(table_name, std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(table_name, std::move(table));
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& table_name) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + table_name + " in " + name_);
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& table_name) const {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + table_name + " in " + name_);
  }
  return static_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& table_name) const {
  return tables_.count(table_name) > 0;
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

void Database::ClearAllTables() {
  for (auto& [name, table] : tables_) table->Clear();
}

Status Database::RegisterProcedure(const std::string& proc_name,
                                   StoredProcedure proc) {
  if (procedures_.count(proc_name) > 0) {
    return Status::AlreadyExists("procedure " + proc_name + " in " + name_);
  }
  procedures_.emplace(proc_name, std::move(proc));
  return Status::OK();
}

Status Database::CallProcedure(const std::string& proc_name,
                               const std::vector<Value>& args) {
  auto it = procedures_.find(proc_name);
  if (it == procedures_.end()) {
    return Status::NotFound("no procedure " + proc_name + " in " + name_);
  }
  return it->second(this, args);
}

int64_t Database::NextSequenceValue(const std::string& seq_name) {
  return ++sequences_[seq_name];
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->size();
  return total;
}

uint64_t Database::TotalRowsRead() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->rows_read();
  return total;
}

uint64_t Database::TotalRowsWritten() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->rows_written();
  return total;
}

}  // namespace dipbench
