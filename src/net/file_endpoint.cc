#include "src/net/file_endpoint.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "src/xml/bridge.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace net {

Result<std::string> FileStore::Read(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no file " + name);
  return it->second;
}

Status FileStore::Remove(const std::string& name) {
  if (files_.erase(name) == 0) return Status::NotFound("no file " + name);
  return Status::OK();
}

std::vector<std::string> FileStore::List() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, _] : files_) names.push_back(name);
  return names;
}

Status FileStore::SaveToDisk(const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("cannot create " + directory + ": " +
                            ec.message());
  }
  for (const auto& [name, content] : files_) {
    const std::string path = directory + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + path + " for write");
    out << content;
    // A full disk or a write error leaves the stream in a fail state only
    // after flush — check it, or a truncated export silently reports OK.
    out.flush();
    if (!out.good()) {
      return Status::Internal("write failed for " + path);
    }
    out.close();
    if (out.fail()) {
      return Status::Internal("close failed for " + path);
    }
  }
  return Status::OK();
}

Result<std::string> FileStore::ClaimUniqueDir(const std::string& base_dir,
                                              const std::string& prefix) {
  // One counter per process: two concurrent runs (threads) can never claim
  // the same name, and the pid component keeps parallel ctest processes
  // apart even when they share a base directory.
  static std::atomic<uint64_t> g_next{0};
  std::error_code ec;
  std::filesystem::create_directories(base_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + base_dir + ": " + ec.message());
  }
  const uint64_t pid =
#ifdef _WIN32
      0;
#else
      static_cast<uint64_t>(::getpid());
#endif
  for (int tries = 0; tries < 1024; ++tries) {
    uint64_t n = g_next.fetch_add(1, std::memory_order_relaxed);
    std::string dir = base_dir + "/" + prefix + "-" + std::to_string(pid) +
                      "-" + std::to_string(n);
    // create_directory (single level) returns false without error when the
    // directory already exists — claimed by someone else, try the next id.
    bool created = std::filesystem::create_directory(dir, ec);
    if (ec) {
      return Status::Internal("cannot create " + dir + ": " + ec.message());
    }
    if (created) return dir;
  }
  return Status::Internal("cannot claim a unique directory under " + base_dir);
}

Result<std::string> FileStore::SaveToUniqueDir(const std::string& base_dir,
                                               const std::string& prefix) const {
  DIP_ASSIGN_OR_RETURN(std::string dir, ClaimUniqueDir(base_dir, prefix));
  DIP_RETURN_NOT_OK(SaveToDisk(dir));
  return dir;
}

Status FileStore::LoadFromDisk(const std::string& directory) {
  std::error_code ec;
  auto iter = std::filesystem::directory_iterator(directory, ec);
  if (ec) {
    return Status::NotFound("cannot read " + directory + ": " + ec.message());
  }
  for (const auto& entry : iter) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::ostringstream content;
    content << in.rdbuf();
    files_[entry.path().filename().string()] = content.str();
  }
  return Status::OK();
}

XmlFileEndpoint::XmlFileEndpoint(std::string name, FileStore* store,
                                 Channel channel, double per_node_ms)
    : Endpoint(std::move(name), /*db=*/nullptr, channel, /*per_row_ms=*/0.0),
      store_(store),
      per_node_ms_(per_node_ms) {}

Status XmlFileEndpoint::RegisterFileQuery(const std::string& op,
                                          std::string file_name, Schema schema,
                                          std::string row_name) {
  if (file_queries_.count(op) > 0) {
    return Status::AlreadyExists("file query " + op + " on " + name_);
  }
  file_queries_.emplace(op, FileQuery{std::move(file_name), std::move(schema),
                                      std::move(row_name)});
  return Status::OK();
}

Status XmlFileEndpoint::RegisterFileUpdate(const std::string& op,
                                           std::string file_name,
                                           std::string root_name,
                                           std::string row_name, bool append) {
  if (file_updates_.count(op) > 0) {
    return Status::AlreadyExists("file update " + op + " on " + name_);
  }
  file_updates_.emplace(op, FileUpdate{std::move(file_name),
                                       std::move(root_name),
                                       std::move(row_name), append});
  return Status::OK();
}

Result<RowSet> XmlFileEndpoint::DoQuery(const std::string& op,
                                      const std::vector<Value>& params,
                                      NetStats* stats) {
  (void)params;
  auto it = file_queries_.find(op);
  if (it == file_queries_.end()) {
    return Status::NotFound("no file query " + op + " on " + name_);
  }
  const FileQuery& q = it->second;
  DIP_ASSIGN_OR_RETURN(std::string text, store_->Read(q.file_name));
  DIP_ASSIGN_OR_RETURN(xml::Node doc, xml::ParseXml(text));
  DIP_ASSIGN_OR_RETURN(RowSet rows,
                       xml::XmlToRowSet(doc, q.schema, q.row_name));
  Charge(64, text.size(), rows.size(), stats);
  if (stats != nullptr) {
    stats->comm_ms += per_node_ms_ * static_cast<double>(doc.SubtreeSize());
  }
  return rows;
}

Result<size_t> XmlFileEndpoint::DoUpdate(const std::string& op,
                                       const RowSet& rows, NetStats* stats) {
  auto it = file_updates_.find(op);
  if (it == file_updates_.end()) {
    return Status::NotFound("no file update " + op + " on " + name_);
  }
  const FileUpdate& u = it->second;
  xml::Node doc(u.root_name);
  if (u.append && store_->Exists(u.file_name)) {
    DIP_ASSIGN_OR_RETURN(std::string existing, store_->Read(u.file_name));
    DIP_ASSIGN_OR_RETURN(doc, xml::ParseXml(existing));
  }
  doc.ReserveChildren(doc.child_count() + rows.rows.size());
  for (const Row& row : rows.rows) {
    doc.AddChild(xml::RowToXml(row, rows.schema, u.row_name));
  }
  std::string text = xml::WriteXml(doc);
  store_->Write(u.file_name, text);
  Charge(text.size(), 32, rows.size(), stats);
  if (stats != nullptr) {
    stats->comm_ms += per_node_ms_ * static_cast<double>(doc.SubtreeSize());
  }
  return rows.size();
}

Status XmlFileEndpoint::DoSendMessage(const std::string&, const xml::Node&,
                                    NetStats*) {
  return Status::Unimplemented("flat-file systems accept no messages");
}

Status XmlFileEndpoint::DoCallProcedure(const std::string&,
                                      const std::vector<Value>&, NetStats*) {
  return Status::Unimplemented("flat-file systems have no procedures");
}

}  // namespace net
}  // namespace dipbench
