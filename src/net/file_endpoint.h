#ifndef DIPBENCH_NET_FILE_ENDPOINT_H_
#define DIPBENCH_NET_FILE_ENDPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "src/net/endpoint.h"

namespace dipbench {
namespace net {

/// A named collection of XML flat files. Kept in memory for deterministic
/// benchmark runs; SaveToDisk/LoadFromDisk round-trip the store through a
/// real directory for the toolsuite's import/export paths.
class FileStore {
 public:
  FileStore() = default;

  void Write(const std::string& name, std::string content) {
    files_[name] = std::move(content);
  }
  Result<std::string> Read(const std::string& name) const;
  bool Exists(const std::string& name) const {
    return files_.count(name) > 0;
  }
  Status Remove(const std::string& name);
  std::vector<std::string> List() const;
  void Clear() { files_.clear(); }
  size_t size() const { return files_.size(); }

  /// Writes every file into `directory` (created if absent).
  Status SaveToDisk(const std::string& directory) const;
  /// Reads every regular file of `directory` into the store.
  Status LoadFromDisk(const std::string& directory);

  /// Saves into a freshly claimed `base_dir/<prefix>-<pid>-<n>` directory
  /// and returns its path. The directory name is unique within the process
  /// (atomic counter) and across processes (pid), so concurrent benchmark
  /// runs staging under the same base never clobber each other's exports —
  /// use this instead of a shared fixed staging path whenever more than one
  /// run may be in flight.
  Result<std::string> SaveToUniqueDir(const std::string& base_dir,
                                      const std::string& prefix) const;

  /// Claims a process-unique directory path under `base_dir` (creating it)
  /// without writing any files — shared by SaveToUniqueDir and tests that
  /// need an isolated scratch directory under a parallel ctest.
  static Result<std::string> ClaimUniqueDir(const std::string& base_dir,
                                            const std::string& prefix);

 private:
  std::map<std::string, std::string> files_;
};

/// The third external-system type of the paper ("the external system types
/// are limited to RDBMS, Web services and XML-based flat files"): an
/// endpoint whose operations read and write XML documents in a FileStore.
///
/// A file query parses `<root><row_name>...</row_name></root>` documents
/// into rows of a declared schema; a file update serializes a row payload
/// into such a document (replacing or appending). Costs: channel transfer
/// for the file bytes plus per-node parse/serialize work.
class XmlFileEndpoint : public Endpoint {
 public:
  XmlFileEndpoint(std::string name, FileStore* store, Channel channel,
                  double per_node_ms);

  /// Declares a query op that reads `file_name` as rows of `schema`.
  Status RegisterFileQuery(const std::string& op, std::string file_name,
                           Schema schema, std::string row_name);
  /// Declares an update op that writes the payload into `file_name`.
  /// With `append` the new rows are added behind the existing ones.
  Status RegisterFileUpdate(const std::string& op, std::string file_name,
                            std::string root_name, std::string row_name,
                            bool append = false);

  FileStore* store() { return store_; }

 protected:
  Result<RowSet> DoQuery(const std::string& op,
                         const std::vector<Value>& params,
                         NetStats* stats) override;
  Result<size_t> DoUpdate(const std::string& op, const RowSet& rows,
                          NetStats* stats) override;

  /// Flat files expose no procedures.
  Status DoCallProcedure(const std::string&, const std::vector<Value>&,
                         NetStats*) override;

 private:
  struct FileQuery {
    std::string file_name;
    Schema schema;
    std::string row_name;
  };
  struct FileUpdate {
    std::string file_name;
    std::string root_name;
    std::string row_name;
    bool append;
  };

  FileStore* store_;
  double per_node_ms_;
  std::map<std::string, FileQuery> file_queries_;
  std::map<std::string, FileUpdate> file_updates_;
};

}  // namespace net
}  // namespace dipbench

#endif  // DIPBENCH_NET_FILE_ENDPOINT_H_
