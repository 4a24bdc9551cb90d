#include "src/scenario/manager.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "src/dipbench/scenario.h"
#include "src/net/endpoint.h"

namespace dipbench {
namespace scenario {

Status ScenarioManager::LoadFile(const std::string& path) {
  DIP_ASSIGN_OR_RETURN(ScenarioManifest manifest,
                       ScenarioManifest::Load(path));
  for (const ScenarioManifest& existing : manifests_) {
    if (existing.name == manifest.name) {
      return Status::AlreadyExists(
          path + ": manifest name '" + manifest.name +
          "' already loaded from " + existing.origin);
    }
  }
  manifests_.push_back(std::move(manifest));
  return Status::OK();
}

Status ScenarioManager::LoadDirectory(const std::string& dir) {
  std::error_code ec;
  auto iter = std::filesystem::directory_iterator(dir, ec);
  if (ec) {
    return Status::NotFound("cannot read scenario directory '" + dir +
                            "': " + ec.message());
  }
  std::vector<std::string> paths;
  for (const auto& entry : iter) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  if (paths.empty()) {
    return Status::NotFound("no *.json manifests in '" + dir + "'");
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    DIP_RETURN_NOT_OK(LoadFile(path));
  }
  return Status::OK();
}

Status ScenarioManager::ValidateLandscape() const {
  // One throwaway landscape: the authoritative name lists are whatever
  // Scenario::Create actually builds today.
  DIP_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> landscape,
                       Scenario::Create());
  std::vector<std::string> endpoint_list =
      landscape->network()->ListEndpoints();
  std::set<std::string> endpoints(endpoint_list.begin(), endpoint_list.end());
  std::vector<std::string> db_list = landscape->DatabaseNames();
  std::set<std::string> databases(db_list.begin(), db_list.end());

  for (const ScenarioManifest& manifest : manifests_) {
    // Errors carry the origin:line:column of the offending entry — the
    // reader recorded each entry's position into key_positions precisely
    // because these checks run after parsing, against a live landscape.
    auto bad = [&](const std::string& what, const std::string& name,
                   const std::string& position_key) {
      std::string where = manifest.origin;
      auto it = manifest.key_positions.find(position_key);
      if (it != manifest.key_positions.end()) where += ": " + it->second;
      return Status::ValidationError(where + ": manifest '" +
                                     manifest.name + "': " + what + " '" +
                                     name + "' does not exist in the " +
                                     "system landscape");
    };
    for (const OutageWindow& outage : manifest.config.outages) {
      if (!outage.endpoint.empty() && endpoints.count(outage.endpoint) == 0) {
        return bad("outage '" + outage.name + "': endpoint",
                   outage.endpoint, "outage:" + outage.name);
      }
    }
    for (const ErrorPhaseSpec& phase : manifest.config.error_phases) {
      if (!phase.endpoint.empty() && endpoints.count(phase.endpoint) == 0) {
        return bad("phase '" + phase.name + "': endpoint", phase.endpoint,
                   "phase:" + phase.name);
      }
    }
    for (const auto& [source, rate] : manifest.config.source_error_rates) {
      (void)rate;
      if (databases.count(source) == 0) {
        return bad("dirtiness source", source, "dirtiness:" + source);
      }
    }
  }
  return Status::OK();
}

std::vector<harness::RunSpec> ScenarioManager::ExpandAll() const {
  std::vector<harness::RunSpec> specs;
  for (const ScenarioManifest& manifest : manifests_) {
    std::vector<harness::RunSpec> expanded = manifest.Expand();
    specs.insert(specs.end(), std::make_move_iterator(expanded.begin()),
                 std::make_move_iterator(expanded.end()));
  }
  return specs;
}

}  // namespace scenario
}  // namespace dipbench
