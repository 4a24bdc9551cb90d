#ifndef DIPBENCH_SCENARIO_MANAGER_H_
#define DIPBENCH_SCENARIO_MANAGER_H_

#include <string>
#include <vector>

#include "src/harness/harness.h"
#include "src/scenario/manifest.h"

namespace dipbench {
namespace scenario {

/// Loads, validates and expands collections of scenario manifests.
///
/// The manager adds the checks a single manifest cannot do alone: name
/// uniqueness across the collection, and landscape validation — outage /
/// phase endpoints must name real endpoints and dirtiness dials real
/// seeding units of the paper's system landscape (checked against a live
/// Scenario, so the lists can never drift from the implementation).
class ScenarioManager {
 public:
  /// Loads one manifest file. Fails (naming the file) on unreadable
  /// files, JSON/schema errors, or a name collision with a manifest
  /// already loaded.
  Status LoadFile(const std::string& path);

  /// Loads every *.json in `dir`, in sorted filename order so the
  /// collection — and every report built from it — is stable across
  /// platforms. Fails on the first bad manifest.
  Status LoadDirectory(const std::string& dir);

  const std::vector<ScenarioManifest>& manifests() const {
    return manifests_;
  }

  /// Validates every manifest against the live system landscape: builds
  /// one Scenario and checks outage/phase endpoint names against its
  /// network and dirtiness sources against its database instances.
  Status ValidateLandscape() const;

  /// All manifests expanded to pooled RunSpecs, in load order.
  std::vector<harness::RunSpec> ExpandAll() const;

 private:
  std::vector<ScenarioManifest> manifests_;
};

}  // namespace scenario
}  // namespace dipbench

#endif  // DIPBENCH_SCENARIO_MANAGER_H_
