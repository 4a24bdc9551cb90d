#ifndef DIPBENCH_SCENARIO_MANIFEST_H_
#define DIPBENCH_SCENARIO_MANIFEST_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/dipbench/config.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace scenario {

/// A declarative workload description: one JSON file mapping onto a
/// ScaleConfig (plus its scenario extensions — traffic shapes, fault
/// composition, late-arrival windows, dirtiness dials) and an optional
/// engine list and one-knob sweep. See docs/SPECIFICATION.md §12 for the
/// schema and examples/scenarios/ for worked manifests.
///
/// Determinism contract: everything a manifest expresses lands inside the
/// ScaleConfig it expands to, so a manifest run is a pure function of
/// (manifest bytes, jobs count excluded). A manifest that sets only the
/// base config fields reproduces the compiled-in schedule byte for byte.
struct ScenarioManifest {
  /// Required. Unique within a manager; used in run labels.
  std::string name;
  std::string description;
  /// Where the manifest came from ("<inline>" or the file path) — every
  /// error message is prefixed with it.
  std::string origin;

  /// Engine realizations to expand over ("federated", "dataflow", "eai").
  /// Default: just "federated".
  std::vector<std::string> engines;

  /// The fully merged configuration (base fields + scenario extensions).
  ScaleConfig config;

  /// Optional one-knob sweep: `sweep_field` is a numeric ScaleConfig field
  /// name, `sweep_values` the values to expand over. Empty field = no
  /// sweep.
  std::string sweep_field;
  std::vector<double> sweep_values;

  /// Source positions of landscape-referencing entries, recorded while
  /// parsing so validation that happens AFTER parsing (the manager's
  /// ValidateLandscape checks names against a live Scenario) can still
  /// point at the offending line. Keys: "outage:<name>", "phase:<name>",
  /// "dirtiness:<source>"; values: "line L, column C".
  std::map<std::string, std::string> key_positions;

  /// Parses and validates a manifest from JSON text. Strict: unknown keys,
  /// type mismatches and out-of-range values are errors, each reporting
  /// `origin` plus the offending line and column.
  static Result<ScenarioManifest> FromJsonText(std::string_view text,
                                               const std::string& origin);

  /// Reads `path` and parses it (origin = path).
  static Result<ScenarioManifest> Load(const std::string& path);

  /// Expands engines x sweep values into pooled RunSpecs. Labels read
  /// "<name>[/<engine>][ <field>=<value>]" — the engine only when more
  /// than one is listed, the assignment only when sweeping.
  std::vector<harness::RunSpec> Expand() const;
};

/// Applies one sweep assignment onto a config. Shared by Expand() and the
/// manifest validator so both agree on the set of sweepable fields:
/// datasize, time_scale, periods, seed, worker_slots, error_rate,
/// fault_rate.
Status ApplySweepValue(const std::string& field, double value,
                       ScaleConfig* config);

}  // namespace scenario
}  // namespace dipbench

#endif  // DIPBENCH_SCENARIO_MANIFEST_H_
