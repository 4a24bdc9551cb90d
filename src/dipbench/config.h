#ifndef DIPBENCH_DIPBENCH_CONFIG_H_
#define DIPBENCH_DIPBENCH_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace dipbench {

namespace net {
struct FaultPlan;
}  // namespace net

/// Per-stream traffic shape (scenario manifests, src/scenario): modulates
/// how many E1 process instances a stream submits per period, as a
/// deterministic multiplier on the Table II instance count. The identity
/// shape (steady at scale 1, no late window) reproduces the compiled-in
/// schedule byte for byte.
struct TrafficShape {
  enum class Kind { kSteady, kBurst, kFlashSale, kRamp };

  Kind kind = Kind::kSteady;

  /// Baseline multiplier (all shapes; the steady shape is this constant).
  double scale = 1.0;
  /// Peak multiplier of burst and flash-sale periods.
  double amplitude = 1.0;
  /// Burst: probability that a given period bursts to `amplitude`. Drawn
  /// from a PRNG seeded by (master seed, stream, period), so which periods
  /// burst is a pure function of the config.
  double burst_probability = 0.0;
  /// Flash sale: the one spiking period (-1 = middle of the run). Its two
  /// neighbors ramp at the midpoint between scale and amplitude.
  int spike_period = -1;
  /// Ramp: linear multiplier from `scale` (period 0) to `ramp_to` (last).
  double ramp_to = 1.0;

  /// Late-arriving data window: each instance of the stream is delayed by
  /// `late_delay_tu` with probability `late_fraction` (seeded per period).
  double late_fraction = 0.0;
  double late_delay_tu = 0.0;

  /// The instance-count multiplier for `period` of `periods`, for the
  /// stream named `stream` under master seed `seed`. Deterministic and
  /// order-free: the draw depends only on (seed, stream, period).
  double MultiplierFor(const std::string& stream, int period, int periods,
                       uint64_t seed) const;

  /// False for the identity shape — the caller can skip shaping entirely
  /// and stay on the legacy arithmetic.
  bool enabled() const {
    return kind != Kind::kSteady || scale != 1.0 ||
           (late_fraction > 0.0 && late_delay_tu > 0.0);
  }
};

/// A named outage window from a scenario manifest, compiled onto the
/// FaultPlan before the run starts. An empty endpoint targets the plan's
/// default profile (every endpoint without its own override).
struct OutageWindow {
  std::string name;
  std::string endpoint;
  uint64_t after_calls = 0;
  uint64_t calls = 0;
};

/// A named error-rate phase (see net::FaultPhase) from a scenario
/// manifest. An empty endpoint targets the default profile.
struct ErrorPhaseSpec {
  std::string name;
  std::string endpoint;
  uint64_t after_calls = 0;
  uint64_t calls = 0;
  double error_rate = 0.0;
};

/// Upper bound of ScaleConfig::worker_slots. The engine keeps one clock per
/// slot and scans them all for every instance, so the manifest key, the
/// sweep field and run_dipbench reject larger values.
inline constexpr int kMaxWorkerSlots = 1024;

/// Upper bound of ScaleConfig::retry_max_attempts. Every attempt of a
/// failing instance costs a full re-execution, so the manifest key and
/// --retry-attempts reject larger values (the largest bench sweep uses 16).
inline constexpr int kMaxRetryAttempts = 64;

/// The three scale factors of the benchmark (paper Section V) plus run
/// parameters of the toolsuite.
struct ScaleConfig {
  /// Continuous scale factor datasize d^x: scales the dataset sizes of the
  /// external systems and the number of E1 process instances per stream.
  double datasize = 0.05;

  /// Continuous scale factor time t^x: 1 tu = (1 / time_scale) ms. Larger
  /// values shrink the interval between successive schedule events.
  double time_scale = 1.0;

  /// Discrete scale factor distribution f^y: uniform or specially skewed
  /// source data characteristics.
  Distribution distribution = Distribution::kUniform;

  /// Extension scale factor (paper future work: "integrating quality ...
  /// issues"): the base rate of injected data errors in generated movement
  /// data (master data uses 0.75x of it). 0 disables error injection.
  double error_rate = 0.04;

  /// Number of benchmark periods k (the paper uses 100; smaller values are
  /// supported so experiments finish quickly with the same shape).
  int periods = 10;

  /// Master seed; every generator stream is forked from it.
  uint64_t seed = 20080412;

  /// Worker slots of the system under test: the modeled concurrency, in
  /// [1, kMaxWorkerSlots].
  int worker_slots = 4;

  /// --- Fault injection & recovery (src/net/fault.h, src/core/retry.h).
  /// Defaults keep everything off: a run with fault_rate 0 is byte-
  /// identical to one built before this layer existed.

  /// Probability q that one endpoint call fails with a retryable
  /// Unavailable error before the external system does any work.
  double fault_rate = 0.0;
  /// Probability that one endpoint call pays an extra latency spike of
  /// fault_spike_tu (call still succeeds; spike lands in Cc).
  double fault_spike_rate = 0.0;
  double fault_spike_tu = 0.0;

  /// Recovery: total attempts per process instance (1 = no retries), with
  /// exponential backoff retry_backoff_tu * factor^(k-1) before retry k,
  /// all in virtual time.
  int retry_max_attempts = 1;
  double retry_backoff_tu = 0.0;
  double retry_backoff_factor = 2.0;
  /// Per-instance virtual-time budget across attempts + backoffs (0 = no
  /// budget).
  double instance_timeout_tu = 0.0;
  /// Exhausted instances land in a dead-letter record (failed, costs
  /// charged) instead of aborting the period.
  bool retry_dead_letter = false;

  /// --- Scenario-manifest extensions (src/scenario). All default-empty:
  /// a config that never touches them is byte-identical to earlier builds.

  /// Per-stream traffic shapes, keyed by stream name ("A" = master data
  /// P01/P02, "B" = movement data P04/P08/P10). Streams C and D are
  /// single-execution chains and cannot be shaped.
  std::map<std::string, TrafficShape> traffic;

  /// Named outage windows and error-rate phases, compiled onto the run's
  /// FaultPlan (see CompileFaultPlan).
  std::vector<OutageWindow> outages;
  std::vector<ErrorPhaseSpec> error_phases;

  /// Per-source dirtiness dials: overrides `error_rate` for one seeding
  /// unit (external database instance: "cdb_db", "eu_berlin_paris",
  /// "eu_trondheim", "asia_beijing", "asia_seoul", "asia_hongkong",
  /// "us_chicago", "us_baltimore", "us_madison").
  std::map<std::string, double> source_error_rates;

  /// The traffic shape of a stream, or null when the stream is unshaped.
  const TrafficShape* ShapeFor(const std::string& stream) const {
    auto it = traffic.find(stream);
    return it == traffic.end() ? nullptr : &it->second;
  }

  /// The data-error rate of one seeding unit: its dial, else `error_rate`.
  double ErrorRateFor(const std::string& source) const {
    auto it = source_error_rates.find(source);
    return it == source_error_rates.end() ? error_rate : it->second;
  }

  /// Compiles the declarative outage windows and error-rate phases onto a
  /// FaultPlan whose base rates (error/spike) are already set. Endpoint-
  /// scoped entries seed their per-endpoint profile from the plan's
  /// defaults as they stand on first touch; default-scoped entries apply
  /// only to endpoints without overrides (FaultPlan's either/or lookup).
  /// Fails when two outage windows land on the same profile — a
  /// FaultProfile holds exactly one window.
  Status CompileFaultPlan(net::FaultPlan* plan) const;

  /// Converts schedule time units to virtual milliseconds: 1 tu = 1/t ms.
  VirtualTime TuToMs(double tu) const { return tu / time_scale; }
  /// Converts virtual milliseconds back to tu for metric reporting.
  double MsToTu(VirtualTime ms) const { return ms * time_scale; }

  std::string ToString() const;
};

}  // namespace dipbench

#endif  // DIPBENCH_DIPBENCH_CONFIG_H_
