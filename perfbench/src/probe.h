#ifndef DIPBENCH_PERFBENCH_PROBE_H_
#define DIPBENCH_PERFBENCH_PROBE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/engine.h"

namespace perfbench {

/// A point on the benchmark's clocks: wall time, process CPU time and the
/// allocation counters. Untraced probes fill only `ms`.
struct Stamp {
  double ms = 0.0;
  double cpu_ms = 0.0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;

  Stamp& operator+=(const Stamp& o);
  Stamp& operator-=(const Stamp& o);
};
Stamp operator-(Stamp a, const Stamp& b);

/// Reads the clocks. `traced` adds process CPU time and allocation counts.
Stamp Now(bool traced);

enum class CallKind { kDeploy, kSubmit, kRun, kRecords, kNow, kName, kOther };

/// One call into the engine, as the Client made it.
struct Call {
  CallKind kind = CallKind::kOther;
  int period = -1;  ///< ProcessEvent::period of a Submit, else -1.
  Stamp begin;
  Stamp end;
};

/// Forwarding core::IntegrationSystem that stamps every call the Client
/// makes into the real engine. Behaviour is the wrapped engine's.
class ProbedEngine : public dipbench::core::IntegrationSystem {
 public:
  ProbedEngine(dipbench::core::IntegrationSystem* inner, bool traced);

  const std::vector<Call>& calls() const { return calls_; }
  void ClearCalls() { calls_.clear(); }

  const std::string& name() const override;
  dipbench::Status Deploy(const dipbench::core::ProcessDefinition& def) override;
  dipbench::Status Submit(dipbench::core::ProcessEvent ev) override;
  dipbench::Status RunUntilIdle() override;
  dipbench::VirtualTime Now() const override;
  void AdvanceTo(dipbench::VirtualTime t) override;
  const std::vector<dipbench::core::InstanceRecord>& records() const override;
  void ClearRecords() override;
  void Reset() override;
  void SetRetryPolicy(const dipbench::core::RetryPolicy& policy) override;
  void SetExecWorkers(int workers) override;

 private:
  /// Stamps the enclosing call from construction to destruction, so a
  /// forwarded return value is computed inside the call.
  class Scope {
   public:
    Scope(const ProbedEngine* engine, CallKind kind, int period = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const ProbedEngine* engine_;
    Call call_;
  };

  dipbench::core::IntegrationSystem* inner_;
  bool traced_;
  mutable std::vector<Call> calls_;
};

/// The order in which Client::RunPeriod drains the engine: one
/// RunUntilIdle per schedule step.
inline constexpr std::array<const char*, 6> kStepNames = {
    "ab", "p11", "p12", "p13", "p14", "p15"};

/// Where the wall time (and, when traced, CPU time and allocations) of one
/// Client::Run went, attributed from the outside by call order.
struct RunProfile {
  Stamp run;      ///< the whole Client::Run
  Stamp pre;      ///< deploy, fault and retry set-up before period 0
  Stamp gen;      ///< period time outside engine calls (datagen, messages)
  Stamp submit;   ///< engine Submit calls
  std::array<Stamp, kStepNames.size()> steps;  ///< RunUntilIdle per step
  Stamp monitor;  ///< Monitor collect + summarize
  Stamp verify;   ///< VerifyIntegration
  std::vector<double> period_ms;  ///< one entry per benchmark period
  uint64_t submits = 0;
  uint64_t ab_instances = 0;  ///< instances submitted ahead of step ab

  /// Run wall time not covered by any attributed part.
  double UnattributedMs() const;
};

/// Attributes a Client::Run from its engine calls:
///   * pre ends with the last deploy/configuration call before the first
///     Submit or RunUntilIdle;
///   * each period ends with its sixth RunUntilIdle, and the i-th one of a
///     period is step kStepNames[i]; all Submits of a period carry the same
///     ProcessEvent::period, and periods increase;
///   * after the last period, Monitor runs until the last records() call,
///     verification from there to the final Now().
/// Fails when the calls do not have that shape.
dipbench::Result<RunProfile> Attribute(const std::vector<Call>& calls,
                                       const Stamp& run_begin,
                                       const Stamp& run_end);

/// Calibration time that defines the reference speed: a time t measured
/// while the calibration kernel took c ms is reported as
/// t * kReferenceCalibrationMs / c.
inline constexpr double kReferenceCalibrationMs = 150.0;

/// Each part of a run (the pre phase, every period, and the rest: Monitor,
/// verification and the unattributed remainder) as the median over
/// repetitions that did the same work of its calibrated time. A shared
/// host slows everything running at the moment by a similar factor, so
/// dividing by the calibration time taken next to the repetition removes
/// most of it, and the median drops repetitions hit by a burst.
struct CalibratedRun {
  double pre_ms = 0.0;
  std::vector<double> period_ms;  ///< period k, median over repetitions
  double rest_ms = 0.0;

  double TotalMs() const;
};

/// `calibration_ms[i]` is the calibration time paired with `runs[i]`.
/// Fails when `runs` is empty, the sizes differ, a calibration time is not
/// positive, or the runs differ in their period count.
dipbench::Result<CalibratedRun> Calibrated(
    const std::vector<const RunProfile*>& runs,
    const std::vector<double>& calibration_ms);

/// Wall ms of a fixed calibration kernel that shares no code with the
/// system: the geometric mean of two allocation-heavy parts, string keys
/// hashed into a map of tens of MiB and then sorted, and a small row table
/// hash-joined, grouped and sorted. Its time tracks how fast the shared
/// host runs the benchmark at the moment.
double CalibrationMs();

/// Median (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "type 7" definition); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Verdict of one repetition's output-correctness gate.
struct RepCheck {
  bool run_ok = false;          ///< Client::Run returned OK (verification too)
  uint64_t submitted = 0;       ///< instances submitted
  uint64_t failed_instances = 0;  ///< failed or dead-lettered records
  std::string monitor_hash;     ///< hex FNV-1a of the Monitor CSV
  std::string state_hash;       ///< hex conformance state hash
};

/// Failed instances of one repetition: its failed records, or all of its
/// submitted instances when the run failed or either hash differs from
/// the reference (an empty reference hash is not checked).
uint64_t FailedInstances(const RepCheck& rep, const std::string& want_monitor,
                         const std::string& want_state);

/// Self-tests of the logic above (selftest.cc); returns the number of
/// failed checks.
int RunSelfTests();

}  // namespace perfbench

#endif  // DIPBENCH_PERFBENCH_PROBE_H_
