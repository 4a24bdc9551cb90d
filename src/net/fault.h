#ifndef DIPBENCH_NET_FAULT_H_
#define DIPBENCH_NET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/net/channel.h"
#include "src/obs/obs.h"

namespace dipbench {
namespace net {

/// One error-rate phase: calls with 0-based index in
/// [after_calls, after_calls + calls) fail with `error_rate` *instead of*
/// the profile's base rate. Scenario manifests compile "degraded for a
/// while, then healthy" stories into these; phases are checked in order and
/// the last matching phase wins, so later entries can carve refinements out
/// of earlier ones.
struct FaultPhase {
  uint64_t after_calls = 0;
  uint64_t calls = 0;
  double error_rate = 0.0;
};

/// Fault characteristics of one endpoint. All probabilities are per
/// endpoint *call* (one Query/QueryXml/Update/CallProcedure counts as one
/// call); all draws come from a seeded PRNG, so a faulty run is exactly
/// as reproducible as a clean one.
struct FaultProfile {
  /// Probability that a call fails with an injected Unavailable error
  /// before the operation body runs (connection refused: the external
  /// system performs no work and changes no state).
  double error_rate = 0.0;

  /// Probability that a call pays an extra latency spike (the call still
  /// succeeds; the spike is charged to the instance's communication cost).
  double spike_rate = 0.0;
  /// Extra communication cost of one spike, in virtual ms.
  double spike_ms = 0.0;

  /// Deterministic outage window: calls with 0-based index in
  /// [outage_after_calls, outage_after_calls + outage_calls) fail
  /// unconditionally. outage_calls == 0 disables the window.
  uint64_t outage_after_calls = 0;
  uint64_t outage_calls = 0;

  /// Error-rate phases (see FaultPhase). Determinism note: a call consumes
  /// an error-rate PRNG draw exactly when its *active* rate is > 0, so a
  /// phase that silences a noisy endpoint also pauses its draw stream —
  /// the contract stays "bytes are a pure function of the profile".
  std::vector<FaultPhase> phases;

  /// The error rate in force for the given 0-based call index.
  double ErrorRateAt(uint64_t call) const {
    double rate = error_rate;
    for (const FaultPhase& phase : phases) {
      if (phase.calls > 0 && call >= phase.after_calls &&
          call < phase.after_calls + phase.calls) {
        rate = phase.error_rate;
      }
    }
    return rate;
  }

  bool enabled() const {
    if (error_rate > 0.0 || (spike_rate > 0.0 && spike_ms > 0.0) ||
        outage_calls > 0) {
      return true;
    }
    for (const FaultPhase& phase : phases) {
      if (phase.error_rate > 0.0 && phase.calls > 0) return true;
    }
    return false;
  }
};

/// The fault schedule of a whole scenario: a default profile plus optional
/// per-endpoint overrides. A disabled plan installs nothing — the run stays
/// byte-identical to one that never heard of faults.
struct FaultPlan {
  FaultProfile defaults;
  std::map<std::string, FaultProfile> per_endpoint;

  const FaultProfile& ProfileFor(const std::string& endpoint) const {
    auto it = per_endpoint.find(endpoint);
    return it == per_endpoint.end() ? defaults : it->second;
  }

  bool enabled() const {
    if (defaults.enabled()) return true;
    for (const auto& [name, p] : per_endpoint) {
      if (p.enabled()) return true;
    }
    return false;
  }

  /// Every endpoint fails each call with probability q (the bench sweep's
  /// fault rate).
  static FaultPlan Uniform(double q) {
    FaultPlan plan;
    plan.defaults.error_rate = q;
    return plan;
  }
};

/// Identifies the engine instance (and retry attempt) on whose behalf the
/// current thread is calling endpoints. The engine opens one scope around
/// each attempt; FaultInjector then keys its PRNG draws on
/// (endpoint, instance tag, attempt, per-endpoint call index) instead of the
/// injector-global arrival order, so the set of injected faults is a pure
/// function of WHICH calls run (SPECIFICATION.md §10). The keyed draws
/// define faulted outputs and error strings.
///
/// Scopes are thread-local and nest (restoring the previous scope on
/// destruction); call indices restart at 0 per scope, i.e. per attempt.
class FaultCallScope {
 public:
  FaultCallScope(uint64_t instance_tag, int attempt);
  ~FaultCallScope();
  FaultCallScope(const FaultCallScope&) = delete;
  FaultCallScope& operator=(const FaultCallScope&) = delete;

  /// The scope active on this thread, or nullptr outside any engine attempt.
  static FaultCallScope* Current();

  uint64_t instance_tag() const { return tag_; }
  int attempt() const { return attempt_; }
  /// Returns the 0-based index of this call among the scope's calls to
  /// `endpoint`, then advances it.
  uint64_t NextCallIndex(const std::string& endpoint);

 private:
  uint64_t tag_;
  int attempt_;
  std::map<std::string, uint64_t> counts_;
  FaultCallScope* prev_;
};

/// Per-endpoint fault state. Owned by the Endpoint it is installed on.
///
/// Draw keying: when a FaultCallScope is active and the profile is not
/// order-stateful (no outage window, no phases), every call draws from a
/// fresh PRNG seeded by (injector seed, instance tag, attempt, per-endpoint
/// call index) — order-independent. Order-stateful profiles (and calls
/// outside any scope) use the legacy sequential stream keyed on global
/// arrival order, which the serial engine keeps deterministic.
///
/// Determinism note: a component that is disabled (rate 0) consumes no PRNG
/// draws, so enabling e.g. latency spikes later does not reshuffle the
/// error-rate stream of an existing configuration.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, uint64_t seed, std::string endpoint)
      : profile_(profile), rng_(seed), seed_(seed),
        endpoint_(std::move(endpoint)) {}

  /// Consulted once at the start of every endpoint call, before the
  /// operation body executes. Returns a retryable Unavailable status when a
  /// fault fires; on a latency spike charges spike_ms into `stats` and
  /// returns OK. `obs` feeds the engine.faults_injected / per-endpoint
  /// fault counters (null-safe).
  Status OnCall(NetStats* stats, const obs::ObsContext& obs);

  /// True when fault decisions depend on the global call arrival order
  /// (outage windows, error-rate phases); such profiles draw sequentially.
  bool IsOrderStateful() const {
    return profile_.outage_calls > 0 || !profile_.phases.empty();
  }

  const FaultProfile& profile() const { return profile_; }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }
  uint64_t spikes_injected() const {
    return spikes_.load(std::memory_order_relaxed);
  }

 private:
  Status OnCallSequential(NetStats* stats, const obs::ObsContext& obs);
  Status InjectFault(const char* kind, std::string detail,
                     const obs::ObsContext& obs);

  FaultProfile profile_;
  Rng rng_;  ///< Legacy sequential stream (stateful / unscoped calls only).
  uint64_t seed_ = 0;
  std::string endpoint_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> spikes_{0};
};

}  // namespace net
}  // namespace dipbench

#endif  // DIPBENCH_NET_FAULT_H_
