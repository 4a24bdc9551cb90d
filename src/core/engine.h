#ifndef DIPBENCH_CORE_ENGINE_H_
#define DIPBENCH_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/cost.h"
#include "src/core/process.h"
#include "src/core/retry.h"
#include "src/net/endpoint.h"

namespace dipbench {
namespace core {

/// A process-initiating event from the benchmark Client: "these events
/// consist of the process type ID, an execution timestamp and, in case of
/// event type E1, an input message" (paper Section V).
struct ProcessEvent {
  std::string process_id;
  VirtualTime when = 0.0;
  std::shared_ptr<const xml::Node> message;  ///< E1 payload; null for E2.
  int period = 0;                            ///< Benchmark period k.
};

/// What the Monitor collects per executed process instance.
struct InstanceRecord {
  std::string process_id;
  int period = 0;
  VirtualTime submit_time = 0.0;  ///< Scheduled event time.
  VirtualTime start_time = 0.0;   ///< When a worker picked it up.
  VirtualTime end_time = 0.0;     ///< Completion in virtual time.
  double wait_ms = 0.0;           ///< start - submit (queueing delay).
  CostBreakdown costs;
  net::NetStats net;
  QualityCounters quality;
  bool ok = true;
  std::string error;
  /// Execution attempts this instance consumed (1 = first try succeeded or
  /// the engine runs without a retry policy).
  int attempts = 1;
  /// Virtual time spent in retry backoff between attempts.
  double retry_wait_ms = 0.0;
  /// The instance exhausted its retry budget (or failed non-retryably)
  /// under a dead-lettering policy: it is parked here — marked failed,
  /// costs of every attempt charged — and the period went on without it.
  bool dead_lettered = false;

  double ElapsedMs() const { return end_time - start_time; }
};

/// The system under test (paper machine "IS"). Deploy the 15 process
/// definitions once; Submit events; RunUntilIdle drains the event queue in
/// virtual-time order. The engine is a deterministic discrete-event
/// simulation: limited worker slots model intra-engine concurrency, so
/// bursts of E1 events queue up and pay waiting/management costs.
class IntegrationSystem {
 public:
  virtual ~IntegrationSystem() = default;

  virtual const std::string& name() const = 0;

  /// Registers a process type. Errors if the id is taken.
  virtual Status Deploy(const ProcessDefinition& def) = 0;

  /// Enqueues a process-initiating event.
  virtual Status Submit(ProcessEvent ev) = 0;

  /// Executes all pending events in (when, submission order) order.
  virtual Status RunUntilIdle() = 0;

  /// Latest completion time seen (virtual ms).
  virtual VirtualTime Now() const = 0;

  /// Moves the engine clock forward (stream serialization points).
  virtual void AdvanceTo(VirtualTime t) = 0;

  virtual const std::vector<InstanceRecord>& records() const = 0;
  virtual void ClearRecords() = 0;

  /// Resets clock + records but keeps deployed process types (start of a
  /// fresh benchmark run).
  virtual void Reset() = 0;

  /// Installs the failure-recovery policy. The default (no-op) keeps the
  /// legacy semantics: one attempt, first failure aborts the run.
  virtual void SetRetryPolicy(const RetryPolicy&) {}

  /// Retired: a run executes on one thread (SPECIFICATION.md §13). Kept as
  /// a no-op only because perfbench's probing wrapper still overrides and
  /// forwards it.
  virtual void SetExecWorkers(int) {}
};

/// Shared DES machinery: event queue, worker slots, cost bookkeeping.
/// Subclasses choose the execution vehicle via ExecuteInstance().
class EngineBase : public IntegrationSystem {
 public:
  EngineBase(std::string name, net::Network* network, CostWeights weights,
             int worker_slots);

  const std::string& name() const override { return name_; }
  Status Deploy(const ProcessDefinition& def) override;
  Status Submit(ProcessEvent ev) override;
  Status RunUntilIdle() override;
  VirtualTime Now() const override { return clock_.Now(); }
  void AdvanceTo(VirtualTime t) override { clock_.AdvanceTo(t); }
  const std::vector<InstanceRecord>& records() const override {
    return records_;
  }
  void ClearRecords() override { records_.clear(); }
  void Reset() override;

  void SetRetryPolicy(const RetryPolicy& policy) override {
    retry_policy_ = policy;
  }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  const CostWeights& weights() const { return weights_; }
  int worker_slots() const { return static_cast<int>(worker_free_.size()); }
  bool HasProcess(const std::string& id) const {
    return processes_.count(id) > 0;
  }

  /// Self-management optimization (paper ref. [22] direction): cache
  /// instantiated process plans. With the cache on, only the first
  /// instance of a process type pays the full plan-instantiation cost;
  /// subsequent instances pay kCachedPlanFraction of it. Off by default —
  /// the benchmark models the unoptimized system.
  void EnablePlanCache(bool enabled) { plan_cache_enabled_ = enabled; }
  bool plan_cache_enabled() const { return plan_cache_enabled_; }
  static constexpr double kCachedPlanFraction = 0.1;

  /// Attaches an observer (src/obs): every executed instance emits a span
  /// per instance / operator / cost charge on the recorder (track = worker
  /// slot) and per-instance cost histograms + plan-cache and instance
  /// counters on the registry. The default-constructed ObsContext disables
  /// all of it; costs and records are identical either way.
  void SetObserver(obs::ObsContext obs) {
    obs_ = obs;
    if (obs_.trace() != nullptr) {
      for (size_t i = 0; i < worker_free_.size(); ++i) {
        obs_.trace()->NameTrack(static_cast<int>(i),
                                name_ + " worker " + std::to_string(i));
      }
    }
  }
  const obs::ObsContext& observer() const { return obs_; }

 protected:
  /// Runs one instance's body through the engine-specific vehicle. The
  /// context has the input message bound already; implementations charge
  /// their costs through it.
  virtual Status ExecuteInstance(const ProcessDefinition& def,
                                 ProcessContext* ctx) = 0;

 private:
  struct QueuedEvent {
    ProcessEvent ev;
    uint64_t seq;
    bool operator>(const QueuedEvent& other) const {
      if (ev.when != other.ev.when) return ev.when > other.ev.when;
      return seq > other.seq;
    }
  };

  /// Runs one popped event on the earliest-free worker slot: admission,
  /// attempts with retry backoff, accounting and its Monitor record. An
  /// error aborts the run unless the retry policy dead-letters it.
  Status RunInstance(const QueuedEvent& queued);

  net::Network* network_;
  CostWeights weights_;
  std::map<std::string, ProcessDefinition> processes_;
  std::string name_;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>,
                      std::greater<QueuedEvent>>
      queue_;
  uint64_t next_seq_ = 0;
  std::vector<VirtualTime> worker_free_;
  VirtualClock clock_;
  std::vector<InstanceRecord> records_;
  bool plan_cache_enabled_ = false;
  std::set<std::string> cached_plans_;
  RetryPolicy retry_policy_;
  obs::ObsContext obs_;
};

/// A native dataflow integration engine: interprets the MTM graph directly.
/// Named "eai" with EaiWeights() (harness::MakeEngine), it is the
/// EAI-server / message-broker realization (the paper's future work lists
/// EAI servers and ETL tools as further reference implementations): the
/// same interpreter with a native XML pipeline (cheap XML, lightweight
/// dispatch) and weak set-oriented processing (expensive relational bulk
/// work).
class DataflowEngine : public EngineBase {
 public:
  explicit DataflowEngine(net::Network* network,
                          CostWeights weights = DataflowWeights(),
                          int worker_slots = 4, std::string name = "dataflow")
      : EngineBase(std::move(name), network, weights, worker_slots) {}

 protected:
  Status ExecuteInstance(const ProcessDefinition& def,
                         ProcessContext* ctx) override;
};

/// The federated-DBMS reference realization (paper Fig. 9), modelled by
/// its costs. In Fig. 9a an E1 process is a queue table plus an insert
/// trigger: an instance pays the CLOB write of its message and the
/// trigger's CLOB read before the body runs. In Fig. 9b an E2 process is a
/// stored procedure: the body runs directly. Relational work is cheap
/// (covered by the optimizer), XML work expensive (it is not).
class FederatedEngine : public EngineBase {
 public:
  explicit FederatedEngine(net::Network* network,
                           CostWeights weights = FederatedWeights(),
                           int worker_slots = 4)
      : EngineBase("federated", network, weights, worker_slots) {}

 protected:
  Status ExecuteInstance(const ProcessDefinition& def,
                         ProcessContext* ctx) override;
};

}  // namespace core
}  // namespace dipbench

#endif  // DIPBENCH_CORE_ENGINE_H_
