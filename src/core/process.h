#ifndef DIPBENCH_CORE_PROCESS_H_
#define DIPBENCH_CORE_PROCESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/cost.h"
#include "src/core/message.h"
#include "src/net/endpoint.h"
#include "src/obs/obs.h"

namespace dipbench {
namespace core {

/// The two process-initiating event types of the paper (Section IV):
/// E1 — incoming messages, E2 — time-based scheduling events.
enum class EventType { kMessage, kTimeEvent };

/// Data-quality counters surfaced by operators; the Monitor reports them
/// (paper future work: "integrating quality ... issues").
struct QualityCounters {
  uint64_t validation_failures = 0;
  uint64_t rows_loaded = 0;
  uint64_t messages_rejected = 0;
  uint64_t duplicates_eliminated = 0;

  void Add(const QualityCounters& other) {
    validation_failures += other.validation_failures;
    rows_loaded += other.rows_loaded;
    messages_rejected += other.messages_rejected;
    duplicates_eliminated += other.duplicates_eliminated;
  }
};

/// Per-instance execution state: the variable environment (the msg1, msg2,
/// ... of the paper's process diagrams), cost accumulation, and access to
/// the external systems.
class ProcessContext {
 public:
  ProcessContext(net::Network* network, const CostWeights* weights)
      : network_(network), weights_(weights) {}

  net::Network* network() { return network_; }
  const CostWeights& weights() const { return *weights_; }

  /// --- variable environment ---
  void Set(const std::string& var, MtmMessage msg) {
    vars_[var] = std::move(msg);
  }
  Result<MtmMessage> Get(const std::string& var) const {
    auto it = vars_.find(var);
    if (it == vars_.end()) {
      return Status::NotFound("unbound process variable " + var);
    }
    return it->second;
  }
  bool Has(const std::string& var) const { return vars_.count(var) > 0; }

  /// The event's input message (bound by RECEIVE for E1 processes).
  void SetInput(MtmMessage input) { input_ = std::move(input); }
  const MtmMessage& input() const { return input_; }

  /// --- cost accounting (C_p derived from work, C_c from NetStats) ---
  /// Every ledger entry optionally emits one category-tagged leaf span on
  /// the bound TraceRecorder, so the per-category sum over leaf spans
  /// reconciles with the cost totals exactly (the categories never flow
  /// through any other path).
  void ChargeRows(uint64_t rows) {
    double ms = weights_->per_row_ms * weights_->relational_factor *
                static_cast<double>(rows);
    costs_.cp_ms += ms;
    EmitCostSpan("rows", obs::Category::kProcessing, ms);
    elapsed_ms_ += ms;
  }
  void ChargeXmlNodes(uint64_t nodes) {
    double ms = weights_->per_xml_node_ms * weights_->xml_factor *
                static_cast<double>(nodes);
    costs_.cp_ms += ms;
    EmitCostSpan("xml", obs::Category::kProcessing, ms);
    elapsed_ms_ += ms;
  }
  void ChargeOperator() {
    costs_.cp_ms += weights_->per_operator_ms;
    EmitCostSpan("dispatch", obs::Category::kProcessing,
                 weights_->per_operator_ms);
    elapsed_ms_ += weights_->per_operator_ms;
  }
  void ChargeComm(const net::NetStats& stats) {
    costs_.cc_ms += stats.comm_ms;
    if (obs_.trace() != nullptr && stats.comm_ms > 0) {
      uint64_t id = obs_.trace()->AddCompleteSpan(
          "external round-trip", obs::Category::kComm,
          obs_base_ms_ + elapsed_ms_, obs_base_ms_ + elapsed_ms_ +
          stats.comm_ms, obs_track_);
      obs_.trace()->Annotate(id, "bytes", std::to_string(stats.bytes));
      obs_.trace()->Annotate(id, "rows", std::to_string(stats.rows));
      obs_.trace()->Annotate(id, "interactions",
                             std::to_string(stats.interactions));
    }
    elapsed_ms_ += stats.comm_ms;
    net_.Add(stats);
  }
  void ChargeManagement(double ms) {
    costs_.cm_ms += ms;
    EmitCostSpan("management", obs::Category::kManagement, ms);
    elapsed_ms_ += ms;
  }

  const CostBreakdown& costs() const { return costs_; }
  const net::NetStats& net_stats() const { return net_; }
  double elapsed_ms() const { return elapsed_ms_; }
  /// FORK support: replaces the elapsed time (costs stay summed).
  void OverrideElapsed(double ms) { elapsed_ms_ = ms; }

  QualityCounters& quality() { return quality_; }
  const QualityCounters& quality() const { return quality_; }

  /// --- observability (src/obs) ---
  /// Binds the instance to an observer: spans emitted from this context
  /// are positioned at `base_ms + elapsed_ms()` on `track` (the engine
  /// passes the instance's virtual start time and worker slot). A
  /// default-constructed ObsContext keeps everything disabled.
  void BindObs(obs::ObsContext obs, VirtualTime base_ms, int track) {
    obs_ = obs;
    obs_base_ms_ = base_ms;
    obs_track_ = track;
  }
  const obs::ObsContext& obs() const { return obs_; }
  int obs_track() const { return obs_track_; }
  /// Current position of this instance on the virtual timeline.
  VirtualTime ObsNow() const { return obs_base_ms_ + elapsed_ms_; }

 private:
  void EmitCostSpan(const char* what, obs::Category category, double ms) {
    if (obs_.trace() != nullptr && ms > 0) {
      obs_.trace()->AddCompleteSpan(what, category, obs_base_ms_ + elapsed_ms_,
                                    obs_base_ms_ + elapsed_ms_ + ms,
                                    obs_track_);
    }
  }

  net::Network* network_;
  const CostWeights* weights_;
  std::map<std::string, MtmMessage> vars_;
  MtmMessage input_;
  CostBreakdown costs_;
  net::NetStats net_;
  double elapsed_ms_ = 0.0;
  QualityCounters quality_;
  obs::ObsContext obs_;
  VirtualTime obs_base_ms_ = 0.0;
  int obs_track_ = 0;
};

/// One MTM operator. Operators are immutable and shared across instances;
/// all per-instance state lives in the ProcessContext.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Execute(ProcessContext* ctx) const = 0;
  virtual std::string Describe() const = 0;
};

using OpPtr = std::shared_ptr<const Operator>;

/// A platform-independent integration process type (MTM graph): the unit
/// the benchmark deploys into a system under test. The 15 DIPBench process
/// types are instances of this.
struct ProcessDefinition {
  std::string id;          ///< e.g. "P02".
  char group = '?';        ///< 'A'..'D'.
  EventType event_type = EventType::kMessage;
  std::string description;
  std::vector<OpPtr> body;
};

/// Executes a process body against a context (shared by engines and the
/// SUBPROCESS/FORK/SWITCH operators).
Status ExecuteBody(const std::vector<OpPtr>& body, ProcessContext* ctx);

}  // namespace core
}  // namespace dipbench

#endif  // DIPBENCH_CORE_PROCESS_H_
