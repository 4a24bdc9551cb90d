#include "src/core/engine.h"

#include <algorithm>
#include <utility>

#include "src/net/fault.h"

namespace dipbench {
namespace core {

EngineBase::EngineBase(std::string name, net::Network* network,
                       CostWeights weights, int worker_slots)
    : network_(network),
      weights_(weights),
      name_(std::move(name)),
      worker_free_(static_cast<size_t>(worker_slots > 0 ? worker_slots : 1),
                   0.0) {}

Status EngineBase::Deploy(const ProcessDefinition& def) {
  if (processes_.count(def.id) > 0) {
    return Status::AlreadyExists("process " + def.id + " already deployed");
  }
  if (def.body.empty()) {
    return Status::InvalidArgument("process " + def.id + " has no operators");
  }
  processes_.emplace(def.id, def);
  return Status::OK();
}

Status EngineBase::Submit(ProcessEvent ev) {
  if (processes_.count(ev.process_id) == 0) {
    return Status::NotFound("process " + ev.process_id + " not deployed");
  }
  queue_.push(QueuedEvent{std::move(ev), next_seq_++});
  return Status::OK();
}

Status EngineBase::RunUntilIdle() {
  while (!queue_.empty()) {
    QueuedEvent next = queue_.top();
    queue_.pop();
    Status st = RunInstance(next);
    if (!st.ok()) {
      // An aborted run drops the events still queued: the engine is idle.
      while (!queue_.empty()) queue_.pop();
      return st;
    }
  }
  return Status::OK();
}

Status EngineBase::RunInstance(const QueuedEvent& queued) {
  const ProcessEvent& ev = queued.ev;
  const ProcessDefinition& def = processes_.at(ev.process_id);
  const int max_attempts = std::max(1, retry_policy_.max_attempts);

  // Pick the earliest-free worker slot (the modeled DES concurrency).
  size_t worker = 0;
  for (size_t i = 1; i < worker_free_.size(); ++i) {
    if (worker_free_[i] < worker_free_[worker]) worker = i;
  }
  const int track = static_cast<int>(worker);
  VirtualTime start = std::max(ev.when, worker_free_[worker]);
  double wait_ms = start - ev.when;

  uint64_t instance_span = 0;
  if (obs_.trace() != nullptr) {
    instance_span = obs_.trace()->BeginSpan("instance " + def.id,
                                            obs::Category::kNone, start, track);
    obs_.trace()->Annotate(instance_span, "period", std::to_string(ev.period));
    obs_.trace()->Annotate(instance_span, "wait_ms", std::to_string(wait_ms));
  }
  // Admission management: plan instantiation + scheduling + a share of
  // the queueing delay (the engine self-manages while holding instances
  // back — the paper's "time for self-management"). With the plan cache
  // on, repeat instances reuse the instantiated plan. Retries re-pay
  // only the scheduling slice: the plan stays instantiated.
  double plan_ms = weights_.plan_instantiation_ms;
  if (plan_cache_enabled_) {
    if (cached_plans_.insert(def.id).second) {
      // First instance: full instantiation, plan enters the cache.
      obs_.Count("engine.plan_cache.misses");
    } else {
      plan_ms *= kCachedPlanFraction;
      obs_.Count("engine.plan_cache.hits");
    }
  }
  double admission_ms = plan_ms + weights_.scheduling_ms +
                        std::min(wait_ms * weights_.wait_management_frac,
                                 weights_.wait_management_cap_ms);

  InstanceRecord rec;
  rec.process_id = def.id;
  rec.period = ev.period;
  rec.submit_time = ev.when;
  rec.start_time = start;
  rec.wait_ms = wait_ms;

  // Attempt 1 pays the full admission, retries only the scheduling slice;
  // every attempt's work is charged — failed tries cost real resources.
  Status st;
  VirtualTime attempt_start = start;
  VirtualTime end = start;
  for (int attempt = 1;; ++attempt) {
    const double charge =
        attempt == 1 ? admission_ms : weights_.scheduling_ms;
    if (obs_.trace() != nullptr && charge > 0) {
      obs_.trace()->AddCompleteSpan("management", obs::Category::kManagement,
                                    attempt_start, attempt_start + charge,
                                    track);
    }
    uint64_t attempt_span = 0;
    if (attempt > 1 && obs_.trace() != nullptr) {
      attempt_span = obs_.trace()->BeginSpan(
          "retry " + def.id + " #" + std::to_string(attempt),
          obs::Category::kManagement, attempt_start, track);
    }
    ProcessContext ctx(network_, &weights_);
    ctx.BindObs(obs_, attempt_start + charge, track);
    if (ev.message != nullptr) {
      ctx.SetInput(MtmMessage::FromXml(ev.message));
    }
    {
      // Key fault draws on (instance, attempt, per-endpoint call index):
      // they define which calls of a faulted run fail.
      net::FaultCallScope fault_scope(queued.seq, attempt);
      st = ExecuteInstance(def, &ctx);
    }
    end = attempt_start + charge + ctx.elapsed_ms();
    rec.attempts = attempt;
    rec.costs.cm_ms += charge;
    rec.costs.Add(ctx.costs());
    rec.net.Add(ctx.net_stats());
    rec.quality.Add(ctx.quality());
    if (attempt_span != 0) {
      if (!st.ok()) {
        obs_.trace()->Annotate(attempt_span, "error", st.ToString());
      }
      obs_.trace()->EndSpan(attempt_span, end);
    }
    if (st.ok() || attempt >= max_attempts ||
        !RetryPolicy::IsRetryable(st)) {
      break;
    }
    double backoff_ms = retry_policy_.BackoffMs(attempt);
    // The per-instance budget runs in virtual time from admission: once
    // the next try could not start inside it, stop.
    if (retry_policy_.instance_timeout_ms > 0.0 &&
        (end + backoff_ms) - start >= retry_policy_.instance_timeout_ms) {
      st = Status::Timeout("instance budget exhausted after " +
                           std::to_string(attempt) + " attempts: " +
                           st.ToString());
      break;
    }
    obs_.Count("engine.retries");
    if (obs_.trace() != nullptr && backoff_ms > 0.0) {
      uint64_t backoff_span = obs_.trace()->BeginSpan(
          "backoff " + def.id, obs::Category::kManagement, end, track);
      obs_.trace()->EndSpan(backoff_span, end + backoff_ms);
    }
    rec.retry_wait_ms += backoff_ms;
    attempt_start = end + backoff_ms;
  }

  const bool dead_letter = !st.ok() && retry_policy_.dead_letter;
  rec.end_time = end;
  rec.ok = st.ok();
  rec.dead_lettered = dead_letter;
  if (!st.ok()) rec.error = st.ToString();

  if (obs_.trace() != nullptr) {
    if (!st.ok()) obs_.trace()->Annotate(instance_span, "error", rec.error);
    if (rec.attempts > 1) {
      obs_.trace()->Annotate(instance_span, "attempts",
                             std::to_string(rec.attempts));
    }
    if (dead_letter) {
      obs_.trace()->Annotate(instance_span, "dead_lettered", "true");
    }
    obs_.trace()->EndSpan(instance_span, end);
  }
  if (obs_.metrics() != nullptr) {
    obs::MetricsRegistry* m = obs_.metrics();
    m->GetCounter("engine.instances")->Increment();
    if (!st.ok()) m->GetCounter("engine.instance_errors")->Increment();
    auto buckets = obs::DefaultLatencyBucketsMs();
    m->GetHistogram("instance.cc_ms", buckets)->Observe(rec.costs.cc_ms);
    m->GetHistogram("instance.cm_ms", buckets)->Observe(rec.costs.cm_ms);
    m->GetHistogram("instance.cp_ms", buckets)->Observe(rec.costs.cp_ms);
    m->GetHistogram("instance.total_ms", buckets)->Observe(rec.costs.Total());
    m->GetHistogram("instance.wait_ms", buckets)->Observe(rec.wait_ms);
  }
  records_.push_back(std::move(rec));

  worker_free_[worker] = end;
  clock_.AdvanceTo(end);
  // Engine-level errors abort the run unless the policy dead-letters
  // them: benchmark processes are expected to handle their data errors
  // internally (P10 validation branches), but with recovery enabled an
  // exhausted instance is parked and the period carries on without it.
  if (!st.ok()) {
    if (dead_letter) {
      obs_.Count("engine.dead_letters");
      return Status::OK();
    }
    return st.WithContext("instance of " + def.id);
  }
  return Status::OK();
}

void EngineBase::Reset() {
  records_.clear();
  std::fill(worker_free_.begin(), worker_free_.end(), 0.0);
  clock_.Reset();
  while (!queue_.empty()) queue_.pop();
  next_seq_ = 0;
  cached_plans_.clear();
}

Status DataflowEngine::ExecuteInstance(const ProcessDefinition& def,
                                       ProcessContext* ctx) {
  return ExecuteBody(def.body, ctx);
}

Status FederatedEngine::ExecuteInstance(const ProcessDefinition& def,
                                        ProcessContext* ctx) {
  if (def.event_type == EventType::kMessage) {
    // Fig. 9a: the message is inserted into the process's queue table as a
    // CLOB, and the insert trigger reads it back ("evaluating the logical
    // table inserted") before it runs the process. Both transfers are
    // charged; the body runs on the submitted document.
    DIP_ASSIGN_OR_RETURN(auto doc, ctx->input().Xml());
    ctx->ChargeXmlNodes(doc->SubtreeSize());       // the CLOB write
    ctx->ChargeXmlNodes(ctx->input().XmlNodes());  // the CLOB read
  }
  // Fig. 9b: an E2 process is a stored procedure; calling it runs the body.
  return ExecuteBody(def.body, ctx);
}

}  // namespace core
}  // namespace dipbench
