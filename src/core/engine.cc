#include "src/core/engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/core/scheduler.h"
#include "src/net/fault.h"
#include "src/storage/table.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace core {

/// What one worker-side attempt of an instance captured. Attempts execute
/// against the (conflict-protected) external systems on a worker thread with
/// all virtual-time placement deferred: costs and spans are recorded at a
/// base time of 0 in a private recorder, then shifted into place when the
/// controller replays the instance in serial order.
struct AttemptCapture {
  Status status;
  double elapsed_ms = 0.0;
  CostBreakdown costs;
  net::NetStats net;
  QualityCounters quality;
  std::vector<OperatorTrace> trace;
  /// Private span capture; null when the run records no trace.
  std::unique_ptr<obs::TraceRecorder> spans;
};

/// One drained queue entry of a wave plus its captured attempts.
struct EngineBase::WaveInstance {
  ProcessEvent ev;
  uint64_t seq = 0;
  const ProcessDefinition* def = nullptr;
  std::vector<AttemptCapture> captures;
  /// Append buffers for the instance's kAppendTable claims: its inserts land
  /// here during capture and ReplayInstance flushes them in serial order.
  /// Null when the definition claims no append tables.
  std::unique_ptr<AppendOverlay> overlay;
  /// The attempt loop stopped early because the retry budget
  /// (instance_timeout_ms) depends on virtual admission time, which is only
  /// known at replay; ReplayInstance finishes the attempts serially.
  bool deferred = false;
};

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
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  while (!queue_.empty()) {
    // Drain the pending events into one wave, in serial order: ascending
    // (when, submission seq) — exactly the order the serial event loop
    // would execute. Every scheduler edge points from an earlier serial
    // index to a later one, so this order doubles as the replay order.
    std::vector<WaveInstance> wave;
    while (!queue_.empty()) {
      WaveInstance inst;
      inst.ev = queue_.top().ev;
      inst.seq = queue_.top().seq;
      queue_.pop();
      inst.def = &processes_.at(inst.ev.process_id);
      wave.push_back(std::move(inst));
    }

    Status abort_status;
    WaveRunner::Hooks hooks;
    hooks.edges = [&] {
      // Endpoints whose installed fault injector depends on the global call
      // arrival order (outage windows, phases): instances claiming one must
      // serialize so that order stays the serial order.
      std::set<std::string> stateful_endpoints;
      for (const WaveInstance& inst : wave) {
        for (const ResourceClaim& c : inst.def->claims) {
          if (c.kind != ResourceClaim::Kind::kEndpoint) continue;
          Result<net::Endpoint*> ep = network_->Get(c.name);
          if (!ep.ok()) continue;
          net::FaultInjector* injector = (*ep)->fault_injector();
          if (injector != nullptr && injector->IsOrderStateful()) {
            stateful_endpoints.insert(c.name);
          }
        }
      }
      std::vector<WaveNode> nodes;
      nodes.reserve(wave.size());
      for (const WaveInstance& inst : wave) {
        nodes.push_back(WaveNode{inst.def, &inst.ev.after_types});
      }
      return BuildWaveEdges(nodes, stateful_endpoints,
                            SerializesSameProcessType());
    };
    // Worker side: run the instance's attempts back-to-back against the
    // external systems, capturing results at virtual base time 0. Returns
    // false when the instance defers (budget-limited retries continue in
    // ReplayInstance, where admission time is known).
    hooks.execute = [&](int i) -> bool {
      WaveInstance& inst = wave[i];
      const ProcessDefinition& def = *inst.def;
      // Append-claimed tables capture into a private buffer: the overlay
      // redirects Table::Insert on this thread for the whole attempt loop
      // (a retry re-inserting its own rows dup-checks against the buffer,
      // exactly as the serial engine dup-checks against the table).
      for (const ResourceClaim& c : def.claims) {
        if (c.kind != ResourceClaim::Kind::kAppendTable) continue;
        if (inst.overlay == nullptr) {
          inst.overlay = std::make_unique<AppendOverlay>();
        }
        inst.overlay->Allow(c.db, c.name);
      }
      AppendOverlay::Scope overlay_scope(inst.overlay.get());
      for (int attempt = 1;; ++attempt) {
        AttemptCapture cap;
        if (obs_.trace() != nullptr) {
          cap.spans = std::make_unique<obs::TraceRecorder>();
        }
        ProcessContext ctx(network_, &weights_);
        ctx.EnableTracing(tracing_enabled_);
        ctx.BindObs(obs::ObsContext(cap.spans.get(), obs_.metrics()), 0.0, 0);
        if (inst.ev.message != nullptr) {
          ctx.SetInput(MtmMessage::FromXml(inst.ev.message));
        }
        {
          // Key fault draws on (instance, attempt, per-endpoint call index)
          // so the injected set is independent of worker interleaving.
          net::FaultCallScope fault_scope(inst.seq, attempt);
          cap.status = ExecuteInstance(def, &ctx);
        }
        cap.elapsed_ms = ctx.elapsed_ms();
        cap.costs = ctx.costs();
        cap.net = ctx.net_stats();
        cap.quality = ctx.quality();
        cap.trace = std::move(ctx.trace());
        const bool ok = cap.status.ok();
        const bool retryable =
            !ok && attempt < max_attempts && RetryPolicy::IsRetryable(cap.status);
        inst.captures.push_back(std::move(cap));
        if (ok || !retryable) break;
        if (retry_policy_.instance_timeout_ms > 0.0) {
          inst.deferred = true;
          break;
        }
      }
      return !inst.deferred;
    };
    hooks.replay = [&](int i) -> bool {
      return ReplayInstance(&wave[i], max_attempts, &abort_status);
    };
    if (!WaveRunner::Run(static_cast<int>(wave.size()), exec_workers_,
                         hooks)) {
      return abort_status;
    }
  }
  return Status::OK();
}

bool EngineBase::ReplayInstance(WaveInstance* inst, int max_attempts,
                                Status* abort_status) {
  const ProcessDefinition& def = *inst->def;
  const ProcessEvent& ev = inst->ev;

  // Flush the captured append buffers FIRST, before any accounting and
  // before the deferred continuation below: the serial engine's inserts
  // happened inside the body, so replay successors — and this instance's
  // own remaining attempts, which run against the real tables — must see
  // the rows. Buffers flush even for failed attempts (partial side effects
  // persist, as in the serial engine).
  if (inst->overlay != nullptr) {
    for (AppendOverlay::Entry& entry : inst->overlay->entries()) {
      if (entry.buf.table == nullptr) continue;  // body never inserted
      Status flush = entry.buf.table->FlushAppends(&entry.buf);
      if (!flush.ok()) {
        *abort_status = flush.WithContext("append flush of " + def.id);
        return false;
      }
    }
  }

  // Pick the earliest-free worker slot (virtual DES concurrency — distinct
  // from the real exec_workers_ pool).
  size_t worker = 0;
  for (size_t i = 1; i < worker_free_.size(); ++i) {
    if (worker_free_[i] < worker_free_[worker]) worker = i;
  }
  VirtualTime start = std::max(ev.when, worker_free_[worker]);
  double wait_ms = start - ev.when;

  uint64_t instance_span = 0;
  if (obs_.trace() != nullptr) {
    instance_span = obs_.trace()->BeginSpan("instance " + def.id,
                                            obs::Category::kNone, start,
                                            static_cast<int>(worker));
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

  // Replay the captured attempts with the serial event loop's accounting:
  // attempt 1 pays the full admission, retries only the scheduling slice;
  // every attempt's work is charged — failed tries cost real resources.
  Status st;
  VirtualTime attempt_start = start;
  VirtualTime end = start;
  for (size_t k = 0; k < inst->captures.size(); ++k) {
    AttemptCapture& cap = inst->captures[k];
    const int attempt = static_cast<int>(k) + 1;
    const double charge =
        attempt == 1 ? admission_ms : weights_.scheduling_ms;
    if (obs_.trace() != nullptr && charge > 0) {
      obs_.trace()->AddCompleteSpan("management", obs::Category::kManagement,
                                    attempt_start, attempt_start + charge,
                                    static_cast<int>(worker));
    }
    uint64_t attempt_span = 0;
    if (attempt > 1 && obs_.trace() != nullptr) {
      attempt_span = obs_.trace()->BeginSpan(
          "retry " + def.id + " #" + std::to_string(attempt),
          obs::Category::kManagement, attempt_start,
          static_cast<int>(worker));
    }
    if (obs_.trace() != nullptr && cap.spans != nullptr) {
      obs_.trace()->Absorb(*cap.spans, attempt_start + charge,
                           static_cast<int>(worker),
                           attempt_span != 0 ? attempt_span : instance_span);
    }

    end = attempt_start + charge + cap.elapsed_ms;
    st = cap.status;
    rec.attempts = attempt;
    rec.costs.cm_ms += charge;
    rec.costs.Add(cap.costs);
    rec.net.Add(cap.net);
    rec.quality.Add(cap.quality);
    rec.trace.insert(rec.trace.end(),
                     std::make_move_iterator(cap.trace.begin()),
                     std::make_move_iterator(cap.trace.end()));
    if (attempt_span != 0) {
      if (!st.ok()) {
        obs_.trace()->Annotate(attempt_span, "error", st.ToString());
      }
      obs_.trace()->EndSpan(attempt_span, end);
    }
    if (k + 1 < inst->captures.size()) {
      // A later capture exists, so this attempt failed retryably and no
      // budget applies (budget-limited instances defer instead).
      double backoff_ms = retry_policy_.BackoffMs(attempt);
      obs_.Count("engine.retries");
      if (obs_.trace() != nullptr && backoff_ms > 0.0) {
        uint64_t backoff_span = obs_.trace()->BeginSpan(
            "backoff " + def.id, obs::Category::kManagement, end,
            static_cast<int>(worker));
        obs_.trace()->EndSpan(backoff_span, end + backoff_ms);
      }
      rec.retry_wait_ms += backoff_ms;
      attempt_start = end + backoff_ms;
    }
  }

  if (inst->deferred) {
    // Finish the remaining attempts serially: the per-instance budget runs
    // in virtual time from admission, so only the replay phase can decide
    // when it expires.
    int attempt = static_cast<int>(inst->captures.size());
    while (true) {
      double backoff_ms = retry_policy_.BackoffMs(attempt);
      // Once the next try could not start inside the budget, stop.
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
            "backoff " + def.id, obs::Category::kManagement, end,
            static_cast<int>(worker));
        obs_.trace()->EndSpan(backoff_span, end + backoff_ms);
      }
      rec.retry_wait_ms += backoff_ms;
      attempt_start = end + backoff_ms;
      ++attempt;

      ProcessContext ctx(network_, &weights_);
      ctx.EnableTracing(tracing_enabled_);
      ctx.BindObs(obs_, attempt_start, static_cast<int>(worker));
      if (ev.message != nullptr) {
        ctx.SetInput(MtmMessage::FromXml(ev.message));
      }
      ctx.ChargeManagement(weights_.scheduling_ms);
      uint64_t attempt_span = 0;
      if (obs_.trace() != nullptr) {
        attempt_span = obs_.trace()->BeginSpan(
            "retry " + def.id + " #" + std::to_string(attempt),
            obs::Category::kManagement, attempt_start,
            static_cast<int>(worker));
      }
      {
        net::FaultCallScope fault_scope(inst->seq, attempt);
        st = ExecuteInstance(def, &ctx);
      }
      end = attempt_start + ctx.elapsed_ms();
      rec.attempts = attempt;
      rec.costs.Add(ctx.costs());
      rec.net.Add(ctx.net_stats());
      rec.quality.Add(ctx.quality());
      std::vector<OperatorTrace>& tr = ctx.trace();
      rec.trace.insert(rec.trace.end(),
                       std::make_move_iterator(tr.begin()),
                       std::make_move_iterator(tr.end()));
      if (attempt_span != 0) {
        if (!st.ok()) {
          obs_.trace()->Annotate(attempt_span, "error", st.ToString());
        }
        obs_.trace()->EndSpan(attempt_span, end);
      }
      if (st.ok()) break;
      if (attempt >= max_attempts || !RetryPolicy::IsRetryable(st)) break;
    }
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
      return true;
    }
    *abort_status = st.WithContext("instance of " + def.id);
    return false;
  }
  return true;
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

Status EaiEngine::ExecuteInstance(const ProcessDefinition& def,
                                  ProcessContext* ctx) {
  return ExecuteBody(def.body, ctx);
}

thread_local ProcessContext* FederatedEngine::current_ctx_ = nullptr;

FederatedEngine::FederatedEngine(net::Network* network, CostWeights weights,
                                 int worker_slots)
    : EngineBase("federated", network, weights, worker_slots) {}

Status FederatedEngine::Deploy(const ProcessDefinition& def) {
  DIP_RETURN_NOT_OK(EngineBase::Deploy(def));
  if (def.event_type == EventType::kMessage) {
    // Fig. 9a: CREATE TABLE <id>_queue (tid BIGINT PRIMARY KEY, msg CLOB)
    // plus an insert trigger that executes the integration process.
    Schema queue;
    queue.AddColumn("tid", DataType::kInt64, false)
        .AddColumn("msg", DataType::kString)
        .SetPrimaryKey({"tid"});
    DIP_RETURN_NOT_OK(
        engine_db_.CreateTable(def.id + "_queue", std::move(queue)).status());
    const std::string process_id = def.id;
    DIP_RETURN_NOT_OK(engine_db_.SetInsertTrigger(
        def.id + "_queue",
        [this, process_id](Database*, const std::string&,
                           const Row& inserted) -> Status {
          if (current_ctx_ == nullptr) {
            return Status::Internal("trigger fired outside an instance");
          }
          // The trigger re-parses the queued CLOB into the message the
          // process body consumes ("evaluating the logical table inserted").
          DIP_ASSIGN_OR_RETURN(xml::NodePtr doc,
                               xml::ParseXml(inserted[1].AsString()));
          current_ctx_->ChargeXmlNodes(doc->SubtreeSize());
          current_ctx_->SetInput(MtmMessage::FromXml(std::move(doc)));
          return ExecuteBody(processes_.at(process_id).body, current_ctx_);
        }));
  } else {
    // Fig. 9b: the process becomes a stored procedure (no data input except
    // configuration parameters), staging through temporary tables — our
    // operators materialize between steps, which models exactly that.
    const std::string process_id = def.id;
    DIP_RETURN_NOT_OK(engine_db_.RegisterProcedure(
        "exec_" + def.id,
        [this, process_id](Database*, const std::vector<Value>&) -> Status {
          if (current_ctx_ == nullptr) {
            return Status::Internal("procedure outside an instance");
          }
          return ExecuteBody(processes_.at(process_id).body, current_ctx_);
        }));
  }
  return Status::OK();
}

Status FederatedEngine::ExecuteInstance(const ProcessDefinition& def,
                                        ProcessContext* ctx) {
  current_ctx_ = ctx;
  Status st;
  if (def.event_type == EventType::kMessage) {
    DIP_ASSIGN_OR_RETURN(auto doc, ctx->input().Xml());
    std::string text = xml::WriteXml(*doc);
    // INSERT INTO <id>_queue VALUES (@msg) — the trigger runs the process.
    int64_t tid = engine_db_.NextSequenceValue(def.id + "_tid");
    ctx->ChargeXmlNodes(doc->SubtreeSize());  // serialize into the CLOB
    st = engine_db_.InsertWithTriggers(
        def.id + "_queue", Row{Value::Int(tid), Value::String(text)});
  } else {
    // EXECUTE <procedure>.
    st = engine_db_.CallProcedure("exec_" + def.id, {});
  }
  current_ctx_ = nullptr;
  return st;
}

}  // namespace core
}  // namespace dipbench
