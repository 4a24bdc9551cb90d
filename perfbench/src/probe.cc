#include "perfbench/src/probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <string>
#include <unordered_map>
#include <utility>

#include "perfbench/src/alloc_hook.h"

namespace perfbench {

using dipbench::Result;
using dipbench::Status;
namespace core = dipbench::core;

Stamp& Stamp::operator+=(const Stamp& o) {
  ms += o.ms;
  cpu_ms += o.cpu_ms;
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
  return *this;
}

Stamp& Stamp::operator-=(const Stamp& o) {
  ms -= o.ms;
  cpu_ms -= o.cpu_ms;
  allocs -= o.allocs;
  alloc_bytes -= o.alloc_bytes;
  return *this;
}

Stamp operator-(Stamp a, const Stamp& b) { return a -= b; }

Stamp Now(bool traced) {
  Stamp s;
  s.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count();
  if (traced) {
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    s.cpu_ms = static_cast<double>(cpu.tv_sec) * 1e3 +
               static_cast<double>(cpu.tv_nsec) / 1e6;
    AllocTotals a = ReadAllocTotals();
    s.allocs = a.count;
    s.alloc_bytes = a.bytes;
  }
  return s;
}

// --- ProbedEngine ----------------------------------------------------------

ProbedEngine::ProbedEngine(core::IntegrationSystem* inner, bool traced)
    : inner_(inner), traced_(traced) {}

ProbedEngine::Scope::Scope(const ProbedEngine* engine, CallKind kind,
                           int period)
    : engine_(engine) {
  call_.kind = kind;
  call_.period = period;
  call_.begin = perfbench::Now(engine_->traced_);
}

ProbedEngine::Scope::~Scope() {
  call_.end = perfbench::Now(engine_->traced_);
  engine_->calls_.push_back(call_);
}

const std::string& ProbedEngine::name() const {
  Scope scope(this, CallKind::kName);
  return inner_->name();
}

Status ProbedEngine::Deploy(const core::ProcessDefinition& def) {
  Scope scope(this, CallKind::kDeploy);
  return inner_->Deploy(def);
}

Status ProbedEngine::Submit(core::ProcessEvent ev) {
  Scope scope(this, CallKind::kSubmit, ev.period);
  return inner_->Submit(std::move(ev));
}

Status ProbedEngine::RunUntilIdle() {
  Scope scope(this, CallKind::kRun);
  return inner_->RunUntilIdle();
}

dipbench::VirtualTime ProbedEngine::Now() const {
  Scope scope(this, CallKind::kNow);
  return inner_->Now();
}

void ProbedEngine::AdvanceTo(dipbench::VirtualTime t) {
  Scope scope(this, CallKind::kOther);
  inner_->AdvanceTo(t);
}

const std::vector<core::InstanceRecord>& ProbedEngine::records() const {
  Scope scope(this, CallKind::kRecords);
  return inner_->records();
}

void ProbedEngine::ClearRecords() {
  Scope scope(this, CallKind::kOther);
  inner_->ClearRecords();
}

void ProbedEngine::Reset() {
  Scope scope(this, CallKind::kOther);
  inner_->Reset();
}

void ProbedEngine::SetRetryPolicy(const core::RetryPolicy& policy) {
  Scope scope(this, CallKind::kOther);
  inner_->SetRetryPolicy(policy);
}

void ProbedEngine::SetExecWorkers(int workers) {
  Scope scope(this, CallKind::kOther);
  inner_->SetExecWorkers(workers);
}

// --- Attribution -----------------------------------------------------------

double RunProfile::UnattributedMs() const {
  double parts = pre.ms + monitor.ms + verify.ms;
  for (double p : period_ms) parts += p;
  return run.ms - parts;
}

Result<RunProfile> Attribute(const std::vector<Call>& calls,
                             const Stamp& run_begin, const Stamp& run_end) {
  RunProfile prof;
  prof.run = run_end - run_begin;

  // Pre phase: up to the last deploy/configuration call before the first
  // Submit or RunUntilIdle.
  size_t first_work = calls.size();
  for (size_t i = 0; i < calls.size(); ++i) {
    if (calls[i].kind == CallKind::kSubmit || calls[i].kind == CallKind::kRun) {
      first_work = i;
      break;
    }
  }
  if (first_work == calls.size()) {
    return Status::InvalidArgument("no Submit or RunUntilIdle call in the run");
  }
  Stamp cursor = run_begin;
  for (size_t i = 0; i < first_work; ++i) {
    if (calls[i].kind == CallKind::kDeploy || calls[i].kind == CallKind::kOther) {
      cursor = calls[i].end;
    }
  }
  prof.pre = cursor - run_begin;

  // Periods: each ends with its sixth RunUntilIdle.
  size_t runs = 0;         // RunUntilIdle calls in the open period
  int period = -1;         // its ProcessEvent::period, once a Submit shows it
  int last_period = -1;
  Stamp in_calls;          // its time inside Submit and RunUntilIdle
  size_t last_run = first_work;
  for (size_t i = first_work; i < calls.size(); ++i) {
    const Call& c = calls[i];
    if (c.kind == CallKind::kSubmit) {
      if (period == -1) period = c.period;
      if (c.period != period) {
        return Status::InvalidArgument(
            "Submit for period " + std::to_string(c.period) +
            " inside period " + std::to_string(period));
      }
      ++prof.submits;
      if (runs == 0) ++prof.ab_instances;
      prof.submit += c.end - c.begin;
      in_calls += c.end - c.begin;
    } else if (c.kind == CallKind::kRun) {
      prof.steps[runs++] += c.end - c.begin;
      in_calls += c.end - c.begin;
      if (runs < kStepNames.size()) continue;
      if (period != -1 && period <= last_period) {
        return Status::InvalidArgument("period " + std::to_string(period) +
                                       " follows period " +
                                       std::to_string(last_period));
      }
      if (period != -1) last_period = period;
      const Stamp period_total = c.end - cursor;
      prof.period_ms.push_back(period_total.ms);
      prof.gen += period_total - in_calls;
      cursor = c.end;
      last_run = i;
      runs = 0;
      period = -1;
      in_calls = Stamp{};
    }
  }
  if (runs != 0 || period != -1) {
    return Status::InvalidArgument(
        "the last period is incomplete: " + std::to_string(runs) + " of " +
        std::to_string(kStepNames.size()) + " RunUntilIdle calls");
  }
  if (prof.period_ms.empty()) {
    return Status::InvalidArgument("no complete benchmark period");
  }

  // Post phase: Monitor until the last records() call, verification from
  // its end until the final Now().
  size_t last_records = calls.size();
  for (size_t j = last_run + 1; j < calls.size(); ++j) {
    if (calls[j].kind == CallKind::kRecords) last_records = j;
  }
  if (last_records == calls.size()) {
    return Status::InvalidArgument("no records() call after the last period");
  }
  size_t final_now = calls.size();
  for (size_t j = last_records + 1; j < calls.size(); ++j) {
    if (calls[j].kind == CallKind::kNow) final_now = j;
  }
  if (final_now == calls.size()) {
    return Status::InvalidArgument("no Now() call after the Monitor");
  }
  prof.monitor = calls[last_records].begin - cursor;
  prof.verify = calls[final_now].begin - calls[last_records].end;
  return prof;
}

// --- Statistics and verdicts -----------------------------------------------

namespace {

uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile size_t g_sink = 0;

/// 500k string keys (about 316k distinct) hashed into an unordered_map of
/// growing vectors, then sorted: a working set of tens of MiB.
double HashKernelMs() {
  const Stamp begin = perfbench::Now(false);
  std::unordered_map<std::string, std::vector<int64_t>> buckets;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 500000; ++i) {
    XorShift(x);
    buckets["key-" + std::to_string(x % 500000)].push_back(
        static_cast<int64_t>(x));
  }
  std::vector<std::string> keys;
  keys.reserve(buckets.size());
  for (const auto& entry : buckets) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  g_sink = g_sink + keys.size();
  return (perfbench::Now(false) - begin).ms;
}

/// 200k rows built, joined to themselves through a hash index, grouped by
/// a string column and sorted: the shape of a relational step.
double RowKernelMs() {
  struct Row {
    int64_t id;
    int64_t fk;
    double value;
    std::string name;
  };
  const Stamp begin = perfbench::Now(false);
  std::vector<Row> rows;
  uint64_t x = 12345;
  for (int64_t i = 0; i < 200000; ++i) {
    XorShift(x);
    rows.push_back({i, static_cast<int64_t>(x % 20000),
                    static_cast<double>(x % 1000),
                    "customer-name-" + std::to_string(x % 50000)});
  }
  std::unordered_map<int64_t, const Row*> index;
  for (const Row& r : rows) index.emplace(r.id, &r);
  std::unordered_map<std::string, double> sums;
  for (const Row& r : rows) {
    auto it = index.find(r.fk);
    if (it != index.end()) sums[it->second->name] += r.value;
  }
  std::vector<std::pair<std::string, double>> out(sums.begin(), sums.end());
  std::sort(out.begin(), out.end());
  g_sink = g_sink + out.size();
  return (perfbench::Now(false) - begin).ms;
}

}  // namespace

double CalibrationMs() { return std::sqrt(HashKernelMs() * RowKernelMs()); }

double CalibratedRun::TotalMs() const {
  double total = pre_ms + rest_ms;
  for (double p : period_ms) total += p;
  return total;
}

Result<CalibratedRun> Calibrated(const std::vector<const RunProfile*>& runs,
                                 const std::vector<double>& calibration_ms) {
  if (runs.empty()) return Status::InvalidArgument("no repetition to summarize");
  if (calibration_ms.size() != runs.size()) {
    return Status::InvalidArgument("one calibration time per repetition needed");
  }
  const size_t periods = runs.front()->period_ms.size();
  std::vector<double> pre, rest;
  std::vector<std::vector<double>> period(periods);
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunProfile& r = *runs[i];
    if (!(calibration_ms[i] > 0.0)) {
      return Status::InvalidArgument("calibration time must be positive");
    }
    if (r.period_ms.size() != periods) {
      return Status::InvalidArgument("repetitions differ in their period count");
    }
    const double scale = kReferenceCalibrationMs / calibration_ms[i];
    double rest_ms = r.run.ms - r.pre.ms;
    for (size_t k = 0; k < periods; ++k) {
      period[k].push_back(r.period_ms[k] * scale);
      rest_ms -= r.period_ms[k];
    }
    pre.push_back(r.pre.ms * scale);
    rest.push_back(rest_ms * scale);
  }
  CalibratedRun c;
  c.pre_ms = Median(std::move(pre));
  c.rest_ms = Median(std::move(rest));
  for (std::vector<double>& p : period) c.period_ms.push_back(Median(std::move(p)));
  return c;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

uint64_t FailedInstances(const RepCheck& rep, const std::string& want_monitor,
                         const std::string& want_state) {
  const bool mismatch =
      (!want_monitor.empty() && rep.monitor_hash != want_monitor) ||
      (!want_state.empty() && rep.state_hash != want_state);
  if (!rep.run_ok || mismatch) return std::max<uint64_t>(rep.submitted, 1);
  return rep.failed_instances;
}

}  // namespace perfbench
