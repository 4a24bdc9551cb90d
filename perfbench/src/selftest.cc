// Self-tests of the benchmark's own logic: quantiles, step attribution by
// call order, the fastest-parts estimator, and the output gate's "hash
// mismatch means every instance of the repetition failed".

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/probe.h"

namespace perfbench {
namespace {

using dipbench::Result;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Builds a synthetic call log on a fake clock; 10 allocations happen in
/// every fake millisecond.
class Log {
 public:
  /// `gap` ms pass outside engine calls, then a call of `dur` ms.
  void Add(CallKind kind, double gap, double dur, int period = -1) {
    Tick(gap);
    Call c;
    c.kind = kind;
    c.period = period;
    c.begin = now_;
    Tick(dur);
    c.end = now_;
    calls.push_back(c);
  }
  void Tick(double ms) {
    now_.ms += ms;
    now_.allocs += static_cast<uint64_t>(ms * 10);
  }
  Stamp now() const { return now_; }

  std::vector<Call> calls;

 private:
  Stamp now_;
};

/// One Client::RunPeriod: 2 ms of datagen, `submits` Submits of 1 ms, then
/// six RunUntilIdle steps of 10, 1, 2, 3, 4, 5 ms, each preceded by a
/// Submit of 1 ms.
void AddPeriod(Log* log, int period, int submits) {
  log->Add(CallKind::kNow, 2, 0);
  for (int i = 0; i < submits; ++i) log->Add(CallKind::kSubmit, 0, 1, period);
  const double steps[] = {10, 1, 2, 3, 4, 5};
  for (int s = 0; s < 6; ++s) {
    if (s > 0) log->Add(CallKind::kSubmit, 0, 1, period);
    log->Add(CallKind::kRun, 0, steps[s]);
  }
}

/// A whole Client::Run: 3 deploys, reset, configuration, `periods`
/// periods, then Monitor (records, name, records) and verification (Now).
Log MakeRun(int periods, int submits) {
  Log log;
  for (int i = 0; i < 3; ++i) log.Add(CallKind::kDeploy, 0, 1);
  log.Add(CallKind::kOther, 0, 0);  // Reset
  log.Add(CallKind::kOther, 1, 0);  // SetRetryPolicy
  log.Add(CallKind::kOther, 0, 0);  // SetExecWorkers
  for (int k = 0; k < periods; ++k) AddPeriod(&log, k, submits);
  log.Add(CallKind::kRecords, 7, 0);
  log.Add(CallKind::kName, 0, 0);
  log.Add(CallKind::kRecords, 2, 0);
  log.Add(CallKind::kNow, 6, 0);
  log.Tick(1);
  return log;
}

void TestQuantiles() {
  Check(Median({}) == 0.0, "median of nothing is 0");
  Check(Median({5}) == 5.0, "median of one value");
  Check(Median({3, 1, 2}) == 2.0, "median of odd count");
  Check(Median({4, 1, 3, 2}) == 2.5, "median of even count averages");
  Check(Quantile({10, 20, 30, 40, 50}, 0.25) == 20.0, "type-7 quartile");
  Check(Near(Quantile({1, 2, 3, 4}, 0.9), 3.7), "type-7 interpolation");
}

void TestAttribution() {
  const int periods = 3, submits = 4;
  Log log = MakeRun(periods, submits);
  Result<RunProfile> r = Attribute(log.calls, Stamp{}, log.now());
  Check(r.ok(), "well-formed run attributes");
  if (!r.ok()) return;
  const RunProfile& p = *r;
  // Pre: 3 ms of deploys + 1 ms before SetRetryPolicy.
  Check(Near(p.pre.ms, 4), "pre ends with the last configuration call");
  Check(p.period_ms.size() == periods, "one sample per period");
  // Period: 2 gen + 4 submits + 5 step submits + 25 ms of steps = 36 ms.
  for (double ms : p.period_ms) Check(Near(ms, 36), "period duration");
  Check(Near(p.gen.ms, 2.0 * periods), "gen is period time outside calls");
  Check(Near(p.submit.ms, 9.0 * periods), "submit time");
  const double steps[] = {10, 1, 2, 3, 4, 5};
  for (int s = 0; s < 6; ++s) {
    Check(Near(p.steps[s].ms, steps[s] * periods), "step by call order");
  }
  Check(p.submits == 9u * periods, "submit count");
  Check(p.ab_instances == 4u * periods, "ab instances precede step ab");
  Check(Near(p.monitor.ms, 9), "monitor ends at the last records()");
  Check(Near(p.verify.ms, 6), "verify ends at the final Now()");
  Check(Near(p.UnattributedMs(), 1), "unattributed remainder");
  Check(p.steps[0].allocs == 100u * periods, "allocations follow the step");
  Check(p.gen.allocs == 20u * periods, "gen allocations");
}

void TestAttributionRejects() {
  {
    Log log = MakeRun(2, 1);
    // Drop the last period's final RunUntilIdle.
    for (size_t i = log.calls.size(); i-- > 0;) {
      if (log.calls[i].kind == CallKind::kRun) {
        log.calls.erase(log.calls.begin() + static_cast<long>(i));
        break;
      }
    }
    Check(!Attribute(log.calls, Stamp{}, log.now()).ok(),
          "incomplete period is rejected");
  }
  {
    Log log = MakeRun(2, 1);
    for (Call& c : log.calls) {
      if (c.kind == CallKind::kSubmit && c.period == 1) c.period = 0;
    }
    Check(!Attribute(log.calls, Stamp{}, log.now()).ok(),
          "a period that does not advance is rejected");
  }
  {
    Log log = MakeRun(2, 1);
    for (Call& c : log.calls) {
      if (c.kind == CallKind::kSubmit && c.period == 1) {
        c.period = 5;
        break;
      }
    }
    Check(!Attribute(log.calls, Stamp{}, log.now()).ok(),
          "mixed periods inside one period are rejected");
  }
}

void TestCalibrated() {
  const double ref = kReferenceCalibrationMs;
  RunProfile a, b, c;
  a.run.ms = 100;
  a.pre.ms = 2;
  a.period_ms = {30, 50};
  // b is a at half the host's speed; c is a with a burst in period 1.
  b.run.ms = 200;
  b.pre.ms = 4;
  b.period_ms = {60, 100};
  c.run.ms = 150;
  c.pre.ms = 2;
  c.period_ms = {30, 100};
  Result<CalibratedRun> r = Calibrated({&a, &b, &c}, {ref, 2 * ref, ref});
  Check(r.ok(), "calibrated summary of three repetitions");
  if (r.ok()) {
    Check(Near(r->pre_ms, 2), "calibration removes the host's slowdown");
    Check(r->period_ms.size() == 2 && Near(r->period_ms[0], 30) &&
              Near(r->period_ms[1], 50),
          "median per period index drops the burst");
    Check(Near(r->rest_ms, 18), "calibrated rest");  // 100-82, 200-164 at 2x
    Check(Near(r->TotalMs(), 100), "calibrated total");
  }
  Check(!Calibrated({&a, &b}, {ref}).ok(), "one calibration per repetition");
  Check(!Calibrated({&a}, {0.0}).ok(), "a zero calibration is rejected");
  b.period_ms.pop_back();
  Check(!Calibrated({&a, &b}, {ref, ref}).ok(),
        "differing period counts are rejected");
  Check(!Calibrated({}, {}).ok(), "no repetitions are rejected");
}

void TestGate() {
  RepCheck rep{.run_ok = true,
               .submitted = 100,
               .failed_instances = 0,
               .monitor_hash = "aa",
               .state_hash = "bb"};
  Check(FailedInstances(rep, "aa", "bb") == 0, "matching digests pass");
  Check(FailedInstances(rep, "", "") == 0, "empty reference is unchecked");
  Check(FailedInstances(rep, "ab", "bb") == 100,
        "monitor mismatch fails every instance");
  Check(FailedInstances(rep, "aa", "bc") == 100,
        "state mismatch fails every instance");
  rep.failed_instances = 3;
  Check(FailedInstances(rep, "aa", "bb") == 3, "failed records are counted");
  rep.run_ok = false;
  Check(FailedInstances(rep, "aa", "bb") == 100, "failed run fails all");
  rep.submitted = 0;
  Check(FailedInstances(rep, "aa", "bb") == 1, "a failed run counts at least 1");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestQuantiles();
  TestAttribution();
  TestAttributionRejects();
  TestCalibrated();
  TestGate();
  return g_failures;
}

}  // namespace perfbench
