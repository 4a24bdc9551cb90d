// Incremental view maintenance benchmark (SPECIFICATION.md §16): drives
// the Group C/D maintenance processes (P13 movement bulk load, P14 mart
// refresh, P15 mart MV refresh) through repeated update cycles on ONE
// living landscape — the regime the per-period benchmark never enters,
// because each period re-initializes every external system. Per cycle a
// small batch of new movement rows lands in the CDB and the maintenance
// wave propagates it; the full-recompute realization rescans and rebuilds
// every view, the incremental realization folds only the change-log
// suffix, so its per-cycle cost tracks the batch size while full tracks
// the accumulated table size.
//
// Sweep: update-batch size x datasize x realization. The comparison is
// exit-gated on digest identity: after the last cycle, both realizations
// must hold bit-identical landscapes (state hash over every table of
// every database) — a speedup against a diverged state is meaningless.
// Costs are MODELED virtual-time milliseconds (deterministic; wall clock
// appears only as an informational column).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/conformance/digest.h"
#include "src/core/engine.h"
#include "src/dipbench/datagen.h"
#include "src/dipbench/processes.h"
#include "src/dipbench/scenario.h"
#include "src/harness/harness.h"
#include "src/ivm/ivm.h"
#include "src/obs/export.h"

using namespace dipbench;

namespace {

struct CyclePoint {
  double maintain_ms = 0.0;  ///< modeled P13+P14+P15 time this cycle
};

struct SweepPoint {
  double datasize = 0.0;
  int batch = 0;
  std::string realization;
  double avg_cycle_ms = 0.0;   ///< mean modeled maintenance ms, cycles 1..N
  double last_cycle_ms = 0.0;  ///< the steady-state cost after growth
  uint64_t state_hash = 0;
  bool ok = false;
  std::string error;
};

/// One deterministic movement row for cycle `cycle`, index `i`. Clean
/// (dirty=false), references the 27 static cities, keys disjoint from
/// every generated order.
Row BenchOrder(int cycle, int i, int batch) {
  int64_t orderkey = 10000000 + static_cast<int64_t>(cycle) * batch + i;
  return {Value::Int(orderkey),
          Value::Int(1 + (cycle * 31 + i) % 50),
          Value::Int(1 + (cycle * 17 + i) % 40),
          Value::Int(1 + (cycle * 13 + i) % 27),
          Value::Date(20080101 + (cycle % 12) * 100 + i % 28),
          Value::Int(1 + i % 5),
          Value::Double(0.25 * ((cycle * 7 + i) % 400 + 1)),
          Value::String(i % 2 == 0 ? "HIGH" : "LOW"),
          Value::String("bench"),
          Value::Bool(false)};
}

SweepPoint RunSweepPoint(double datasize, int batch, int cycles,
                         Realization realization,
                         const std::string& engine_name) {
  SweepPoint point;
  point.datasize = datasize;
  point.batch = batch;
  point.realization = RealizationName(realization);
  auto fail = [&point](const Status& st) {
    point.error = st.ToString();
    return point;
  };

  ScaleConfig cfg;
  cfg.datasize = datasize;
  cfg.periods = 1;
  cfg.realization = realization;

  auto scenario_result = Scenario::Create();
  if (!scenario_result.ok()) return fail(scenario_result.status());
  auto scenario = std::move(scenario_result).ValueOrDie();
  // Install BEFORE seeding so the reference-dimension loads land in the
  // change logs the incremental P12 extraction reads (Client order).
  if (realization == Realization::kIncremental) {
    if (Status st = ivm::InstallIncrementalMaintenance(scenario.get());
        !st.ok()) {
      return fail(st);
    }
  }
  Initializer init(scenario.get(), cfg);
  if (Status st = init.InitializePeriod(0); !st.ok()) return fail(st);

  auto engine_result =
      harness::MakeEngine(engine_name, scenario->network(), cfg.worker_slots);
  if (!engine_result.ok()) return fail(engine_result.status());
  core::EngineBase& engine = **engine_result;
  for (const auto& def : BuildProcesses(realization)) {
    if (Status st = engine.Deploy(def); !st.ok()) return fail(st);
  }

  auto submit = [&engine](const char* id, double when) {
    core::ProcessEvent ev;
    ev.process_id = id;
    ev.when = when;
    ev.period = 0;
    return engine.Submit(std::move(ev));
  };

  // Cycle 0 (not measured): P12 replicates the master dimensions into the
  // DWH, then one maintenance wave drains the initially seeded movement —
  // both realizations start the measured cycles from identical states.
  if (Status st = submit("P12", 0); !st.ok()) return fail(st);
  if (Status st = submit("P13", 1); !st.ok()) return fail(st);
  if (Status st = submit("P14", 2); !st.ok()) return fail(st);
  if (Status st = submit("P15", 3); !st.ok()) return fail(st);
  if (Status st = engine.RunUntilIdle(); !st.ok()) return fail(st);

  auto cdb = scenario->db("cdb_db");
  if (!cdb.ok()) return fail(cdb.status());
  auto orders = (*cdb)->GetTable("orders");
  if (!orders.ok()) return fail(orders.status());

  std::vector<CyclePoint> measured;
  for (int cycle = 1; cycle <= cycles; ++cycle) {
    for (int i = 0; i < batch; ++i) {
      if (Status st = (*orders)->Insert(BenchOrder(cycle, i, batch));
          !st.ok()) {
        return fail(st);
      }
    }
    size_t records_before = engine.records().size();
    double t = cycle * 1000.0;
    if (Status st = submit("P13", t); !st.ok()) return fail(st);
    if (Status st = submit("P14", t + 1); !st.ok()) return fail(st);
    if (Status st = submit("P15", t + 2); !st.ok()) return fail(st);
    if (Status st = engine.RunUntilIdle(); !st.ok()) return fail(st);

    CyclePoint cp;
    const auto& records = engine.records();
    for (size_t r = records_before; r < records.size(); ++r) {
      if (!records[r].ok) {
        return fail(Status::Internal(records[r].process_id + " failed: " +
                                     records[r].error));
      }
      cp.maintain_ms += records[r].end_time - records[r].start_time;
    }
    measured.push_back(cp);
  }

  for (const CyclePoint& cp : measured) point.avg_cycle_ms += cp.maintain_ms;
  point.avg_cycle_ms /= measured.empty() ? 1 : measured.size();
  point.last_cycle_ms = measured.empty() ? 0.0 : measured.back().maintain_ms;
  point.state_hash = conformance::CaptureStateDigest(scenario.get()).state_hash;
  point.ok = true;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("bench_incremental");
  flags
      .Define("cycles", "update cycles per sweep point (default 6)")
      .Define("batch", "single update-batch size instead of the sweep")
      .Define("datasize", "single datasize instead of the sweep")
      .Define("engine", "engine realization to drive (default dataflow)")
      .Define("json-out", "write machine-readable results to this path");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Result<int> cycles_flag = flags.GetInt("cycles", 6);
  if (!cycles_flag.ok() || *cycles_flag < 1) {
    std::fprintf(stderr, "invalid --cycles\n%s", flags.Usage().c_str());
    return 2;
  }
  const int cycles = *cycles_flag;
  std::vector<int> batches = {16, 128, 1024};
  if (flags.Has("batch")) {
    Result<int> b = flags.GetInt("batch", 128);
    if (!b.ok() || *b < 1) {
      std::fprintf(stderr, "invalid --batch\n%s", flags.Usage().c_str());
      return 2;
    }
    batches = {*b};
  }
  std::vector<double> datasizes = {0.05, 0.1, 0.2};
  if (flags.Has("datasize")) {
    double d = std::atof(flags.Get("datasize").c_str());
    if (d <= 0.0) {
      std::fprintf(stderr, "invalid --datasize\n%s", flags.Usage().c_str());
      return 2;
    }
    datasizes = {d};
  }
  std::string engine = flags.Get("engine");
  if (engine.empty()) engine = "dataflow";
  const std::string json_out = flags.Get("json-out");

  std::printf("=== Incremental view maintenance: full recompute vs "
              "change-log fold ===\n");
  std::printf("engine=%s, %d update cycles per point; costs are modeled "
              "virtual-time ms\nfor one P13+P14+P15 maintenance wave "
              "(mean over cycles / last cycle)\n\n",
              engine.c_str(), cycles);
  std::printf("%9s %6s | %18s | %18s | %8s | %s\n", "datasize", "batch",
              "full avg/last [ms]", "incr avg/last [ms]", "speedup",
              "state");

  bool all_match = true;
  bool any_failed = false;
  bool incremental_wins = true;
  std::vector<std::pair<SweepPoint, SweepPoint>> results;
  for (double d : datasizes) {
    for (int batch : batches) {
      SweepPoint full = RunSweepPoint(d, batch, cycles,
                                      Realization::kFullRecompute, engine);
      SweepPoint inc = RunSweepPoint(d, batch, cycles,
                                     Realization::kIncremental, engine);
      if (!full.ok || !inc.ok) {
        any_failed = true;
        std::printf("%9.2f %6d | FAILED: %s\n", d, batch,
                    (!full.ok ? full.error : inc.error).c_str());
        continue;
      }
      bool match = full.state_hash == inc.state_hash;
      if (!match) all_match = false;
      // Costs are modeled and deterministic, so a strict comparison is
      // stable: the fold touches a strict subset of the rows the full
      // rescan touches. Below d=0.1 the shared fixed work (master-data
      // extracts, mart loads) can drown the movement-side difference, so
      // the win gate only applies from d=0.1 up.
      if (d >= 0.1 && inc.avg_cycle_ms >= full.avg_cycle_ms) {
        incremental_wins = false;
      }
      double speedup =
          inc.avg_cycle_ms > 0 ? full.avg_cycle_ms / inc.avg_cycle_ms : 0.0;
      std::printf("%9.2f %6d | %8.0f / %7.0f | %8.0f / %7.0f | %7.2fx | %s\n",
                  d, batch, full.avg_cycle_ms, full.last_cycle_ms,
                  inc.avg_cycle_ms, inc.last_cycle_ms, speedup,
                  match ? "identical" : "DIVERGED");
      results.push_back({full, inc});
    }
  }

  const bool gates_ok = all_match && incremental_wins && !any_failed;
  std::printf("\nexit gate (final landscape bit-identical across "
              "realizations, every point): %s\n",
              all_match && !any_failed ? "OK" : "VIOLATED");
  std::printf("exit gate (incremental cheaper than full at every point "
              "with d >= 0.1): %s\n",
              incremental_wins && !any_failed ? "OK" : "VIOLATED");

  if (!json_out.empty()) {
    std::string json =
        "{\n  \"benchmark\": \"incremental\",\n  \"engine\": \"" + engine +
        "\",\n  \"cycles\": " + std::to_string(cycles) +
        ",\n  \"identical\": " +
        (all_match && !any_failed ? "true" : "false") +
        ",\n  \"incremental_wins\": " +
        (incremental_wins && !any_failed ? "true" : "false") +
        ",\n  \"points\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      const SweepPoint& f = results[i].first;
      const SweepPoint& n = results[i].second;
      json += StrFormat(
          "%s\n    {\"datasize\": %.3f, \"batch\": %d, "
          "\"full_avg_ms\": %.1f, \"full_last_ms\": %.1f, "
          "\"incremental_avg_ms\": %.1f, \"incremental_last_ms\": %.1f, "
          "\"speedup\": %.3f, \"state_identical\": %s}",
          i ? "," : "", f.datasize, f.batch, f.avg_cycle_ms, f.last_cycle_ms,
          n.avg_cycle_ms, n.last_cycle_ms,
          n.avg_cycle_ms > 0 ? f.avg_cycle_ms / n.avg_cycle_ms : 0.0,
          f.state_hash == n.state_hash ? "true" : "false");
    }
    json += "\n  ]\n}\n";
    if (Status st = obs::WriteFileOrError(json_out, json); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return gates_ok ? 0 : 1;
}
