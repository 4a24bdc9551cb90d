// Tests for the intra-run instance scheduler (SPECIFICATION.md §13): the
// dependency DAG built from resource claims + explicit precedence, the
// worker-pool wave runner, and — the load-bearing contract — byte-identical
// benchmark output for ANY worker count. `workers` is an execution dial:
// workers=8 must produce exactly the Monitor CSV, NAVG+ values, retry /
// dead-letter counts, fault-injection sets and verification totals of the
// serial engine, for every engine realization, seed and fault plan.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "src/dipbench/client.h"
#include "src/dipbench/monitor.h"
#include "src/dipbench/processes.h"
#include "src/dipbench/schedule.h"
#include "src/obs/metrics.h"

namespace dipbench {
namespace core {
namespace {

// --- DAG shape -----------------------------------------------------------

/// Builds a WaveNode list over standalone definitions (after_types empty).
std::vector<WaveNode> Nodes(const std::vector<ProcessDefinition>& defs) {
  static const std::vector<std::string> kNoAfter;
  std::vector<WaveNode> nodes;
  for (const auto& def : defs) {
    nodes.push_back(WaveNode{&def, &kNoAfter});
  }
  return nodes;
}

ProcessDefinition Def(std::string id, std::vector<ResourceClaim> claims) {
  ProcessDefinition def;
  def.id = std::move(id);
  def.claims = std::move(claims);
  return def;
}

bool Listed(const std::vector<std::vector<int>>& preds, int from, int to) {
  for (int p : preds[to]) {
    if (p == from) return true;
  }
  return false;
}

bool HasCapEdge(const WaveEdges& e, int from, int to) {
  return Listed(e.capture_preds, from, to);
}
bool HasRepEdge(const WaveEdges& e, int from, int to) {
  return Listed(e.replay_preds, from, to);
}
/// Any ordering edge at all (capture- or replay-level).
bool HasEdge(const WaveEdges& e, int from, int to) {
  return HasCapEdge(e, from, to) || HasRepEdge(e, from, to);
}
bool NoPreds(const WaveEdges& e, int i) {
  return e.capture_preds[i].empty() && e.replay_preds[i].empty();
}

TEST(BuildWaveEdgesTest, WriteWriteConflictsOrder) {
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::WriteTable("db", "t")}),
             Def("B", {ResourceClaim::WriteTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));
}

TEST(BuildWaveEdgesTest, ReadWriteConflictsBothDirections) {
  // Reader before writer: the writer must wait.
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::ReadTable("db", "t")}),
             Def("B", {ResourceClaim::WriteTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));
  // Writer before reader: the reader must wait.
  edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::WriteTable("db", "t")}),
             Def("B", {ResourceClaim::ReadTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));
}

TEST(BuildWaveEdgesTest, ReadersDoNotConflict) {
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::ReadTable("db", "t")}),
             Def("B", {ResourceClaim::ReadTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(NoPreds(edges, 1));
}

TEST(BuildWaveEdgesTest, DisjointTablesDoNotConflict) {
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::WriteTable("db", "t1")}),
             Def("B", {ResourceClaim::WriteTable("db", "t2")})}),
      {}, false);
  EXPECT_TRUE(NoPreds(edges, 1));
}

TEST(BuildWaveEdgesTest, ExclusiveDbConflictsWithAnyTableOfThatDb) {
  // A table access reads the db-level resource; exclusivity writes it.
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::ReadTable("db", "t")}),
             Def("B", {ResourceClaim::ExclusiveDb("db")}),
             Def("C", {ResourceClaim::WriteTable("db", "u")}),
             Def("D", {ResourceClaim::ReadTable("other", "t")})}),
      {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));  // reader -> exclusive
  EXPECT_TRUE(HasCapEdge(edges, 1, 2));  // exclusive -> writer
  EXPECT_TRUE(NoPreds(edges, 3));        // other db untouched
}

TEST(BuildWaveEdgesTest, EndpointConflictsOnlyWhenStateful) {
  std::vector<ProcessDefinition> defs = {
      Def("A", {ResourceClaim::Endpoint("ep")}),
      Def("B", {ResourceClaim::Endpoint("ep")})};
  WaveEdges free_edges = BuildWaveEdges(Nodes(defs), {}, false);
  EXPECT_TRUE(NoPreds(free_edges, 1));
  WaveEdges stateful_edges = BuildWaveEdges(Nodes(defs), {"ep"}, false);
  EXPECT_TRUE(HasCapEdge(stateful_edges, 0, 1));
}

TEST(BuildWaveEdgesTest, EmptyClaimsIsAFullBarrier) {
  // A claims-less node serializes against EVERYTHING, in both directions —
  // the conservative fallback for process types that never declared what
  // they touch.
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::WriteTable("db", "t")}),
             Def("B", {}),
             Def("C", {ResourceClaim::ReadTable("other", "u")})}),
      {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));
  EXPECT_TRUE(HasCapEdge(edges, 1, 2));
}

TEST(BuildWaveEdgesTest, SameProcessTypeChainsOnlyWhenRequested) {
  // The federated realization draws a per-type tid sequence and inserts
  // into a per-type queue table at capture: it asks for the chain. The
  // dataflow-style engines keep no per-type state and leave same-type
  // instances free to overlap.
  std::vector<ProcessDefinition> defs = {
      Def("P", {ResourceClaim::ReadTable("db", "t")}),
      Def("P", {ResourceClaim::ReadTable("db", "t")})};
  WaveEdges chained = BuildWaveEdges(Nodes(defs), {}, true);
  EXPECT_TRUE(HasCapEdge(chained, 0, 1));
  WaveEdges free_edges = BuildWaveEdges(Nodes(defs), {}, false);
  EXPECT_TRUE(NoPreds(free_edges, 1));
}

TEST(BuildWaveEdgesTest, AfterTypesAddsExplicitPrecedence) {
  ProcessDefinition a = Def("P01", {ResourceClaim::WriteTable("x", "t")});
  ProcessDefinition b = Def("P03", {ResourceClaim::WriteTable("y", "u")});
  std::vector<std::string> after = {"P01"};
  std::vector<std::string> none;
  std::vector<WaveNode> nodes = {WaveNode{&a, &none}, WaveNode{&b, &after}};
  WaveEdges edges = BuildWaveEdges(nodes, {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 1));
}

TEST(BuildWaveEdgesTest, AfterTypesCoversEveryEarlierInstance) {
  // Without the same-type chain, "after P" must wait for EVERY earlier P
  // instance, not just the last one.
  ProcessDefinition p = Def("P", {ResourceClaim::ReadTable("db", "t")});
  ProcessDefinition q = Def("Q", {ResourceClaim::ReadTable("db", "u")});
  std::vector<std::string> after = {"P"};
  std::vector<std::string> none;
  std::vector<WaveNode> nodes = {WaveNode{&p, &none}, WaveNode{&p, &none},
                                 WaveNode{&q, &after}};
  WaveEdges edges = BuildWaveEdges(nodes, {}, false);
  EXPECT_TRUE(HasCapEdge(edges, 0, 2));
  EXPECT_TRUE(HasCapEdge(edges, 1, 2));
}

// --- Append claims -------------------------------------------------------

TEST(BuildWaveEdgesTest, AppendersDoNotConflictWithEachOther) {
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::AppendTable("db", "t")}),
             Def("B", {ResourceClaim::AppendTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(NoPreds(edges, 1));
}

TEST(BuildWaveEdgesTest, ReadAfterAppendWaitsForReplay) {
  // The appender's rows only land when its buffer flushes at replay: the
  // reader takes a REPLAY edge (a capture edge would let it read too early).
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::AppendTable("db", "t")}),
             Def("B", {ResourceClaim::ReadTable("db", "t")})}),
      {}, false);
  EXPECT_FALSE(HasCapEdge(edges, 0, 1));
  EXPECT_TRUE(HasRepEdge(edges, 0, 1));
}

TEST(BuildWaveEdgesTest, WriteAfterAppendWaitsForReplay) {
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::AppendTable("db", "t")}),
             Def("B", {ResourceClaim::WriteTable("db", "t")}),
             Def("C", {ResourceClaim::AppendTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(HasRepEdge(edges, 0, 1));
  // An append after a write is a plain capture dependency: the writer's
  // effects exist once it captured.
  EXPECT_TRUE(HasCapEdge(edges, 1, 2));
  EXPECT_FALSE(HasRepEdge(edges, 1, 2));
}

TEST(BuildWaveEdgesTest, EarlierReaderDoesNotBlockAppender) {
  // flush(appender) happens at its replay, strictly after the earlier
  // reader's capture: no anti-dependency edge needed.
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::ReadTable("db", "t")}),
             Def("B", {ResourceClaim::AppendTable("db", "t")})}),
      {}, false);
  EXPECT_TRUE(NoPreds(edges, 1));
}

TEST(BuildWaveEdgesTest, BarrierWaitsForAppendersReplay) {
  // A claims-less node must observe every unflushed buffer, even on tables
  // it never named.
  WaveEdges edges = BuildWaveEdges(
      Nodes({Def("A", {ResourceClaim::AppendTable("db", "t")}),
             Def("B", {})}),
      {}, false);
  EXPECT_TRUE(HasRepEdge(edges, 0, 1));
}

TEST(BuildWaveEdgesTest, AfterAppendingTypeWaitsForReplay) {
  // Explicit precedence on an append-claimed type must wait for the flush.
  ProcessDefinition a = Def("P", {ResourceClaim::AppendTable("db", "t")});
  ProcessDefinition b = Def("Q", {ResourceClaim::ReadTable("x", "u")});
  std::vector<std::string> after = {"P"};
  std::vector<std::string> none;
  std::vector<WaveNode> nodes = {WaveNode{&a, &none}, WaveNode{&b, &after}};
  WaveEdges edges = BuildWaveEdges(nodes, {}, false);
  EXPECT_TRUE(HasRepEdge(edges, 0, 1));
}

/// The documented schedule constraints over the REAL process definitions:
/// every Schedule::Predecessors edge must materialize in a wave holding one
/// instance of each type, the B-stream CDB loaders must stay mutually
/// unordered (they append-claim cdb_db.orders), and the downstream
/// consumers must wait for the appenders' REPLAY (buffer flush).
TEST(BuildWaveEdgesTest, RealProcessesHonorDocumentedPrecedence) {
  std::vector<ProcessDefinition> defs = BuildProcesses();
  ASSERT_EQ(defs.size(), 15u);
  std::vector<std::vector<std::string>> after(defs.size());
  std::vector<WaveNode> nodes;
  for (size_t i = 0; i < defs.size(); ++i) {
    after[i] = Schedule::Predecessors(defs[i].id);
    nodes.push_back(WaveNode{&defs[i], &after[i]});
  }
  WaveEdges edges = BuildWaveEdges(nodes, {}, false);
  auto index_of = [&](const std::string& id) {
    for (size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].id == id) return static_cast<int>(i);
    }
    return -1;
  };
  // Explicit schedule precedence (Schedule::Predecessors).
  for (size_t i = 0; i < defs.size(); ++i) {
    for (const std::string& dep : after[i]) {
      EXPECT_TRUE(HasEdge(edges, index_of(dep), static_cast<int>(i)))
          << defs[i].id << " must wait for " << dep;
    }
  }
  // The independent message loaders of stream B append cdb_db.orders: no
  // mutual ordering (this is where the intra-run parallelism comes from).
  EXPECT_TRUE(NoPreds(edges, index_of("P04")));
  EXPECT_FALSE(HasEdge(edges, index_of("P04"), index_of("P08")));
  EXPECT_FALSE(HasEdge(edges, index_of("P05"), index_of("P06")));
  EXPECT_FALSE(HasEdge(edges, index_of("P06"), index_of("P07")));
  EXPECT_FALSE(HasEdge(edges, index_of("P08"), index_of("P10")));
  // P11 consolidates after the whole stream: its precedence edges from the
  // appenders are REPLAY edges — the buffers must have flushed.
  for (const char* appender : {"P04", "P05", "P08", "P10"}) {
    EXPECT_TRUE(HasRepEdge(edges, index_of(appender), index_of("P11")))
        << "P11 must wait for " << appender << "'s flush";
  }
  // Every process declares claims — none should fall back to the barrier.
  for (const auto& def : defs) {
    EXPECT_FALSE(def.claims.empty()) << def.id << " has no claims";
  }
  // P01 (writes asia_seoul.customer) and P04 (CDB only) are independent:
  // the wave has real parallelism to exploit.
  EXPECT_FALSE(HasEdge(edges, index_of("P01"), index_of("P04")));
}

// --- WaveRunner ----------------------------------------------------------

/// Capture-level edges only (the common case for runner tests).
WaveEdges CapEdges(std::vector<std::vector<int>> cap) {
  WaveEdges e;
  e.replay_preds.resize(cap.size());
  e.capture_preds = std::move(cap);
  return e;
}

TEST(WaveRunnerTest, ReplaysInSerialOrderAndRespectsEdges) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const int n = 16;
    // Chain 0 -> 2 -> 4 ... plus odd nodes free.
    std::vector<std::vector<int>> preds(n);
    for (int i = 2; i < n; i += 2) preds[i] = {i - 2};
    std::vector<int> replay_order;
    std::atomic<int> executed{0};
    WaveRunner::Hooks hooks;
    hooks.execute = [&](int) {
      executed.fetch_add(1);
      return true;
    };
    hooks.replay = [&](int i) {
      replay_order.push_back(i);
      return true;
    };
    hooks.edges = [&] { return CapEdges(preds); };
    ASSERT_TRUE(WaveRunner::Run(n, workers, hooks));
    EXPECT_EQ(executed.load(), n);
    ASSERT_EQ(replay_order.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(replay_order[i], i);
  }
}

TEST(WaveRunnerTest, AbortStopsLaterReplays) {
  const int n = 8;
  std::vector<int> replayed;
  WaveRunner::Hooks hooks;
  hooks.execute = [](int) { return true; };
  hooks.replay = [&](int i) {
    replayed.push_back(i);
    return i != 3;  // abort at node 3
  };
  hooks.edges = [&] { return CapEdges(std::vector<std::vector<int>>(n)); };
  EXPECT_FALSE(WaveRunner::Run(n, 4, hooks));
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed.back(), 3);
}

TEST(WaveRunnerTest, DeferredInstanceHoldsSuccessorsUntilReplay) {
  // 0 defers; 1 depends on 0. 1's execute must not start before 0's replay
  // completed (the replay finishes the deferred attempts serially).
  std::atomic<bool> zero_replayed{false};
  bool order_ok = true;
  WaveRunner::Hooks hooks;
  hooks.execute = [&](int i) {
    if (i == 0) return false;  // deferred
    if (!zero_replayed.load()) order_ok = false;
    return true;
  };
  hooks.replay = [&](int i) {
    if (i == 0) zero_replayed.store(true);
    return true;
  };
  hooks.edges = [] { return CapEdges({{}, {0}}); };
  ASSERT_TRUE(WaveRunner::Run(2, 4, hooks));
  EXPECT_TRUE(order_ok);
}

TEST(WaveRunnerTest, ReplayEdgeHoldsSuccessorUntilReplay) {
  // A replay edge 0 -> 1 releases at 0's REPLAY, even though 0's capture
  // completes normally (the append-flush dependency).
  WaveEdges edges;
  edges.capture_preds = {{}, {}};
  edges.replay_preds = {{}, {0}};
  std::atomic<bool> zero_replayed{false};
  bool order_ok = true;
  WaveRunner::Hooks hooks;
  hooks.execute = [&](int i) {
    if (i == 1 && !zero_replayed.load()) order_ok = false;
    return true;
  };
  hooks.replay = [&](int i) {
    if (i == 0) zero_replayed.store(true);
    return true;
  };
  hooks.edges = [&] { return edges; };
  ASSERT_TRUE(WaveRunner::Run(2, 4, hooks));
  EXPECT_TRUE(order_ok);
}

TEST(WaveRunnerTest, DuplicateCaptureAndReplayEdgeStillReleases) {
  // The same predecessor may appear in BOTH edge lists (e.g. it wrote one
  // table the successor reads and appended another): the double-counted
  // indegree must cancel against the two releases.
  WaveEdges edges;
  edges.capture_preds = {{}, {0}};
  edges.replay_preds = {{}, {0}};
  std::vector<int> replay_order;
  WaveRunner::Hooks hooks;
  hooks.execute = [](int) { return true; };
  hooks.replay = [&](int i) {
    replay_order.push_back(i);
    return true;
  };
  hooks.edges = [&] { return edges; };
  ASSERT_TRUE(WaveRunner::Run(2, 4, hooks));
  ASSERT_EQ(replay_order.size(), 2u);
  EXPECT_EQ(replay_order[1], 1);
}

TEST(WaveRunnerTest, SerialPathBuildsNoEdges) {
  // One worker, or one instance, runs the inline loop: the dependency DAG
  // is never needed, so it is never built.
  for (auto [n, workers, want_edges] :
       {std::tuple{3, 1, false}, std::tuple{1, 4, false},
        std::tuple{3, 4, true}}) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " workers=" + std::to_string(workers));
    int built = 0;
    std::vector<int> replay_order;
    WaveRunner::Hooks hooks;
    hooks.edges = [&] {
      ++built;
      return CapEdges(std::vector<std::vector<int>>(n));
    };
    hooks.execute = [](int) { return true; };
    hooks.replay = [&](int i) {
      replay_order.push_back(i);
      return true;
    };
    ASSERT_TRUE(WaveRunner::Run(n, workers, hooks));
    EXPECT_EQ(built, want_edges ? 1 : 0);
    ASSERT_EQ(replay_order.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(replay_order[i], i);
  }
}

// --- Histogram concurrency ----------------------------------------------

TEST(HistogramConcurrencyTest, ConcurrentObservationsAreExact) {
  obs::Histogram h(obs::Histogram::ExponentialBuckets(0.01, 2.0, 20));
  const int kThreads = 8;
  const int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(0.01 * ((t * 31 + i) % 997));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  // Bucket counts are integer-exact regardless of interleaving.
  uint64_t bucket_total = 0;
  for (uint64_t c : h.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.01 * 996);
  // Quantiles come from the merged exact counts.
  EXPECT_GE(h.P99(), h.P50());
}

// --- Byte-identity over full benchmark runs ------------------------------

struct RunOutput {
  std::string csv;
  std::string records;  ///< status/attempt digest of every instance
  uint64_t retries = 0;
  uint64_t dead_letters = 0;
  size_t dwh_orders = 0;
  double dwh_revenue = 0.0;
  size_t mart_orders_total = 0;
  uint64_t faults = 0;
};

/// Runs the full benchmark and digests everything observable: the Monitor
/// CSV plus a per-instance line with process, period, times, attempts,
/// dead-letter flag and the exact error string (fault messages included).
/// A run that fails (abort or validation) digests its status string instead
/// of the CSV — the contract is that it must fail IDENTICALLY at every
/// worker count, not that every test config survives its own faults.
RunOutput RunBenchmark(const ScaleConfig& cfg, const std::string& engine_name,
                       int workers, bool require_ok = true) {
  ScaleConfig run_cfg = cfg;
  run_cfg.workers = workers;
  auto scenario = std::move(Scenario::Create()).ValueOrDie();
  std::unique_ptr<EngineBase> engine;
  if (engine_name == "federated") {
    engine = std::make_unique<FederatedEngine>(scenario->network());
  } else {
    engine = std::make_unique<DataflowEngine>(scenario->network());
  }
  obs::MetricsRegistry metrics;
  engine->SetObserver(obs::ObsContext(nullptr, &metrics));
  scenario->network()->SetObserver(obs::ObsContext(nullptr, &metrics));
  Client client(scenario.get(), engine.get(), run_cfg);
  auto result = client.Run();
  if (require_ok) EXPECT_TRUE(result.ok()) << result.status();
  RunOutput out;
  // Instance records survive an abort (everything replayed up to the
  // aborting instance, in serial order) — digest them either way.
  for (const auto& r : engine->records()) {
    out.records += r.process_id + "|" + std::to_string(r.period) + "|" +
                   std::to_string(r.submit_time) + "|" +
                   std::to_string(r.start_time) + "|" +
                   std::to_string(r.end_time) + "|" +
                   std::to_string(r.attempts) + "|" +
                   std::to_string(r.retry_wait_ms) + "|" +
                   (r.ok ? "ok" : "FAIL") + "|" +
                   (r.dead_lettered ? "dead" : "-") + "|" + r.error + "\n";
    if (r.attempts > 1) out.retries += static_cast<uint64_t>(r.attempts - 1);
    if (r.dead_lettered) ++out.dead_letters;
  }
  const obs::Counter* faults = metrics.FindCounter("engine.faults_injected");
  out.faults = faults != nullptr ? faults->value() : 0;
  if (!result.ok()) {
    out.csv = "STATUS: " + result.status().ToString();
    return out;
  }
  out.csv = Monitor::ToCsv(result->per_process);
  out.dwh_orders = result->verification.dwh_orders;
  out.dwh_revenue = result->verification.dwh_revenue;
  out.mart_orders_total = result->verification.mart_orders_total;
  return out;
}

void ExpectIdentical(const RunOutput& base, const RunOutput& other,
                     const std::string& label) {
  EXPECT_EQ(base.csv, other.csv) << label << ": Monitor CSV diverged";
  EXPECT_EQ(base.records, other.records) << label
                                         << ": instance records diverged";
  EXPECT_EQ(base.retries, other.retries) << label;
  EXPECT_EQ(base.dead_letters, other.dead_letters) << label;
  EXPECT_EQ(base.dwh_orders, other.dwh_orders) << label;
  EXPECT_EQ(base.dwh_revenue, other.dwh_revenue) << label;
  EXPECT_EQ(base.mart_orders_total, other.mart_orders_total) << label;
  EXPECT_EQ(base.faults, other.faults) << label;
}

TEST(SchedulerByteIdentityTest, CleanRunsAcrossEnginesAndSeeds) {
  for (const char* engine : {"dataflow", "federated"}) {
    for (uint64_t seed : {7ull, 11ull, 20080412ull}) {
      ScaleConfig cfg;
      cfg.datasize = 0.02;
      cfg.periods = 2;
      cfg.seed = seed;
      RunOutput serial = RunBenchmark(cfg, engine, 1);
      EXPECT_GT(serial.csv.size(), 0u);
      for (int workers : {2, 4, 8}) {
        RunOutput parallel = RunBenchmark(cfg, engine, workers);
        ExpectIdentical(serial, parallel,
                        std::string(engine) + "/seed=" +
                            std::to_string(seed) +
                            "/workers=" + std::to_string(workers));
      }
    }
  }
}

/// Faulted configuration: error faults + latency spikes + retries with
/// backoff. Exercises the keyed fault draws and multi-attempt capture.
ScaleConfig FaultedConfig(uint64_t seed) {
  ScaleConfig cfg;
  cfg.datasize = 0.02;
  cfg.periods = 2;
  cfg.seed = seed;
  cfg.fault_rate = 0.02;
  cfg.fault_spike_rate = 0.02;
  cfg.fault_spike_tu = 5.0;
  cfg.retry_max_attempts = 4;
  cfg.retry_backoff_tu = 2.0;
  return cfg;
}

TEST(SchedulerByteIdentityTest, FaultedRunsWithRetries) {
  for (const char* engine : {"dataflow", "federated"}) {
    ScaleConfig cfg = FaultedConfig(7);
    RunOutput serial = RunBenchmark(cfg, engine, 1, /*require_ok=*/false);
    EXPECT_GT(serial.retries, 0u) << "config not actually faulted";
    for (int workers : {2, 8}) {
      RunOutput parallel =
          RunBenchmark(cfg, engine, workers, /*require_ok=*/false);
      ExpectIdentical(serial, parallel,
                      std::string(engine) + "/faulted/workers=" +
                          std::to_string(workers));
    }
  }
}

/// The fault-injection regression the keyed draws exist for: the SET of
/// injected faults (which instance, which attempt, which endpoint, which
/// message) is identical between workers=1 and workers=8, not just the
/// count. The per-record error strings in `records` carry the injector's
/// "(instance #N attempt A call C)" detail, so record-digest equality IS
/// draw-set equality.
TEST(SchedulerByteIdentityTest, FaultDrawSetsMatchAcrossWorkerCounts) {
  ScaleConfig cfg = FaultedConfig(13);
  cfg.retry_max_attempts = 2;  // leave some failures visible in records
  cfg.retry_dead_letter = true;
  RunOutput serial = RunBenchmark(cfg, "dataflow", 1, /*require_ok=*/false);
  EXPECT_GT(serial.faults, 0u);
  RunOutput parallel = RunBenchmark(cfg, "dataflow", 8, /*require_ok=*/false);
  EXPECT_EQ(serial.faults, parallel.faults);
  EXPECT_EQ(serial.records, parallel.records);
}

/// Dead letters under parallelism: exhausted instances park in the
/// dead-letter record without aborting the wave or poisoning successors —
/// and identically so at workers=8.
TEST(SchedulerByteIdentityTest, DeadLettersDoNotPoisonTheWave) {
  ScaleConfig cfg = FaultedConfig(7);
  cfg.fault_rate = 0.08;
  cfg.retry_max_attempts = 2;
  cfg.retry_dead_letter = true;
  RunOutput serial = RunBenchmark(cfg, "dataflow", 1);
  EXPECT_GT(serial.dead_letters, 0u) << "config produced no dead letters";
  RunOutput parallel = RunBenchmark(cfg, "dataflow", 8);
  ExpectIdentical(serial, parallel, "dead-letter/workers=8");
  // The run completed: the monitor still has all 15 process rows.
  EXPECT_NE(parallel.csv.find("P15"), std::string::npos);
}

/// Instance budgets (timeout) trigger the deferred-continuation path: the
/// backoff/budget arithmetic depends on virtual admission time, which only
/// exists at replay. Deferred instances must still be byte-identical.
TEST(SchedulerByteIdentityTest, InstanceBudgetDeferredPath) {
  ScaleConfig cfg = FaultedConfig(11);
  cfg.retry_max_attempts = 6;
  cfg.retry_backoff_tu = 20.0;
  cfg.instance_timeout_tu = 30.0;  // tight: exhausts mid-backoff
  cfg.retry_dead_letter = true;
  RunOutput serial = RunBenchmark(cfg, "dataflow", 1, /*require_ok=*/false);
  for (int workers : {2, 8}) {
    RunOutput parallel =
        RunBenchmark(cfg, "dataflow", workers, /*require_ok=*/false);
    ExpectIdentical(serial, parallel,
                    "budget/workers=" + std::to_string(workers));
  }
}

/// Scenario-manifest fault composition (outage windows / error phases)
/// makes injectors order-stateful; those endpoints serialize and keep the
/// legacy sequential draws, so outputs again cannot depend on workers.
TEST(SchedulerByteIdentityTest, OrderStatefulOutageWindows) {
  ScaleConfig cfg;
  cfg.datasize = 0.02;
  cfg.periods = 2;
  cfg.seed = 7;
  cfg.retry_max_attempts = 4;
  cfg.retry_backoff_tu = 2.0;
  cfg.retry_dead_letter = true;
  OutageWindow outage;
  outage.name = "cdb-brownout";
  outage.endpoint = "cdb";
  outage.after_calls = 40;
  outage.calls = 3;
  cfg.outages.push_back(outage);
  ErrorPhaseSpec phase;
  phase.name = "us-degraded";
  phase.endpoint = "us_eastcoast";
  phase.after_calls = 5;
  phase.calls = 20;
  phase.error_rate = 0.3;
  cfg.error_phases.push_back(phase);
  RunOutput serial = RunBenchmark(cfg, "dataflow", 1);
  EXPECT_GT(serial.retries, 0u);
  RunOutput parallel = RunBenchmark(cfg, "dataflow", 8);
  ExpectIdentical(serial, parallel, "outage/workers=8");
}

}  // namespace
}  // namespace core
}  // namespace dipbench
