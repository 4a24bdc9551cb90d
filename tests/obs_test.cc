#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/dipbench/monitor.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/ra/query.h"

namespace dipbench {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// TraceRecorder: span nesting and ordering under the virtual clock.
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, NestsSpansPerTrack) {
  TraceRecorder rec;
  uint64_t outer = rec.BeginSpan("instance", Category::kNone, 10.0, 0);
  uint64_t mid = rec.BeginSpan("operator", Category::kNone, 11.0, 0);
  uint64_t leaf =
      rec.AddCompleteSpan("rows", Category::kProcessing, 11.0, 12.5, 0);
  rec.EndSpan(mid, 13.0);
  rec.EndSpan(outer, 14.0);

  ASSERT_EQ(rec.span_count(), 3u);
  const std::vector<Span>& spans = rec.spans();
  EXPECT_EQ(spans[0].id, outer);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].id, mid);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].id, leaf);
  EXPECT_EQ(spans[2].parent, mid);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_DOUBLE_EQ(spans[0].begin_ms, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].end_ms, 14.0);
  EXPECT_DOUBLE_EQ(spans[2].DurationMs(), 1.5);
}

TEST(TraceRecorderTest, TracksAreIndependent) {
  TraceRecorder rec;
  uint64_t a = rec.BeginSpan("worker0", Category::kNone, 0.0, 0);
  uint64_t b = rec.BeginSpan("worker1", Category::kNone, 0.5, 1);
  uint64_t leaf1 =
      rec.AddCompleteSpan("x", Category::kProcessing, 0.6, 0.7, 1);
  rec.EndSpan(b, 1.0);
  uint64_t leaf0 =
      rec.AddCompleteSpan("y", Category::kProcessing, 1.1, 1.2, 0);
  rec.EndSpan(a, 2.0);

  // Leaf on track 1 parents under the track-1 span, not the still-open
  // track-0 span; the later leaf on track 0 parents under track 0's span.
  EXPECT_EQ(rec.spans()[leaf1 - 1].parent, b);
  EXPECT_EQ(rec.spans()[leaf0 - 1].parent, a);
}

TEST(TraceRecorderTest, EndSpanClosesDeeperUnbalancedSpans) {
  TraceRecorder rec;
  uint64_t outer = rec.BeginSpan("outer", Category::kNone, 0.0, 0);
  uint64_t inner = rec.BeginSpan("inner", Category::kNone, 1.0, 0);
  rec.EndSpan(outer, 5.0);  // inner never closed explicitly
  EXPECT_DOUBLE_EQ(rec.spans()[inner - 1].end_ms, 5.0);
  // Track stack is empty again: a new span roots at depth 0.
  uint64_t next = rec.BeginSpan("next", Category::kNone, 6.0, 0);
  EXPECT_EQ(rec.spans()[next - 1].parent, 0u);
}

TEST(TraceRecorderTest, CategoryTotalsSumLeafDurations) {
  TraceRecorder rec;
  uint64_t parent = rec.BeginSpan("p", Category::kNone, 0.0, 0);
  rec.AddCompleteSpan("a", Category::kComm, 0.0, 2.0, 0);
  rec.AddCompleteSpan("b", Category::kComm, 2.0, 3.0, 0);
  rec.AddCompleteSpan("c", Category::kManagement, 3.0, 3.5, 0);
  rec.AddCompleteSpan("d", Category::kProcessing, 3.5, 7.5, 0);
  rec.EndSpan(parent, 10.0);

  EXPECT_DOUBLE_EQ(rec.CategoryTotalMs(Category::kComm), 3.0);
  EXPECT_DOUBLE_EQ(rec.CategoryTotalMs(Category::kManagement), 0.5);
  EXPECT_DOUBLE_EQ(rec.CategoryTotalMs(Category::kProcessing), 4.0);
  // The structural parent is not part of any category sum.
  EXPECT_DOUBLE_EQ(rec.CategoryTotalMs(Category::kNone), 10.0);
}

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and quantile math.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.0);   // lands in bucket 0 (<= 1.0)
  h.Observe(1.001); // bucket 1
  h.Observe(2.0);   // bucket 1 (<= 2.0)
  h.Observe(3.0);   // bucket 2
  h.Observe(100.0); // overflow bucket
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 107.001);
}

TEST(HistogramTest, ExponentialBucketsGrowGeometrically) {
  std::vector<double> b = Histogram::ExponentialBuckets(0.5, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[1], 1.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  // 100 observations uniform over (0, 100]: one per bucket of width 1.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));

  // With unit-width buckets each holding one sample the interpolated
  // quantile tracks the exact order statistic to within one bucket width.
  EXPECT_NEAR(h.P50(), 50.0, 1.0);
  EXPECT_NEAR(h.P95(), 95.0, 1.0);
  EXPECT_NEAR(h.P99(), 99.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.0), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
}

TEST(HistogramTest, QuantilesClampToObservedRange) {
  Histogram h({10.0, 20.0, 40.0});
  h.Observe(15.0);
  h.Observe(15.0);
  h.Observe(15.0);
  // All mass in one bucket: every quantile stays within [min, max].
  EXPECT_GE(h.P50(), 15.0);
  EXPECT_LE(h.P99(), 15.0 + 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 15.0);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramConcurrencyTest, ConcurrentObservationsAreExact) {
  Histogram h(Histogram::ExponentialBuckets(0.01, 2.0, 20));
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

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hits");
  c->Increment(3);
  EXPECT_EQ(reg.GetCounter("hits"), c);  // same instrument on re-lookup
  EXPECT_EQ(reg.FindCounter("hits")->value(), 3u);
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);

  reg.GetGauge("depth")->Set(4.5);
  EXPECT_DOUBLE_EQ(reg.FindGauge("depth")->value(), 4.5);

  Histogram* h = reg.GetHistogram("lat", {1.0, 2.0});
  h->Observe(1.5);
  // Re-GetHistogram keeps the existing instrument and its bounds.
  EXPECT_EQ(reg.GetHistogram("lat", {99.0}), h);
  EXPECT_EQ(reg.FindHistogram("lat")->count(), 1u);
}

// ---------------------------------------------------------------------------
// Disabled-observer no-op path.
// ---------------------------------------------------------------------------

core::ProcessDefinition ChargingProcess(const std::string& id) {
  core::ProcessDefinition def;
  def.id = id;
  def.group = 'A';
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::Custom("charge", [](core::ProcessContext* ctx) {
    ctx->ChargeRows(100);
    ctx->ChargeXmlNodes(50);
    net::NetStats stats;
    stats.comm_ms = 7.0;
    stats.bytes = 2048;
    stats.interactions = 1;
    ctx->ChargeComm(stats);
    ctx->ChargeManagement(1.25);
    return Status::OK();
  })};
  return def;
}

TEST(ObsContextTest, DisabledObserverChangesNothing) {
  net::Network network;

  auto run = [&](obs::ObsContext obs) {
    core::DataflowEngine engine(&network);
    engine.SetObserver(obs);
    EXPECT_TRUE(engine.Deploy(ChargingProcess("PX")).ok());
    for (int i = 0; i < 5; ++i) {
      core::ProcessEvent ev;
      ev.process_id = "PX";
      ev.when = i * 2.0;
      EXPECT_TRUE(engine.Submit(std::move(ev)).ok());
    }
    EXPECT_TRUE(engine.RunUntilIdle().ok());
    return engine.records();
  };

  TraceRecorder rec;
  MetricsRegistry reg;
  std::vector<core::InstanceRecord> plain = run(obs::ObsContext());
  std::vector<core::InstanceRecord> observed = run(obs::ObsContext(&rec, &reg));

  // Identical benchmark numbers with and without the observer.
  ASSERT_EQ(plain.size(), observed.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain[i].costs.cc_ms, observed[i].costs.cc_ms);
    EXPECT_DOUBLE_EQ(plain[i].costs.cm_ms, observed[i].costs.cm_ms);
    EXPECT_DOUBLE_EQ(plain[i].costs.cp_ms, observed[i].costs.cp_ms);
    EXPECT_DOUBLE_EQ(plain[i].start_time, observed[i].start_time);
    EXPECT_DOUBLE_EQ(plain[i].end_time, observed[i].end_time);
  }
  // And the observed run did record.
  EXPECT_GT(rec.span_count(), 0u);
  EXPECT_EQ(reg.FindCounter("engine.instances")->value(), 5u);
}

TEST(ObsContextTest, RecordedCategoriesReconcileWithCostLedger) {
  net::Network network;
  core::DataflowEngine engine(&network);
  TraceRecorder rec;
  MetricsRegistry reg;
  engine.SetObserver(obs::ObsContext(&rec, &reg));
  ASSERT_TRUE(engine.Deploy(ChargingProcess("PY")).ok());
  for (int i = 0; i < 7; ++i) {
    core::ProcessEvent ev;
    ev.process_id = "PY";
    ev.when = i * 1.5;
    ASSERT_TRUE(engine.Submit(std::move(ev)).ok());
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());

  core::CostBreakdown total;
  for (const auto& r : engine.records()) total.Add(r.costs);
  EXPECT_NEAR(rec.CategoryTotalMs(Category::kComm), total.cc_ms, 1e-9);
  EXPECT_NEAR(rec.CategoryTotalMs(Category::kManagement), total.cm_ms, 1e-9);
  EXPECT_NEAR(rec.CategoryTotalMs(Category::kProcessing), total.cp_ms, 1e-9);

  // The engine-side histograms saw every instance.
  const Histogram* h = reg.FindHistogram("instance.total_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 7u);
  EXPECT_NEAR(h->sum(), total.Total(), 1e-9);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON well-formedness.
// ---------------------------------------------------------------------------

/// Minimal JSON well-formedness checker: validates value grammar
/// (objects/arrays/strings/numbers/keywords) and balanced nesting. Returns
/// the error position, or npos on success.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(ChromeTraceTest, ExportIsWellFormedJson) {
  TraceRecorder rec;
  rec.NameTrack(0, "worker 0");
  uint64_t inst = rec.BeginSpan("instance \"P01\"", Category::kNone, 0.0, 0);
  rec.Annotate(inst, "period", "0");
  rec.Annotate(inst, "note", "quotes \" and \\ and\nnewline");
  uint64_t op = rec.BeginSpan("RECEIVE -> msg1", Category::kNone, 0.5, 0);
  rec.AddCompleteSpan("rows", Category::kProcessing, 0.5, 1.0, 0);
  rec.EndSpan(op, 1.5);
  rec.EndSpan(inst, 2.0);

  std::string json = ToChromeTraceJson(rec);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"Cp\""), std::string::npos);
  EXPECT_NE(json.find("worker 0"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyRecorderStillExportsValidJson) {
  TraceRecorder rec;
  std::string json = ToChromeTraceJson(rec);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(MetricsExportTest, JsonAndCsvDumps) {
  MetricsRegistry reg;
  reg.GetCounter("engine.instances")->Increment(12);
  reg.GetGauge("queue,depth")->Set(3.0);  // comma forces CSV quoting
  Histogram* h = reg.GetHistogram("lat_ms", {1.0, 2.0, 4.0});
  h->Observe(0.5);
  h->Observe(3.0);

  std::string json = MetricsToJson(reg);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"engine.instances\": 12"), std::string::npos);

  std::string csv = MetricsToCsv(reg);
  EXPECT_NE(csv.find("kind,name,count"), std::string::npos);
  EXPECT_NE(csv.find("\"queue,depth\""), std::string::npos);
  EXPECT_NE(csv.find("counter,engine.instances"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Monitor CSV escaping (RFC 4180) and header/row consistency.
// ---------------------------------------------------------------------------

TEST(MonitorCsvTest, EscapesFieldsAndKeepsHeaderInSync) {
  ProcessMetrics m;
  m.process_id = "P01,\"alias\"";
  m.instances = 2;
  m.navg_tu = 1.5;
  std::string csv = Monitor::ToCsv({m});

  std::vector<std::string> lines = StrSplit(csv, '\n');
  ASSERT_GE(lines.size(), 2u);
  // Header and data rows have the same number of (escaped) fields. The
  // escaped process id contains commas, so count fields RFC-4180-style.
  auto count_fields = [](const std::string& line) {
    int fields = 1;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') quoted = !quoted;
      if (line[i] == ',' && !quoted) ++fields;
    }
    return fields;
  };
  EXPECT_EQ(count_fields(lines[0]), count_fields(lines[1]));
  // The comma-bearing field is quoted with doubled inner quotes.
  EXPECT_NE(lines[1].find("\"P01,\"\"alias\"\"\""), std::string::npos)
      << lines[1];
}

TEST(MonitorPercentilesTest, ReadsEngineHistograms) {
  MetricsRegistry reg;
  auto buckets = DefaultLatencyBucketsMs();
  for (int i = 1; i <= 20; ++i) {
    reg.GetHistogram("instance.cc_ms", buckets)->Observe(i * 1.0);
    reg.GetHistogram("instance.cp_ms", buckets)->Observe(i * 2.0);
  }
  ScaleConfig config;
  std::string out = Monitor::RenderPercentiles(reg, config);
  EXPECT_NE(out.find("Cc (communication)"), std::string::npos);
  EXPECT_NE(out.find("Cp (processing)"), std::string::npos);
  EXPECT_EQ(out.find("Cm (management)"), std::string::npos);  // not recorded

  MetricsRegistry empty;
  EXPECT_NE(Monitor::RenderPercentiles(empty, config).find("no instance"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-operator spans of an engine instance.
// ---------------------------------------------------------------------------

TEST(TracingTest, TraceRecordsOperatorsAndCosts) {
  Database db("d");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false).SetPrimaryKey({"k"});
  Table* t = *db.CreateTable("t", s);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t->Insert({Value::Int(i)}).ok());
  net::Network net;
  auto ep = std::make_unique<net::DatabaseEndpoint>("d", &db, net::Channel(),
                                                    0.01);
  ASSERT_TRUE(ep->RegisterQuery("all",
                                [](Database* d2, const std::vector<Value>&)
                                    -> Result<RowSet> {
                                  ExecContext ec;
                                  return Query::From(*d2->GetTable("t"))
                                      .Run(&ec);
                                })
                  .ok());
  ASSERT_TRUE(net.AddEndpoint(std::move(ep)).ok());

  core::ProcessDefinition def;
  def.id = "T";
  def.event_type = core::EventType::kTimeEvent;
  def.body = {core::InvokeQuery("d", "all", {}, "m"),
              core::Selection("m", "m2", Gt(Col("k"), Lit(int64_t{1})))};

  core::DataflowEngine engine(&net);
  TraceRecorder recorder;
  engine.SetObserver(ObsContext(&recorder, nullptr));
  ASSERT_TRUE(engine.Deploy(def).ok());
  ASSERT_TRUE(engine.Submit({"T", 0.0, nullptr, 0}).ok());
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  const auto& rec = engine.records()[0];

  // The instance's operator spans, in execution order.
  const std::vector<Span>& spans = recorder.spans();
  auto instance = std::find_if(spans.begin(), spans.end(), [](const Span& sp) {
    return sp.name == "instance T";
  });
  ASSERT_NE(instance, spans.end());
  std::vector<const Span*> ops;
  for (const Span& sp : spans) {
    if (sp.parent == instance->id && sp.category == Category::kNone) {
      ops.push_back(&sp);
    }
  }
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0]->name, "INVOKE d.all -> m");
  EXPECT_EQ(ops[1]->name.rfind("SELECTION ", 0), 0u) << ops[1]->name;

  // The category-tagged spans under an operator are its costs.
  auto cost_under = [&spans](const Span& op, Category category) {
    double ms = 0;
    for (const Span& sp : spans) {
      if (sp.parent == op.id && sp.category == category) {
        ms += sp.DurationMs();
      }
    }
    return ms;
  };
  EXPECT_GT(cost_under(*ops[0], Category::kComm), 0.0);
  // Operator costs sum to the instance's cost minus admission management.
  double traced = 0;
  for (const Span* op : ops) {
    for (Category c :
         {Category::kComm, Category::kManagement, Category::kProcessing}) {
      traced += cost_under(*op, c);
    }
  }
  double admission = engine.weights().plan_instantiation_ms +
                     engine.weights().scheduling_ms;
  EXPECT_NEAR(traced, rec.costs.Total() - admission, 1e-9);
}

}  // namespace
}  // namespace obs
}  // namespace dipbench
