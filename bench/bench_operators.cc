// Micro-benchmarks (E7 in DESIGN.md): per-operator throughput of the
// substrate pieces that back the cost model — relational operators, XML
// parse/serialize, STX translation, XSD validation, and the end-to-end
// endpoint paths (database vs Web-service marshaling).
//
// The relational operators run under BOTH execution modes
// (pipeline = 0: legacy full materialization between operators,
// pipeline = 1: batch-streamed cursors) so the rows/sec effect of the
// pipelined engine is measurable per operator. items_per_second in the
// output is the rows/sec figure. By default the run also writes
// BENCH_operators.json (Google Benchmark JSON) next to the binary; pass
// your own --benchmark_out= to override.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/dipbench/schemas.h"
#include "src/storage/spill.h"
#include "src/net/endpoint.h"
#include "src/ra/query.h"
#include "src/xml/bridge.h"
#include "src/xml/parser.h"
#include "src/xml/path.h"

namespace dipbench {
namespace {

RowSet MakeOrders(int64_t n) {
  RowSet rs;
  rs.schema.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("custkey", DataType::kInt64)
      .AddColumn("price", DataType::kDouble)
      .AddColumn("orderdate", DataType::kDate);
  Rng rng(7);
  for (int64_t i = 0; i < n; ++i) {
    rs.rows.push_back({Value::Int(i), Value::Int(rng.NextInt(1, 100)),
                       Value::Double(rng.NextDoubleIn(1, 500)),
                       Value::DateYmd(2008, 1 + int(i % 6), 1 + int(i % 28))});
  }
  return rs;
}

/// Builds a storage table with the MakeOrders shape (plans that start from
/// ScanTable exercise the table scan cursor rather than a pre-built RowSet).
Table* MakeOrdersTable(Database* db, int64_t n) {
  Schema s;
  s.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("custkey", DataType::kInt64)
      .AddColumn("price", DataType::kDouble)
      .AddColumn("orderdate", DataType::kDate)
      .SetPrimaryKey({"orderkey"});
  Table* t = *db->CreateTable("orders", std::move(s));
  for (Row& row : MakeOrders(n).rows) (void)t->Insert(std::move(row));
  return t;
}

/// Second benchmark argument selects the execution mode:
/// 0 = materialize, 1 = pipeline (row cursors), 2 = columnar kernels.
ExecMode ModeArg(const benchmark::State& state) {
  switch (state.range(1)) {
    case 0:
      return ExecMode::kMaterialize;
    case 1:
      return ExecMode::kPipeline;
    default:
      return ExecMode::kColumnar;
  }
}

/// Registers {rows} x {materialize, pipeline, columnar} variants.
void ModeArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "mode"});
  for (int64_t rows : {int64_t{4096}, int64_t{65536}}) {
    b->Args({rows, 0})->Args({rows, 1})->Args({rows, 2});
  }
}

void RunPlan(benchmark::State& state, const PlanPtr& plan,
             int64_t rows_per_iter) {
  ScopedExecMode mode(ModeArg(state));
  for (auto _ : state) {
    ExecContext ctx;
    auto out = plan->Execute(&ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows_per_iter);
}

void BM_Scan(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state, ScanTable(t), state.range(0));
}
BENCHMARK(BM_Scan)->Apply(ModeArgs);

void BM_Filter(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state, Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
          state.range(0));
}
BENCHMARK(BM_Filter)->Apply(ModeArgs);

void BM_Project(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Project(ScanTable(t),
                  {{"orderkey", Col("orderkey"), DataType::kNull},
                   {"gross", Mul(Col("price"), Lit(1.19)), DataType::kNull}}),
          state.range(0));
}
BENCHMARK(BM_Project)->Apply(ModeArgs);

// The acceptance chain: scan -> filter -> project fully streams in
// pipelined mode (no intermediate RowSet at all), which is where the
// refactor's speedup should be most visible.
void BM_ScanFilterProject(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Project(Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
                  {{"orderkey", Col("orderkey"), DataType::kNull},
                   {"gross", Mul(Col("price"), Lit(1.19)), DataType::kNull}}),
          state.range(0));
}
BENCHMARK(BM_ScanFilterProject)->Apply(ModeArgs);

// The columnar acceptance chain: filter -> grouped aggregate never leaves
// the columnar kernels (selection vector feeds the vectorized hash
// aggregate directly), which is where column-at-a-time execution pays off
// the most against the row cursors.
void BM_FilterAggregateChain(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Aggregate(Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
                    {"custkey"},
                    {{"revenue", AggFunc::kSum, "price"},
                     {"n", AggFunc::kCount, ""}}),
          state.range(0));
}
BENCHMARK(BM_FilterAggregateChain)->Apply(ModeArgs);

void BM_HashJoin(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RowSet lookup;
  lookup.schema.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString);
  for (int64_t i = 1; i <= 100; ++i) {
    lookup.rows.push_back({Value::Int(i), Value::String("c")});
  }
  RunPlan(state,
          HashJoin(ScanTable(t), ScanValues(std::move(lookup)), {"custkey"},
                   {"custkey"}),
          state.range(0));
}
BENCHMARK(BM_HashJoin)->Apply(ModeArgs);

void BM_Aggregate(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Aggregate(ScanTable(t), {"custkey"},
                    {{"revenue", AggFunc::kSum, "price"},
                     {"n", AggFunc::kCount, ""}}),
          state.range(0));
}
BENCHMARK(BM_Aggregate)->Apply(ModeArgs);

void BM_Sort(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state, Sort(ScanTable(t), {{"price", false}}), state.range(0));
}
BENCHMARK(BM_Sort)->Apply(ModeArgs);

void BM_UnionDistinct(benchmark::State& state) {
  RowSet a = MakeOrders(state.range(0));
  RowSet b = MakeOrders(state.range(0));  // identical: worst-case dedup
  auto plan = UnionDistinct({ScanValues(a), ScanValues(b)}, {"orderkey"});
  ScopedExecMode mode(ModeArg(state));
  for (auto _ : state) {
    ExecContext ctx;
    auto out = plan->Execute(&ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_UnionDistinct)->Apply(ModeArgs);

void BM_XmlParse(benchmark::State& state) {
  RowSet rows = MakeOrders(state.range(0));
  std::string text = xml::WriteXml(xml::RowSetToXml(rows, "rs", "row"));
  for (auto _ : state) {
    auto doc = xml::ParseXml(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_XmlParse)->Arg(100)->Arg(1000);

void BM_XmlSerialize(benchmark::State& state) {
  RowSet rows = MakeOrders(state.range(0));
  auto doc = xml::RowSetToXml(rows, "rs", "row");
  for (auto _ : state) {
    std::string text = xml::WriteXml(doc);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_XmlSerialize)->Arg(100)->Arg(1000);

void BM_StxTranslate(benchmark::State& state) {
  RowSet rows = MakeOrders(state.range(0));
  auto doc = xml::RowSetToXml(rows, "rs", "row");
  auto stx = schemas::BeijingToCdbStx();
  for (auto _ : state) {
    size_t visited = 0;
    auto out = stx->Transform(doc, &visited);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StxTranslate)->Arg(100)->Arg(1000);

void BM_XsdValidate(benchmark::State& state) {
  auto xsd = schemas::SanDiegoOrderXsd();
  auto doc = xml::ParseXml(
      "<SDOrder><OKey>1</OKey><CKey>2</CKey><PKey>3</PKey><Qty>4</Qty>"
      "<Price>5.5</Price><ODate>20080101</ODate><Prio>U</Prio></SDOrder>");
  for (auto _ : state) {
    Status st = xsd->Validate(*doc);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_XsdValidate);

void BM_XPathDescendant(benchmark::State& state) {
  RowSet rows = MakeOrders(1000);
  auto doc = xml::RowSetToXml(rows, "rs", "row");
  for (auto _ : state) {
    auto nodes = xml::SelectNodes(doc, "//custkey");
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathDescendant);

void BM_IndexRangeScan(benchmark::State& state) {
  Database db("src");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("price", DataType::kDouble)
      .SetPrimaryKey({"k"});
  Table* t = *db.CreateTable("t", s);
  (void)t->CreateOrderedIndex("by_price", "price");
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)t->Insert({Value::Int(i), Value::Double(rng.NextDoubleIn(0, 1000))});
  }
  // A 1% selective range: the ordered index vs a full-scan filter.
  auto plan = IndexRangeScan(t, "by_price", Value::Double(500.0),
                             Value::Double(510.0));
  for (auto _ : state) {
    ExecContext ctx;
    auto out = plan->Execute(&ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 100);
}
BENCHMARK(BM_IndexRangeScan)->Arg(10000);

void BM_FullScanFilterSameRange(benchmark::State& state) {
  Database db("src");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false)
      .AddColumn("price", DataType::kDouble)
      .SetPrimaryKey({"k"});
  Table* t = *db.CreateTable("t", s);
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)t->Insert({Value::Int(i), Value::Double(rng.NextDoubleIn(0, 1000))});
  }
  auto plan = Filter(ScanTable(t), And(Ge(Col("price"), Lit(500.0)),
                                       Le(Col("price"), Lit(510.0))));
  for (auto _ : state) {
    ExecContext ctx;
    auto out = plan->Execute(&ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 100);
}
BENCHMARK(BM_FullScanFilterSameRange)->Arg(10000);

void BM_EndpointQuery_Database(benchmark::State& state) {
  Database db("src");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false).AddColumn("v", DataType::kString);
  Table* t = *db.CreateTable("t", s);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)t->Insert({Value::Int(i), Value::String("v")});
  }
  net::DatabaseEndpoint ep("src", &db, net::Channel(), 0.0);
  (void)ep.RegisterQuery("all", [](Database* d, const std::vector<Value>&)
                                    -> Result<RowSet> {
    ExecContext ec;
    return Query::From(*d->GetTable("t")).Run(&ec);
  });
  for (auto _ : state) {
    net::NetStats stats;
    auto rows = ep.Query("all", {}, &stats);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndpointQuery_Database)->Arg(1000);

void BM_EndpointQuery_WebService(benchmark::State& state) {
  Database db("src");
  Schema s;
  s.AddColumn("k", DataType::kInt64, false).AddColumn("v", DataType::kString);
  Table* t = *db.CreateTable("t", s);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)t->Insert({Value::Int(i), Value::String("v")});
  }
  net::WebServiceEndpoint ep("ws", &db, net::Channel(), 0.0, 0.0);
  (void)ep.RegisterQuery("all", [](Database* d, const std::vector<Value>&)
                                    -> Result<RowSet> {
    ExecContext ec;
    return Query::From(*d->GetTable("t")).Run(&ec);
  });
  for (auto _ : state) {
    net::NetStats stats;
    auto rows = ep.Query("all", {}, &stats);  // marshals through XML
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndpointQuery_WebService)->Arg(1000);

}  // namespace

/// --columnar-gate=<path>: self-timed CI gate. Runs the filter->aggregate
/// acceptance chain under the row cursors (pipeline) and the columnar
/// kernels, writes a small JSON report to <path>, and fails (non-zero)
/// when columnar throughput drops below row-mode throughput. Timing is
/// best-of-5 so scheduler noise on shared CI runners cannot flake the
/// gate.
int RunColumnarGate(const std::string& out_path) {
  constexpr int64_t kRows = 65536;
  Database db("gate");
  Table* t = MakeOrdersTable(&db, kRows);
  PlanPtr plan =
      Aggregate(Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
                {"custkey"},
                {{"revenue", AggFunc::kSum, "price"},
                 {"n", AggFunc::kCount, ""}});

  auto best_seconds = [&](ExecMode mode) {
    ScopedExecMode scoped(mode);
    double best = 1e18;
    for (int rep = 0; rep < 6; ++rep) {  // rep 0 is warm-up
      ExecContext ctx;
      auto start = std::chrono::steady_clock::now();
      auto out = plan->Execute(&ctx);
      auto stop = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(out);
      if (!out.ok()) {
        std::fprintf(stderr, "gate plan failed: %s\n",
                     out.status().ToString().c_str());
        std::exit(1);
      }
      double s = std::chrono::duration<double>(stop - start).count();
      if (rep > 0) best = std::min(best, s);
    }
    return best;
  };

  double row_s = best_seconds(ExecMode::kPipeline);
  double col_s = best_seconds(ExecMode::kColumnar);
  double row_rps = kRows / row_s;
  double col_rps = kRows / col_s;
  double speedup = row_s / col_s;
  bool pass = col_rps >= row_rps;

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"BM_FilterAggregateChain\",\n"
      "  \"rows\": %lld,\n"
      "  \"row_mode_rows_per_sec\": %.0f,\n"
      "  \"columnar_rows_per_sec\": %.0f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"gate\": \"%s\"\n"
      "}\n",
      static_cast<long long>(kRows), row_rps, col_rps, speedup,
      pass ? "pass" : "fail");
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("columnar gate: row %.0f rows/s, columnar %.0f rows/s "
              "(%.2fx) -> %s\n",
              row_rps, col_rps, speedup, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace dipbench

// Custom main: write BENCH_operators.json by default so CI (and humans) get
// machine-readable rows/sec per operator/mode without remembering the flag.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool has_out = false;
  std::string gate_out;
  for (int i = 1; i < argc; ++i) {
    // Our own flags, consumed before Google Benchmark sees the arg list:
    // --columnar-gate=<path> runs the self-timed CI gate instead of the
    // registered benchmarks; --memory-budget=<bytes> applies an operator
    // spill budget to every benchmark on this thread.
    if (std::strncmp(argv[i], "--columnar-gate=", 16) == 0) {
      gate_out = argv[i] + 16;
      continue;
    }
    if (std::strncmp(argv[i], "--memory-budget=", 16) == 0) {
      dipbench::SetMemoryBudget(
          static_cast<size_t>(std::strtoull(argv[i] + 16, nullptr, 10)));
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  if (!gate_out.empty()) return dipbench::RunColumnarGate(gate_out);
  static std::string out_flag = "--benchmark_out=BENCH_operators.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
