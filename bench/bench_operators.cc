// Micro-benchmarks (E7 in DESIGN.md): per-operator throughput of the
// substrate pieces that back the cost model — relational operators, XML
// parse/serialize, STX translation, XSD validation, and the end-to-end
// endpoint paths (database vs Web-service marshaling).
//
// The relational operators run at two input sizes; items_per_second in the
// output is the rows/sec figure. By default the run also writes
// BENCH_operators.json (Google Benchmark JSON) next to the binary; pass
// your own --benchmark_out= to override.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/dipbench/schemas.h"
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
    (void)rs.rows.Append({Value::Int(i), Value::Int(rng.NextInt(1, 100)),
                          Value::Double(rng.NextDoubleIn(1, 500)),
                          Value::DateYmd(2008, 1 + int(i % 6),
                                         1 + int(i % 28))});
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
  for (RowView row : MakeOrders(n).rows) (void)t->Insert(row);
  return t;
}

/// Registers the input sizes.
void RowArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows"});
  for (int64_t rows : {int64_t{4096}, int64_t{65536}}) b->Arg(rows);
}

void RunPlan(benchmark::State& state, const PlanPtr& plan,
             int64_t rows_per_iter) {
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
BENCHMARK(BM_Scan)->Apply(RowArgs);

void BM_Filter(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state, Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
          state.range(0));
}
BENCHMARK(BM_Filter)->Apply(RowArgs);

void BM_Project(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Project(ScanTable(t),
                  {{"orderkey", Col("orderkey"), DataType::kNull},
                   {"gross", Mul(Col("price"), Lit(1.19)), DataType::kNull}}),
          state.range(0));
}
BENCHMARK(BM_Project)->Apply(RowArgs);

// The acceptance chain: scan -> filter -> project fully streams (no
// intermediate RowSet at all).
void BM_ScanFilterProject(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Project(Filter(ScanTable(t), Gt(Col("price"), Lit(250.0))),
                  {{"orderkey", Col("orderkey"), DataType::kNull},
                   {"gross", Mul(Col("price"), Lit(1.19)), DataType::kNull}}),
          state.range(0));
}
BENCHMARK(BM_ScanFilterProject)->Apply(RowArgs);

// Filter -> grouped aggregate: the aggregate folds the filter's borrowed
// tuples in place, with no intermediate RowSet.
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
BENCHMARK(BM_FilterAggregateChain)->Apply(RowArgs);

void BM_HashJoin(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RowSet lookup;
  lookup.schema.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString);
  for (int64_t i = 1; i <= 100; ++i) {
    (void)lookup.rows.Append({Value::Int(i), Value::String("c")});
  }
  RunPlan(state,
          HashJoin(ScanTable(t), ScanValues(std::move(lookup)), {"custkey"},
                   {"custkey"}),
          state.range(0));
}
BENCHMARK(BM_HashJoin)->Apply(RowArgs);

void BM_Aggregate(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state,
          Aggregate(ScanTable(t), {"custkey"},
                    {{"revenue", AggFunc::kSum, "price"},
                     {"n", AggFunc::kCount, ""}}),
          state.range(0));
}
BENCHMARK(BM_Aggregate)->Apply(RowArgs);

void BM_Sort(benchmark::State& state) {
  Database db("bench");
  Table* t = MakeOrdersTable(&db, state.range(0));
  RunPlan(state, Sort(ScanTable(t), {{"price", false}}), state.range(0));
}
BENCHMARK(BM_Sort)->Apply(RowArgs);

void BM_UnionDistinct(benchmark::State& state) {
  RowSet a = MakeOrders(state.range(0));
  RowSet b = MakeOrders(state.range(0));  // identical: worst-case dedup
  auto plan = UnionDistinct({ScanValues(a), ScanValues(b)}, {"orderkey"});
  for (auto _ : state) {
    ExecContext ctx;
    auto out = plan->Execute(&ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_UnionDistinct)->Apply(RowArgs);

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
}  // namespace dipbench

// Custom main: write BENCH_operators.json by default so CI (and humans) get
// machine-readable rows/sec per operator without remembering the flag.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
    args.push_back(argv[i]);
  }
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
