// Quickstart: define and run a custom integration process with the MTM API.
//
// Builds two database endpoints, deploys a small extract-filter-load
// process into the DataflowEngine, submits one time event and prints the
// resulting cost breakdown. This is the smallest end-to-end use of the
// library's public API.

#include <cstdio>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/ra/query.h"

using namespace dipbench;

int main() {
  // 1. External systems: a source and a target database.
  Database source("source");
  Database target("target");
  Schema customers;
  customers.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString)
      .AddColumn("balance", DataType::kDouble)
      .SetPrimaryKey({"custkey"});
  Table* src_table = *source.CreateTable("customer", customers);
  (void)*target.CreateTable("customer", customers);
  for (int i = 1; i <= 100; ++i) {
    Status st = src_table->Insert({Value::Int(i),
                                   Value::String("c" + std::to_string(i)),
                                   Value::Double(i * 3.5)});
    if (!st.ok()) {
      std::fprintf(stderr, "seed failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // 2. Put both behind network endpoints with a latency model.
  net::Network network;
  auto src_ep = std::make_unique<net::DatabaseEndpoint>(
      "source", &source, net::Channel(net::LatencyModel{2.0, 0.3, 0.0}, 1),
      /*per_row_ms=*/0.05);
  (void)src_ep->RegisterQuery(
      "all_customers",
      [](Database* db, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*db->GetTable("customer")).Run(&ec);
      });
  auto tgt_ep = std::make_unique<net::DatabaseEndpoint>(
      "target", &target, net::Channel(net::LatencyModel{2.0, 0.3, 0.0}, 2),
      /*per_row_ms=*/0.05);
  (void)tgt_ep->RegisterUpdate(
      "load_customers", [](Database* db, const RowSet& rows) {
        return InsertInto(*db->GetTable("customer"), rows);
      });
  (void)network.AddEndpoint(std::move(src_ep));
  (void)network.AddEndpoint(std::move(tgt_ep));

  // 3. An integration process: extract, filter the big accounts, load.
  core::ProcessDefinition def;
  def.id = "COPY_BIG_ACCOUNTS";
  def.group = 'B';
  def.event_type = core::EventType::kTimeEvent;
  def.body = {
      core::InvokeQuery("source", "all_customers", {}, "msg1"),
      core::Selection("msg1", "msg2", Gt(Col("balance"), Lit(200.0))),
      core::InvokeUpdate("target", "load_customers", "msg2"),
  };

  // 4. Deploy, submit a time event, run.
  core::DataflowEngine engine(&network);
  if (Status st = engine.Deploy(def); !st.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", st.ToString().c_str());
    return 1;
  }
  (void)engine.Submit({"COPY_BIG_ACCOUNTS", /*when=*/0.0, nullptr, 0});
  if (Status st = engine.RunUntilIdle(); !st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 5. Inspect the instance record.
  const core::InstanceRecord& rec = engine.records().front();
  std::printf("process        : %s\n", rec.process_id.c_str());
  std::printf("rows loaded    : %llu\n",
              static_cast<unsigned long long>(rec.quality.rows_loaded));
  std::printf("target rows    : %zu\n", (*target.GetTable("customer"))->size());
  std::printf("communication  : %.3f ms\n", rec.costs.cc_ms);
  std::printf("management     : %.3f ms\n", rec.costs.cm_ms);
  std::printf("processing     : %.3f ms\n", rec.costs.cp_ms);
  std::printf("total          : %.3f ms (elapsed %.3f virtual ms)\n",
              rec.costs.Total(), rec.ElapsedMs());
  return 0;
}
