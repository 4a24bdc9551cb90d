// Message-driven ETL with validation and failed-data routing.
//
// A miniature of DIPBench process type P10: an error-prone application
// sends XML order messages; the integration process validates each against
// an XSD, translates the valid ones with an STX rule set (renames + a
// semantic priority mapping) and loads them, while invalid messages are
// preserved in a failed-data destination.

#include <cstdio>

#include "src/core/engine.h"
#include "src/core/operators.h"
#include "src/xml/parser.h"

using namespace dipbench;

namespace {

std::shared_ptr<const xml::XsdSchema> OrderXsd() {
  auto xsd = std::make_shared<xml::XsdSchema>("Order");
  xsd->Element("Order",
               xml::Container({xml::Required("Key"), xml::Required("Qty"),
                               xml::Required("Prio")}));
  xsd->Element("Key", xml::Leaf(DataType::kInt64));
  xsd->Element("Qty", xml::Leaf(DataType::kInt64));
  xsd->Element("Prio", xml::Leaf(DataType::kString));
  return xsd;
}

std::shared_ptr<const xml::StxTransformer> OrderStx() {
  auto stx = std::make_shared<xml::StxTransformer>();
  xml::StxRule rule;
  rule.match = "Order";
  rule.rename_to = "order";
  rule.field_renames = {{"Key", "orderkey"}, {"Qty", "quantity"},
                        {"Prio", "priority"}};
  rule.value_maps = {{"priority", {{"U", "URGENT"}, {"N", "NORMAL"}}}};
  stx->AddRule(std::move(rule));
  return stx;
}

std::shared_ptr<const xml::Node> MakeMessage(int i) {
  xml::Node doc("Order");
  if (i % 4 != 3) doc.AddText("Key", std::to_string(1000 + i));  // 25% bad
  doc.AddText("Qty", std::to_string(1 + i % 5));
  doc.AddText("Prio", i % 2 == 0 ? "U" : "N");
  return std::make_shared<const xml::Node>(std::move(doc));
}

}  // namespace

int main() {
  Database warehouse("warehouse");
  Schema orders;
  orders.AddColumn("orderkey", DataType::kInt64, false)
      .AddColumn("quantity", DataType::kInt64)
      .AddColumn("priority", DataType::kString)
      .SetPrimaryKey({"orderkey"});
  (void)*warehouse.CreateTable("orders", orders);
  Schema failed;
  failed.AddColumn("reason", DataType::kString)
      .AddColumn("payload", DataType::kString);
  (void)*warehouse.CreateTable("failed", failed);

  net::Network network;
  auto ep = std::make_unique<net::DatabaseEndpoint>(
      "warehouse", &warehouse, net::Channel(), 0.05);
  (void)ep->RegisterUpdate("load_orders",
                           [](Database* db, const RowSet& rows) {
                             return InsertInto(*db->GetTable("orders"), rows);
                           });
  (void)ep->RegisterUpdate("load_failed",
                           [](Database* db, const RowSet& rows) {
                             return InsertInto(*db->GetTable("failed"), rows);
                           });
  (void)network.AddEndpoint(std::move(ep));

  // Stage the failed message into rows the load op understands.
  auto stage_failed =
      core::Custom("stage_failed", [](core::ProcessContext* ctx) -> Status {
        auto msg = ctx->Get("msg1");
        if (!msg.ok()) return msg.status();
        auto doc = msg->Xml();
        if (!doc.ok()) return doc.status();
        RowSet out;
        out.schema.AddColumn("reason", DataType::kString)
            .AddColumn("payload", DataType::kString);
        Status appended =
            out.rows.Append({Value::String("xsd-validation-failed"),
                             Value::String(xml::WriteXml(**doc))});
        if (!appended.ok()) return appended;
        ctx->Set("failed_rows", core::MtmMessage::FromRows(std::move(out)));
        return Status::OK();
      });

  core::ProcessDefinition def;
  def.id = "RECEIVE_ORDERS";
  def.event_type = core::EventType::kMessage;
  def.body = {
      core::Receive("msg1"),
      core::Validate(
          "msg1", OrderXsd(),
          /*on_valid=*/
          {
              core::Translate("msg1", "msg2", OrderStx()),
              core::XmlToRows("msg2", "msg3", orders, "order"),
              core::InvokeUpdate("warehouse", "load_orders", "msg3"),
          },
          /*on_invalid=*/
          {
              stage_failed,
              core::InvokeUpdate("warehouse", "load_failed", "failed_rows"),
          }),
  };

  core::DataflowEngine engine(&network);
  if (Status st = engine.Deploy(def); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    (void)engine.Submit({"RECEIVE_ORDERS", i * 2.0, MakeMessage(i), 0});
  }
  if (Status st = engine.RunUntilIdle(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  size_t loaded = (*warehouse.GetTable("orders"))->size();
  size_t rejected = (*warehouse.GetTable("failed"))->size();
  std::printf("messages   : %d\n", kMessages);
  std::printf("loaded     : %zu\n", loaded);
  std::printf("rejected   : %zu\n", rejected);
  // Show one translated row to demonstrate the semantic mapping.
  (*warehouse.GetTable("orders"))->ForEach([](RowView r) {
    static bool printed = false;
    if (!printed) {
      std::printf("sample row : orderkey=%lld qty=%lld priority=%s\n",
                  static_cast<long long>(r[0].AsInt()),
                  static_cast<long long>(r[1].AsInt()),
                  r[2].ToString().c_str());
      printed = true;
    }
  });
  double total_cost = 0;
  for (const auto& rec : engine.records()) total_cost += rec.costs.Total();
  std::printf("avg cost   : %.3f virtual ms/message\n",
              total_cost / kMessages);
  return 0;
}
