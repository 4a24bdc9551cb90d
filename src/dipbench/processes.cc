#include "src/dipbench/processes.h"

#include <set>

#include "src/core/operators.h"
#include "src/dipbench/datagen.h"
#include "src/dipbench/scenario.h"
#include "src/dipbench/schemas.h"
#include "src/xml/parser.h"
#include "src/xml/path.h"

namespace dipbench {

using core::Always;
using core::Assign;
using core::Custom;
using core::EventType;
using core::Fork;
using core::InvokeProc;
using core::InvokeQuery;
using core::InvokeQueryXml;
using core::InvokeUpdate;
using core::MtmMessage;
using core::OpPtr;
using core::ProcessContext;
using core::ProcessDefinition;
using core::Projection;
using core::Receive;
using core::Selection;
using core::Subprocess;
using core::Switch;
using core::SwitchCase;
using core::Translate;
using core::UnionDistinctOp;
using core::Validate;
using core::XmlToRows;

namespace {

/// Rename helper for projections that only move columns.
ProjectionItem Ren(const char* out, const char* in) {
  return ProjectionItem{out, Col(in), DataType::kNull};
}

/// Constant column.
ProjectionItem ConstStr(const char* out, const char* value) {
  return ProjectionItem{out, Lit(value), DataType::kString};
}

ProjectionItem NullStr(const char* out) {
  return ProjectionItem{out, Lit(Value::Null()), DataType::kString};
}

/// Condition on an integer leaf of the XML payload, bucketed by
/// (value / 3) % 3 — routes the European key space round-robin across
/// Berlin, Paris and Trondheim (the paper's Fig. 4 SWITCH on Custkey).
std::function<Result<bool>(ProcessContext*)> EuropeBucketIs(std::string var,
                                                            std::string path,
                                                            int64_t bucket) {
  return [var = std::move(var), path = std::move(path),
          bucket](ProcessContext* ctx) -> Result<bool> {
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(var));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    DIP_ASSIGN_OR_RETURN(std::string text, xml::SelectText(*doc, path));
    DIP_ASSIGN_OR_RETURN(Value v, Value::Parse(text, DataType::kInt64));
    if (v.is_null()) return false;
    return (v.AsInt() / 3) % 3 == bucket;
  };
}

// --- Group A -------------------------------------------------------------

ProcessDefinition P01() {
  ProcessDefinition def;
  def.id = "P01";
  def.group = 'A';
  def.event_type = EventType::kMessage;
  def.description = "Master data exchange Asia: Beijing XSD -> Seoul XSD";
  def.body = {
      Receive("msg1"),
      Translate("msg1", "msg2", schemas::BeijingToSeoulStx()),
      XmlToRows("msg2", "msg3", schemas::AsiaCustomer(), "CustomerS"),
      InvokeUpdate(Scenario::kSeoul, "upsert_customer", "msg3"),
  };
  return def;
}

ProcessDefinition P02() {
  ProcessDefinition def;
  def.id = "P02";
  def.group = 'A';
  def.event_type = EventType::kMessage;
  def.description =
      "Master data subscription Europe: MDM message routed by Custkey";
  // Fig. 4: receive, translate to the Europe schema, SWITCH on the customer
  // identifier, Assign + Invoke per branch.
  auto route = [](const char* service) -> std::vector<OpPtr> {
    return {Assign("msg3", "msg4"),
            InvokeUpdate(service, "upsert_kunde", "msg4")};
  };
  def.body = {
      Receive("msg1"),
      Translate("msg1", "msg2", schemas::MdmToEuropeStx()),
      XmlToRows("msg2", "msg3", schemas::EuropeCustomer(), "kunde"),
      Switch({
          SwitchCase{EuropeBucketIs("msg2", "kdnr", 0),
                     route(Scenario::kBerlin)},
          SwitchCase{EuropeBucketIs("msg2", "kdnr", 1),
                     route(Scenario::kParis)},
          SwitchCase{Always(), route(Scenario::kTrondheim)},
      }),
  };
  return def;
}

ProcessDefinition P03() {
  ProcessDefinition def;
  def.id = "P03";
  def.group = 'A';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Local data consolidation America: Chicago+Baltimore+Madison -> "
      "US_Eastcoast (UNION DISTINCT per table)";
  // Fig. 5. Deviation: the paper unions Orders, Customer and Part; we also
  // carry Lineitem so that the downstream P11 extraction has movement
  // detail to flatten.
  def.body = {
      InvokeQuery(Scenario::kChicago, "all_orders", {}, "o1"),
      InvokeQuery(Scenario::kBaltimore, "all_orders", {}, "o2"),
      InvokeQuery(Scenario::kMadison, "all_orders", {}, "o3"),
      UnionDistinctOp({"o1", "o2", "o3"}, {"o_orderkey"}, "orders"),
      InvokeUpdate(Scenario::kUsEastcoast, "load_orders", "orders"),

      InvokeQuery(Scenario::kChicago, "all_customers", {}, "c1"),
      InvokeQuery(Scenario::kBaltimore, "all_customers", {}, "c2"),
      InvokeQuery(Scenario::kMadison, "all_customers", {}, "c3"),
      UnionDistinctOp({"c1", "c2", "c3"}, {"c_custkey"}, "customers"),
      InvokeUpdate(Scenario::kUsEastcoast, "load_customers", "customers"),

      InvokeQuery(Scenario::kChicago, "all_parts", {}, "p1"),
      InvokeQuery(Scenario::kBaltimore, "all_parts", {}, "p2"),
      InvokeQuery(Scenario::kMadison, "all_parts", {}, "p3"),
      UnionDistinctOp({"p1", "p2", "p3"}, {"p_partkey"}, "parts"),
      InvokeUpdate(Scenario::kUsEastcoast, "load_parts", "parts"),

      InvokeQuery(Scenario::kChicago, "all_lineitems", {}, "l1"),
      InvokeQuery(Scenario::kBaltimore, "all_lineitems", {}, "l2"),
      InvokeQuery(Scenario::kMadison, "all_lineitems", {}, "l3"),
      UnionDistinctOp({"l1", "l2", "l3"}, {"l_orderkey", "l_linenumber"},
                      "lineitems"),
      InvokeUpdate(Scenario::kUsEastcoast, "load_lineitems", "lineitems"),
  };
  return def;
}

// --- Group B -------------------------------------------------------------

/// P04's enrichment: look up the customer's consolidated master data and
/// attach the priority to the Vienna message before translation.
OpPtr EnrichViennaWithMasterData() {
  return Custom("enrich_master_data", [](ProcessContext* ctx) -> Status {
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get("msg1"));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    DIP_ASSIGN_OR_RETURN(std::string kdnr_text,
                         xml::SelectText(*doc, "Kdnr"));
    DIP_ASSIGN_OR_RETURN(Value kdnr, Value::Parse(kdnr_text,
                                                  DataType::kInt64));
    DIP_ASSIGN_OR_RETURN(net::Endpoint * cdb,
                         ctx->network()->Get(Scenario::kCdb));
    net::NetStats stats;
    DIP_ASSIGN_OR_RETURN(RowSet master,
                         cdb->Query("lookup_customer", {kdnr}, &stats));
    ctx->ChargeComm(stats);
    xml::Node enriched = doc->Clone();
    if (!master.rows.empty() && !master.rows[0][3].is_null()) {
      enriched.AddText("Prio", std::string(master.rows[0][3].AsString()));
    } else {
      enriched.AddText("Prio", "MEDIUM");
    }
    ctx->ChargeXmlNodes(enriched.SubtreeSize());
    ctx->Set("msg1e", MtmMessage::FromXml(std::move(enriched)));
    return Status::OK();
  });
}

/// Flattens a translated CDB order document (<order> with <line> children)
/// into staged order rows, one per line.
OpPtr FlattenOrderDocument(const std::string& in_var,
                           const std::string& out_var) {
  return Custom("flatten_order", [in_var, out_var](
                                     ProcessContext* ctx) -> Status {
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    ctx->ChargeXmlNodes(doc->SubtreeSize());
    RowSet out;
    out.schema = schemas::StagedOrder();
    auto leaf = [&](const std::string& name, DataType t) -> Value {
      const xml::Node* n = doc->FindChild(name);
      if (n == nullptr || n->text().empty()) return Value::Null();
      auto parsed = Value::Parse(n->text(), t);
      return parsed.ok() ? *parsed : Value::Null();
    };
    Value orderkey = leaf("orderkey", DataType::kInt64);
    Value custkey = leaf("custkey", DataType::kInt64);
    Value orderdate = leaf("orderdate", DataType::kDate);
    Value priority = leaf("priority", DataType::kString);
    Value source = leaf("source", DataType::kString);
    int64_t line_no = 0;
    for (const xml::Node* line : doc->FindChildren("line")) {
      ++line_no;
      auto line_leaf = [&](const char* name, DataType t) -> Value {
        const xml::Node* n = line->FindChild(name);
        if (n == nullptr || n->text().empty()) return Value::Null();
        auto parsed = Value::Parse(n->text(), t);
        return parsed.ok() ? *parsed : Value::Null();
      };
      // Line-level order keys: orderkey * 100 + position keeps them unique
      // in the consolidated orders table.
      Value line_key =
          orderkey.is_null()
              ? Value::Null()
              : Value::Int(orderkey.AsInt() * 100 + line_no);
      DIP_RETURN_NOT_OK(out.rows.Append(
          {line_key, custkey, line_leaf("prodkey", DataType::kInt64),
           orderdate, line_leaf("quantity", DataType::kInt64),
           line_leaf("price", DataType::kDouble), priority, source}));
    }
    ctx->ChargeRows(out.rows.size());
    ctx->Set(out_var, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  });
}

ProcessDefinition P04() {
  ProcessDefinition def;
  def.id = "P04";
  def.group = 'B';
  def.event_type = EventType::kMessage;
  def.description =
      "Receive Vienna messages, enrich with master data, translate, load CDB";
  def.body = {
      Receive("msg1"),
      EnrichViennaWithMasterData(),
      Translate("msg1e", "msg2", schemas::ViennaToCdbStx()),
      FlattenOrderDocument("msg2", "msg3"),
      InvokeUpdate(Scenario::kCdb, "load_orders", "msg3"),
  };
  return def;
}

ProcessDefinition EuropeExtract(const char* id, const char* service,
                                const char* location, bool with_selection) {
  ProcessDefinition def;
  def.id = id;
  def.group = 'B';
  def.event_type = EventType::kTimeEvent;
  def.description = std::string("Extract data from ") + location;
  def.body = {InvokeQuery(service, "extract_orders", {}, "msg1")};
  std::string current = "msg1";
  if (with_selection) {
    // Berlin and Paris share a database instance: filter the location.
    def.body.push_back(
        Selection("msg1", "msg2", Eq(Col("location"), Lit(location))));
    current = "msg2";
  }
  def.body.push_back(Projection(
      current, "msg3",
      {// Line-level order keys: anr * 100 + pos (one consolidated row per
       // order line).
       ProjectionItem{"orderkey",
                      Add(Mul(Col("anr"), Lit(int64_t{100})), Col("pos")),
                      DataType::kInt64},
       Ren("custkey", "kdnr"), Ren("prodkey", "pnr"),
       Ren("orderdate", "datum"), Ren("quantity", "menge"),
       Ren("price", "preis"), NullStr("priority"),
       ConstStr("source", location)}));
  def.body.push_back(InvokeUpdate(Scenario::kCdb, "load_orders", "msg3"));
  return def;
}

ProcessDefinition P05() {
  return EuropeExtract("P05", Scenario::kBerlin, "berlin", true);
}
ProcessDefinition P06() {
  return EuropeExtract("P06", Scenario::kParis, "paris", true);
}
ProcessDefinition P07() {
  return EuropeExtract("P07", Scenario::kTrondheim, "trondheim", false);
}

ProcessDefinition P08() {
  ProcessDefinition def;
  def.id = "P08";
  def.group = 'B';
  def.event_type = EventType::kMessage;
  def.description = "Receive Hongkong sales messages, translate, load CDB";
  Schema staged = schemas::StagedOrder();
  def.body = {
      Receive("msg1"),
      Translate("msg1", "msg2", schemas::HongkongToCdbStx()),
      XmlToRows("msg2", "msg3", staged, "order"),
      InvokeUpdate(Scenario::kCdb, "load_orders", "msg3"),
  };
  return def;
}

ProcessDefinition P09() {
  ProcessDefinition def;
  def.id = "P09";
  def.group = 'B';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Extract wrapped data from Beijing and Seoul, translate via two STX "
      "style sheets, UNION DISTINCT, load CDB";
  Schema staged = schemas::StagedOrder();
  def.body = {
      InvokeQueryXml(Scenario::kBeijing, "extract_sales", {}, "xmlB"),
      Translate("xmlB", "xmlB2", schemas::BeijingToCdbStx()),
      XmlToRows("xmlB2", "rowsB", staged, "row"),
      InvokeQueryXml(Scenario::kSeoul, "extract_sales", {}, "xmlS"),
      Translate("xmlS", "xmlS2", schemas::SeoulToCdbStx()),
      XmlToRows("xmlS2", "rowsS", staged, "row"),
      // Paper: "UNION DISTINCT concerning the Orderkey, Custkey and
      // Productkey".
      UnionDistinctOp({"rowsB", "rowsS"},
                      {"orderkey", "custkey", "prodkey"}, "merged"),
      InvokeUpdate(Scenario::kCdb, "load_orders", "merged"),
  };
  return def;
}

/// P10's invalid branch: the raw message is preserved in the failed-data
/// destination together with the validation reason.
OpPtr StageFailedMessage() {
  return Custom("stage_failed", [](ProcessContext* ctx) -> Status {
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get("msg1"));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    RowSet out;
    out.schema.AddColumn("reason", DataType::kString)
        .AddColumn("payload", DataType::kString);
    DIP_RETURN_NOT_OK(out.rows.Append({Value::String("xsd-validation-failed"),
                                       Value::String(xml::WriteXml(*doc))}));
    ctx->ChargeXmlNodes(doc->SubtreeSize());
    ctx->quality().messages_rejected++;
    ctx->Set("failed_rows", MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  });
}

ProcessDefinition P10() {
  ProcessDefinition def;
  def.id = "P10";
  def.group = 'B';
  def.event_type = EventType::kMessage;
  def.description =
      "Receive error-prone San Diego messages: validate, route failures to "
      "failed-data destinations, load the rest";
  Schema staged = schemas::StagedOrder();
  def.body = {
      Receive("msg1"),
      Validate("msg1", schemas::SanDiegoOrderXsd(),
               /*on_valid=*/
               {
                   Translate("msg1", "msg2", schemas::SanDiegoToCdbStx()),
                   XmlToRows("msg2", "msg3", staged, "order"),
                   InvokeUpdate(Scenario::kCdb, "load_orders", "msg3"),
               },
               /*on_invalid=*/
               {
                   StageFailedMessage(),
                   InvokeUpdate(Scenario::kCdb, "load_failed", "failed_rows"),
               }),
  };
  return def;
}

ProcessDefinition P11() {
  ProcessDefinition def;
  def.id = "P11";
  def.group = 'B';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Extract all data from US_Eastcoast, several projections (schema "
      "mapping), load into the global CDB";
  def.body = {
      // Movement.
      InvokeQuery(Scenario::kUsEastcoast, "extract_flat", {}, "m1"),
      Projection("m1", "m2",
                 {ProjectionItem{"orderkey",
                                 Add(Mul(Col("o_orderkey"), Lit(int64_t{100})),
                                     Col("l_linenumber")),
                                 DataType::kInt64},
                  Ren("custkey", "o_custkey"), Ren("prodkey", "l_partkey"),
                  Ren("orderdate", "o_orderdate"), Ren("quantity", "l_qty"),
                  Ren("price", "l_price"), NullStr("priority"),
                  ConstStr("source", "us_eastcoast")}),
      InvokeUpdate(Scenario::kCdb, "load_orders", "m2"),
      // Customer master (semantic priority mapping on the way).
      InvokeQuery(Scenario::kUsEastcoast, "extract_customers", {}, "c1"),
      Projection("c1", "c2",
                 {Ren("custkey", "c_custkey"), Ren("name", "c_name"),
                  Ren("city", "c_city"),
                  ProjectionItem{"priority",
                                 Func("decode",
                                      {Col("c_prio"), Lit("URGENT"),
                                       Lit("HIGH"), Lit("NORMAL"),
                                       Lit("MEDIUM"), Lit("LOW"), Lit("LOW"),
                                       Lit("MEDIUM")}),
                                 DataType::kString}}),
      InvokeUpdate(Scenario::kCdb, "load_customers", "c2"),
      // Product master.
      InvokeQuery(Scenario::kUsEastcoast, "extract_parts", {}, "p1"),
      Projection("p1", "p2",
                 {Ren("prodkey", "p_partkey"), Ren("name", "p_name"),
                  Ren("grp", "p_group")}),
      InvokeUpdate(Scenario::kCdb, "load_products", "p2"),
  };
  return def;
}

// --- Group C -------------------------------------------------------------

/// Row-level validation before a warehouse load: rows missing mandatory
/// references are counted and filtered (never loaded).
OpPtr ValidateRows(const std::string& in_var, const std::string& out_var,
                   std::vector<std::string> required_columns) {
  return Custom(
      "validate_rows",
      [in_var, out_var, required_columns](ProcessContext* ctx) -> Status {
        DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var));
        DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
        std::vector<size_t> idx;
        for (const auto& c : required_columns) {
          DIP_ASSIGN_OR_RETURN(size_t i, rows->schema.RequireIndexOf(c));
          idx.push_back(i);
        }
        RowSet out;
        out.schema = rows->schema;
        out.rows.Reset(rows->rows.width());
        out.rows.reserve(rows->rows.size());
        for (RowView r : rows->rows) {
          bool valid = true;
          for (size_t i : idx) {
            if (r[i].is_null()) {
              valid = false;
              break;
            }
          }
          if (valid) {
            DIP_RETURN_NOT_OK(out.rows.Append(r));
          } else {
            ctx->quality().validation_failures++;
          }
        }
        ctx->ChargeRows(rows->rows.size());
        ctx->Set(out_var, MtmMessage::FromRows(std::move(out)));
        return Status::OK();
      });
}

ProcessDefinition P12() {
  ProcessDefinition def;
  def.id = "P12";
  def.group = 'C';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Bulk-load DWH master data: cleanse in CDB, extract, validate, load, "
      "flag integrated";
  def.body = {
      InvokeProc(Scenario::kCdb, "sp_runMasterDataCleansing", {}),
      // Customers.
      InvokeQuery(Scenario::kCdb, "extract_clean_customers", {}, "mc1"),
      ValidateRows("mc1", "mc2", {"custkey", "name", "citykey"}),
      InvokeUpdate(Scenario::kDwh, "load_customers", "mc2"),
      // Products.
      InvokeQuery(Scenario::kCdb, "extract_clean_products", {}, "mp1"),
      ValidateRows("mp1", "mp2", {"prodkey", "name", "groupkey"}),
      InvokeUpdate(Scenario::kDwh, "load_products", "mp2"),
      // Reference dimensions travel with the master data.
      InvokeQuery(Scenario::kCdb, "all_city", {}, "d1"),
      InvokeUpdate(Scenario::kDwh, "load_city", "d1"),
      InvokeQuery(Scenario::kCdb, "all_nation", {}, "d2"),
      InvokeUpdate(Scenario::kDwh, "load_nation", "d2"),
      InvokeQuery(Scenario::kCdb, "all_region", {}, "d3"),
      InvokeUpdate(Scenario::kDwh, "load_region", "d3"),
      InvokeQuery(Scenario::kCdb, "all_productgroup", {}, "d4"),
      InvokeUpdate(Scenario::kDwh, "load_productgroup", "d4"),
      InvokeQuery(Scenario::kCdb, "all_productline", {}, "d5"),
      InvokeUpdate(Scenario::kDwh, "load_productline", "d5"),
      // Master data is flagged as integrated but not physically removed.
      InvokeProc(Scenario::kCdb, "sp_flagMasterIntegrated", {}),
  };
  return def;
}

ProcessDefinition P13() {
  ProcessDefinition def;
  def.id = "P13";
  def.group = 'C';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Bulk-load DWH movement data: cleanse, extract, validate, load, "
      "refresh OrdersMV, delete integrated movement from the CDB";
  def.body = {
      InvokeProc(Scenario::kCdb, "sp_runMovementDataCleansing", {}),
      InvokeQuery(Scenario::kCdb, "extract_clean_orders", {}, "mo1"),
      ValidateRows("mo1", "mo2", {"orderkey", "custkey", "orderdate"}),
      InvokeUpdate(Scenario::kDwh, "load_orders", "mo2"),
      // First invocation: refresh the materialized view.
      InvokeProc(Scenario::kDwh, "sp_refreshOrdersMv", {}),
      // Second invocation: remove loaded movement data for simple delta
      // determination in the following integration processes.
      InvokeProc(Scenario::kCdb, "sp_deleteIntegratedMovement", {}),
  };
  return def;
}

// --- Group D -------------------------------------------------------------

std::vector<OpPtr> MartBranch(const char* mart, const char* region,
                              bool product_denorm, bool location_denorm) {
  std::string region_orders = std::string("orders_") + region;
  std::string mapped = std::string("mapped_") + region;
  std::vector<OpPtr> load_ops = {
      InvokeUpdate(mart, "load_orders", mapped),
      InvokeUpdate(mart, "load_customers",
                   location_denorm ? "cust_denorm" : "cust_norm"),
      InvokeUpdate(mart, "load_products",
                   product_denorm ? "prod_denorm" : "prod_norm"),
  };
  if (!location_denorm) {
    load_ops.push_back(InvokeUpdate(mart, "load_city", "dim_city"));
    load_ops.push_back(InvokeUpdate(mart, "load_nation", "dim_nation"));
    load_ops.push_back(InvokeUpdate(mart, "load_region", "dim_region"));
  }
  if (!product_denorm) {
    load_ops.push_back(InvokeUpdate(mart, "load_productgroup", "dim_pg"));
    load_ops.push_back(InvokeUpdate(mart, "load_productline", "dim_pl"));
  }
  return {
      // Thread = selection operator + subprocess invocation (paper IV-D).
      Selection("all_orders", region_orders,
                Eq(Col("region"), Lit(region))),
      Projection(region_orders, mapped,
                 {Ren("orderkey", "orderkey"), Ren("custkey", "custkey"),
                  Ren("prodkey", "prodkey"), Ren("citykey", "citykey"),
                  Ren("orderdate", "orderdate"),
                  Ren("quantity", "quantity"), Ren("price", "price"),
                  Ren("priority", "priority"), Ren("source", "source")}),
      Subprocess(std::string("P14_S_") + region, std::move(load_ops)),
  };
}

ProcessDefinition P14() {
  ProcessDefinition def;
  def.id = "P14";
  def.group = 'D';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Refresh data marts: subprocess P14_S1 extracts all DWH data, three "
      "concurrent threads map and load the region marts";
  def.body = {
      Subprocess(
          "P14_S1",
          {
              InvokeQuery(Scenario::kDwh, "extract_orders_with_region", {},
                          "all_orders"),
              InvokeQuery(Scenario::kDwh, "extract_customers_denorm", {},
                          "cust_denorm"),
              InvokeQuery(Scenario::kDwh, "extract_customers_norm", {},
                          "cust_norm"),
              InvokeQuery(Scenario::kDwh, "extract_products_denorm", {},
                          "prod_denorm"),
              InvokeQuery(Scenario::kDwh, "extract_products_norm", {},
                          "prod_norm"),
              InvokeQuery(Scenario::kDwh, "all_city", {}, "dim_city"),
              InvokeQuery(Scenario::kDwh, "all_nation", {}, "dim_nation"),
              InvokeQuery(Scenario::kDwh, "all_region", {}, "dim_region"),
              InvokeQuery(Scenario::kDwh, "all_productgroup", {}, "dim_pg"),
              InvokeQuery(Scenario::kDwh, "all_productline", {}, "dim_pl"),
          }),
      Fork({
          MartBranch(Scenario::kDmEurope, "Europe", true, true),
          MartBranch(Scenario::kDmAsia, "Asia", true, false),
          MartBranch(Scenario::kDmUnitedStates, "America", false, true),
      }),
  };
  return def;
}

ProcessDefinition P15() {
  ProcessDefinition def;
  def.id = "P15";
  def.group = 'D';
  def.event_type = EventType::kTimeEvent;
  def.description =
      "Refresh the materialized views of all data marts (no dependencies -> "
      "processed in parallel)";
  def.body = {
      Fork({
          {InvokeProc(Scenario::kDmEurope, "sp_refresh_mv", {})},
          {InvokeProc(Scenario::kDmAsia, "sp_refresh_mv", {})},
          {InvokeProc(Scenario::kDmUnitedStates, "sp_refresh_mv", {})},
      }),
  };
  return def;
}

}  // namespace

std::vector<ProcessDefinition> BuildProcesses() {
  return {P01(), P02(), P03(), P04(), P05(), P06(), P07(), P08(),
          P09(), P10(), P11(), P12(), P13(), P14(), P15()};
}

Result<ProcessDefinition> BuildProcess(const std::string& id) {
  for (auto& def : BuildProcesses()) {
    if (def.id == id) return def;
  }
  return Status::NotFound("no process type " + id);
}

bool IsE1Process(const std::string& id) {
  static const std::set<std::string> kE1 = [] {
    std::set<std::string> ids;
    for (const ProcessDefinition& def : BuildProcesses()) {
      if (def.event_type == EventType::kMessage) ids.insert(def.id);
    }
    return ids;
  }();
  return kE1.count(id) > 0;
}

}  // namespace dipbench
