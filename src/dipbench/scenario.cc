#include "src/dipbench/scenario.h"

#include "src/dipbench/schemas.h"
#include "src/ra/query.h"

namespace dipbench {

const char* Scenario::kBerlin = "berlin";
const char* Scenario::kParis = "paris";
const char* Scenario::kTrondheim = "trondheim";
const char* Scenario::kBeijing = "beijing";
const char* Scenario::kSeoul = "seoul";
const char* Scenario::kHongkong = "hongkong";
const char* Scenario::kChicago = "chicago";
const char* Scenario::kBaltimore = "baltimore";
const char* Scenario::kMadison = "madison";
const char* Scenario::kUsEastcoast = "us_eastcoast";
const char* Scenario::kCdb = "cdb";
const char* Scenario::kDwh = "dwh";
const char* Scenario::kDmEurope = "dm_europe";
const char* Scenario::kDmAsia = "dm_asia";
const char* Scenario::kDmUnitedStates = "dm_united_states";

namespace {

using schemas::AsiaCustomer;
using schemas::AsiaProduct;
using schemas::AsiaSales;

/// Channel profiles. Distances are modeled loosely: regional sources are a
/// bit farther from the integration system than the central targets.
net::Channel SourceChannel(uint64_t seed) {
  return net::Channel(net::LatencyModel{3.0, 0.4, 0.0}, seed);
}
net::Channel TargetChannel(uint64_t seed) {
  return net::Channel(net::LatencyModel{1.5, 0.25, 0.0}, seed);
}

/// Query op scanning one table completely.
net::QueryOp ScanOp(const std::string& table) {
  return [table](Database* db, const std::vector<Value>&) -> Result<RowSet> {
    DIP_ASSIGN_OR_RETURN(Table * t, db->GetTable(table));
    ExecContext ec;
    return ScanTable(t)->Execute(&ec);
  };
}

/// Update op appending rows, silently skipping duplicate keys (idempotent
/// ETL loads).
net::UpdateOp InsertOp(const std::string& table) {
  return [table](Database* db, const RowSet& rows) -> Result<size_t> {
    DIP_ASSIGN_OR_RETURN(Table * t, db->GetTable(table));
    return InsertInto(t, rows);
  };
}

/// Update op replacing rows on key conflict (master-data upserts).
net::UpdateOp UpsertOp(const std::string& table) {
  return [table](Database* db, const RowSet& rows) -> Result<size_t> {
    DIP_ASSIGN_OR_RETURN(Table * t, db->GetTable(table));
    return UpsertInto(t, rows);
  };
}

}  // namespace

Database* Scenario::AddDb(const std::string& name) {
  auto db = std::make_unique<Database>(name);
  Database* ptr = db.get();
  dbs_.emplace(name, std::move(db));
  return ptr;
}

Result<Database*> Scenario::db(const std::string& name) {
  auto it = dbs_.find(name);
  if (it == dbs_.end()) return Status::NotFound("no database " + name);
  return it->second.get();
}

std::vector<std::string> Scenario::DatabaseNames() const {
  std::vector<std::string> names;
  names.reserve(dbs_.size());
  for (const auto& [name, _] : dbs_) names.push_back(name);
  return names;
}

void Scenario::UninitializeAll() {
  for (auto& [name, db] : dbs_) db->ClearAllTables();
}

Result<std::unique_ptr<Scenario>> Scenario::Create() {
  std::unique_ptr<Scenario> s(new Scenario());
  DIP_RETURN_NOT_OK(s->Build());
  return s;
}

Status Scenario::Build() {
  DIP_RETURN_NOT_OK(BuildEurope());
  DIP_RETURN_NOT_OK(BuildAsia());
  DIP_RETURN_NOT_OK(BuildAmerica());
  DIP_RETURN_NOT_OK(BuildCdb());
  DIP_RETURN_NOT_OK(BuildDwh());
  DIP_RETURN_NOT_OK(BuildDataMarts());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Region Europe: one database for Berlin+Paris, one for Trondheim. The
// `berlin` and `paris` endpoints are two doors into the shared instance.
// ---------------------------------------------------------------------------

Status Scenario::BuildEurope() {
  Database* bp = AddDb("eu_berlin_paris");
  Database* tr = AddDb("eu_trondheim");
  for (Database* db : {bp, tr}) {
    DIP_RETURN_NOT_OK(db->CreateTable("kunde", schemas::EuropeCustomer())
                          .status());
    DIP_RETURN_NOT_OK(db->CreateTable("produkt", schemas::EuropeProduct())
                          .status());
    DIP_RETURN_NOT_OK(db->CreateTable("auftrag", schemas::EuropeOrders())
                          .status());
    DIP_RETURN_NOT_OK(db->CreateTable("position", schemas::EuropeOrderline())
                          .status());
  }

  // Extraction: auftrag x position, flattened to the staged movement shape
  // (still Europe attribute names; P05-P07 rename via PROJECTION).
  auto extract_orders = [](Database* db,
                           const std::vector<Value>&) -> Result<RowSet> {
    ExecContext ec;
    return Query::From(*db->GetTable("auftrag"))
        .Join(Query::From(*db->GetTable("position")), {"anr"}, {"anr"})
        .Select({{"anr", Col("anr"), DataType::kNull},
                 {"pos", Col("pos"), DataType::kNull},
                 {"kdnr", Col("kdnr"), DataType::kNull},
                 {"pnr", Col("pnr"), DataType::kNull},
                 {"datum", Col("datum"), DataType::kNull},
                 {"menge", Col("menge"), DataType::kNull},
                 {"preis", Col("preis"), DataType::kNull},
                 {"location", Col("location"), DataType::kNull}})
        .Run(&ec);
  };

  uint64_t seed = 11;
  for (const auto& [ep_name, db] :
       std::vector<std::pair<std::string, Database*>>{
           {kBerlin, bp}, {kParis, bp}, {kTrondheim, tr}}) {
    auto ep = std::make_unique<net::DatabaseEndpoint>(
        ep_name, db, SourceChannel(seed++), /*per_row_ms=*/0.03);
    DIP_RETURN_NOT_OK(ep->RegisterQuery("extract_orders", extract_orders));
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_kunden", ScanOp("kunde")));
    DIP_RETURN_NOT_OK(ep->RegisterUpdate("upsert_kunde", UpsertOp("kunde")));
    DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Region Asia: three Web services, each managing its master data locally.
// ---------------------------------------------------------------------------

Status Scenario::BuildAsia() {
  uint64_t seed = 21;
  for (const char* name : {kBeijing, kSeoul, kHongkong}) {
    Database* db = AddDb(std::string("asia_") + name);
    DIP_RETURN_NOT_OK(db->CreateTable("customer", AsiaCustomer()).status());
    DIP_RETURN_NOT_OK(db->CreateTable("product", AsiaProduct()).status());
    DIP_RETURN_NOT_OK(db->CreateTable("sales", AsiaSales()).status());

    auto ep = std::make_unique<net::WebServiceEndpoint>(
        name, db, SourceChannel(seed++), /*per_row_ms=*/0.05,
        /*per_node_ms=*/0.02);
    // Extraction joins sales with local master data so the generic result
    // set carries the priority flags that need semantic mapping.
    DIP_RETURN_NOT_OK(ep->RegisterQuery(
        "extract_sales",
        [](Database* db2, const std::vector<Value>&) -> Result<RowSet> {
          ExecContext ec;
          return Query::From(*db2->GetTable("sales"))
              .Join(Query::From(*db2->GetTable("customer")), {"custkey"},
                    {"custkey"})
              .Select({{"orderkey", Col("orderkey"), DataType::kNull},
                       {"custkey", Col("custkey"), DataType::kNull},
                       {"prodkey", Col("prodkey"), DataType::kNull},
                       {"qty", Col("qty"), DataType::kNull},
                       {"price", Col("price"), DataType::kNull},
                       {"odate", Col("odate"), DataType::kNull},
                       {"priority", Col("priority"), DataType::kNull}})
              .Run(&ec);
        }));
    DIP_RETURN_NOT_OK(
        ep->RegisterQuery("all_customers", ScanOp("customer")));
    DIP_RETURN_NOT_OK(
        ep->RegisterUpdate("upsert_customer", UpsertOp("customer")));
    DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Region America: three TPC-H-style sources plus the local consolidated
// database US_Eastcoast (two-phase consolidation).
// ---------------------------------------------------------------------------

Status Scenario::BuildAmerica() {
  uint64_t seed = 31;
  auto make_tpch_tables = [](Database* db) -> Status {
    DIP_RETURN_NOT_OK(db->CreateTable("customer", schemas::TpchCustomer())
                          .status());
    DIP_RETURN_NOT_OK(db->CreateTable("part", schemas::TpchPart()).status());
    DIP_RETURN_NOT_OK(db->CreateTable("orders", schemas::TpchOrders())
                          .status());
    DIP_RETURN_NOT_OK(db->CreateTable("lineitem", schemas::TpchLineitem())
                          .status());
    return Status::OK();
  };

  for (const char* name : {kChicago, kBaltimore, kMadison}) {
    Database* db = AddDb(std::string("us_") + name);
    DIP_RETURN_NOT_OK(make_tpch_tables(db));
    auto ep = std::make_unique<net::DatabaseEndpoint>(
        name, db, SourceChannel(seed++), /*per_row_ms=*/0.03);
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_orders", ScanOp("orders")));
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_customers", ScanOp("customer")));
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_parts", ScanOp("part")));
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_lineitems", ScanOp("lineitem")));
    DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  }

  Database* ec_db = AddDb("us_eastcoast_db");
  DIP_RETURN_NOT_OK(make_tpch_tables(ec_db));
  auto ep = std::make_unique<net::DatabaseEndpoint>(
      kUsEastcoast, ec_db, SourceChannel(seed++), /*per_row_ms=*/0.03);
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_orders", InsertOp("orders")));
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_customers",
                                       InsertOp("customer")));
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_parts", InsertOp("part")));
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_lineitems",
                                       InsertOp("lineitem")));
  // P11 extraction: flattened movement plus master snapshots.
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_flat",
      [](Database* db, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*db->GetTable("orders"))
            .Join(Query::From(*db->GetTable("lineitem")), {"o_orderkey"},
                  {"l_orderkey"})
            .Select({{"o_orderkey", Col("o_orderkey"), DataType::kNull},
                     {"l_linenumber", Col("l_linenumber"), DataType::kNull},
                     {"o_custkey", Col("o_custkey"), DataType::kNull},
                     {"l_partkey", Col("l_partkey"), DataType::kNull},
                     {"o_orderdate", Col("o_orderdate"), DataType::kNull},
                     {"l_qty", Col("l_qty"), DataType::kNull},
                     {"l_price", Col("l_price"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(ep->RegisterQuery("extract_customers",
                                      ScanOp("customer")));
  DIP_RETURN_NOT_OK(ep->RegisterQuery("extract_parts", ScanOp("part")));
  DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The consolidated database ("Sales_Cleaning"): staging area with cleansing
// procedures and the failed-data destinations of P10.
// ---------------------------------------------------------------------------

Status Scenario::BuildCdb() {
  Database* db = AddDb("cdb_db");
  DIP_RETURN_NOT_OK(db->CreateTable("customer", schemas::CdbCustomer())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("product", schemas::CdbProduct())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("productgroup", schemas::ProductGroup())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("productline", schemas::ProductLine())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("city", schemas::City()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("nation", schemas::Nation()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("region", schemas::Region()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("orders", schemas::CdbOrders()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("failed_data", schemas::FailedData())
                        .status());
  DIP_RETURN_NOT_OK((*db->GetTable("city"))->CreateIndex("by_name", {"name"}));

  // --- stored procedures (P12/P13 cleansing + housekeeping) ---

  // Repairs error-prone master data: empty names, unknown priorities.
  DIP_RETURN_NOT_OK(db->RegisterProcedure(
      "sp_runMasterDataCleansing",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        DIP_RETURN_NOT_OK(
            cust->UpdateWhere(
                    [](RowView r) { return r[4].AsBool(); /* dirty */ },
                    [](MutableRowView r) {
                      if (r[1].is_null() || r[1].AsString().empty()) {
                        r[1] = Value::String("UNKNOWN");
                      }
                      std::string_view p =
                          r[3].is_null() ? "" : r[3].AsString();
                      if (p != "HIGH" && p != "MEDIUM" && p != "LOW") {
                        r[3] = Value::String("MEDIUM");
                      }
                      r[4] = Value::Bool(false);
                    })
                .status());
        DIP_ASSIGN_OR_RETURN(Table * prod, d->GetTable("product"));
        DIP_RETURN_NOT_OK(
            prod->UpdateWhere(
                    [](RowView r) { return r[3].AsBool(); /* dirty */ },
                    [](MutableRowView r) {
                      if (r[1].is_null() || r[1].AsString().empty()) {
                        r[1] = Value::String("UNKNOWN");
                      }
                      r[3] = Value::Bool(false);
                    })
                .status());
        return Status::OK();
      }));

  // Repairs movement data: non-positive quantities, negative prices;
  // unresolvable rows stay dirty and are never loaded.
  DIP_RETURN_NOT_OK(db->RegisterProcedure(
      "sp_runMovementDataCleansing",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        DIP_RETURN_NOT_OK(
            orders->UpdateWhere(
                      [](RowView r) {
                        return r[9].AsBool() && !r[1].is_null() &&
                               !r[3].is_null();
                      },
                      [](MutableRowView r) {
                        if (r[5].is_null() || r[5].AsInt() <= 0) {
                          r[5] = Value::Int(1);
                        }
                        if (r[6].is_null() || r[6].AsDouble() < 0) {
                          r[6] = Value::Double(0.0);
                        }
                        std::string_view p =
                            r[7].is_null() ? "" : r[7].AsString();
                        if (p != "HIGH" && p != "MEDIUM" && p != "LOW") {
                          r[7] = Value::String("MEDIUM");
                        }
                        r[9] = Value::Bool(false);
                      })
                .status());
        return Status::OK();
      }));

  // Flags loaded master data as integrated (not physically removed — P12).
  DIP_RETURN_NOT_OK(db->RegisterProcedure(
      "sp_flagMasterIntegrated",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        DIP_RETURN_NOT_OK(cust->UpdateWhere(
                                  [](RowView r) { return !r[4].AsBool(); },
                                  [](MutableRowView r) {
                                    r[5] = Value::Bool(true);
                                  })
                              .status());
        DIP_ASSIGN_OR_RETURN(Table * prod, d->GetTable("product"));
        return prod
            ->UpdateWhere([](RowView r) { return !r[3].AsBool(); },
                          [](MutableRowView r) { r[4] = Value::Bool(true); })
            .status();
      }));

  // Removes loaded movement data for simple delta determination (P13).
  DIP_RETURN_NOT_OK(db->RegisterProcedure(
      "sp_deleteIntegratedMovement",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        orders->DeleteWhere([](RowView r) { return !r[9].AsBool(); });
        return Status::OK();
      }));

  auto ep = std::make_unique<net::DatabaseEndpoint>(
      kCdb, db, TargetChannel(41), /*per_row_ms=*/0.02);

  // Loading staged orders: resolve the customer's citykey against the
  // consolidated master data; rows that do not resolve or carry obviously
  // broken values are marked dirty for the cleansing procedures.
  DIP_RETURN_NOT_OK(ep->RegisterUpdate(
      "load_orders",
      [](Database* d, const RowSet& rows) -> Result<size_t> {
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        const Schema& in = rows.schema;
        DIP_ASSIGN_OR_RETURN(size_t c_orderkey, in.RequireIndexOf("orderkey"));
        DIP_ASSIGN_OR_RETURN(size_t c_custkey, in.RequireIndexOf("custkey"));
        DIP_ASSIGN_OR_RETURN(size_t c_prodkey, in.RequireIndexOf("prodkey"));
        DIP_ASSIGN_OR_RETURN(size_t c_date, in.RequireIndexOf("orderdate"));
        DIP_ASSIGN_OR_RETURN(size_t c_qty, in.RequireIndexOf("quantity"));
        DIP_ASSIGN_OR_RETURN(size_t c_price, in.RequireIndexOf("price"));
        DIP_ASSIGN_OR_RETURN(size_t c_source, in.RequireIndexOf("source"));
        auto c_prio = in.IndexOf("priority");
        size_t written = 0;
        for (RowView r : rows.rows) {
          if (r[c_orderkey].is_null() || r[c_source].is_null()) continue;
          Value citykey = Value::Null();
          bool dirty = false;
          if (!r[c_custkey].is_null()) {
            Result<RowView> found = cust->FindByKeyRef({&r[c_custkey], 1});
            if (found.ok() && !found->empty()) {
              citykey = (*found)[2];
            } else {
              dirty = true;  // unknown customer
            }
          } else {
            dirty = true;
          }
          Value prio = c_prio.has_value() ? r[*c_prio] : Value::Null();
          if (!prio.is_null() && prio.AsString() != "HIGH" &&
              prio.AsString() != "MEDIUM" && prio.AsString() != "LOW") {
            dirty = true;
          }
          if (r[c_qty].is_null() || r[c_qty].AsInt() <= 0) dirty = true;
          if (!r[c_price].is_null() && r[c_price].AsDouble() < 0) dirty = true;
          Status st = orders->Insert({r[c_orderkey], r[c_custkey],
                                      r[c_prodkey], citykey, r[c_date],
                                      r[c_qty], r[c_price], prio, r[c_source],
                                      Value::Bool(dirty)});
          if (st.ok()) {
            ++written;
          } else if (st.code() != StatusCode::kAlreadyExists) {
            return st;
          }
        }
        return written;
      }));

  // Master-data loads from P11 (staged shapes with textual city / group).
  DIP_RETURN_NOT_OK(ep->RegisterUpdate(
      "load_customers",
      [](Database* d, const RowSet& rows) -> Result<size_t> {
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        DIP_ASSIGN_OR_RETURN(Table * city, d->GetTable("city"));
        const Schema& in = rows.schema;
        DIP_ASSIGN_OR_RETURN(size_t c_key, in.RequireIndexOf("custkey"));
        DIP_ASSIGN_OR_RETURN(size_t c_name, in.RequireIndexOf("name"));
        DIP_ASSIGN_OR_RETURN(size_t c_city, in.RequireIndexOf("city"));
        DIP_ASSIGN_OR_RETURN(size_t c_prio, in.RequireIndexOf("priority"));
        size_t written = 0;
        for (RowView r : rows.rows) {
          if (r[c_key].is_null()) continue;
          Value citykey = Value::Null();
          bool dirty = false;
          if (!r[c_city].is_null()) {
            bool found = false;
            Status st = city->LookupIndex(
                "by_name", {&r[c_city], 1}, [&](RowView hit) {
                  if (!found) citykey = hit[0];
                  found = true;
                });
            dirty = !st.ok() || !found;
          } else {
            dirty = true;
          }
          if (r[c_name].is_null() || r[c_name].AsString().empty()) {
            dirty = true;
          }
          Value prio = r[c_prio];
          if (prio.is_null() ||
              (prio.AsString() != "HIGH" && prio.AsString() != "MEDIUM" &&
               prio.AsString() != "LOW")) {
            dirty = true;
          }
          DIP_RETURN_NOT_OK(cust->InsertOrReplace(
              {r[c_key], r[c_name], citykey, prio, Value::Bool(dirty),
               Value::Bool(false)}));
          ++written;
        }
        return written;
      }));

  DIP_RETURN_NOT_OK(ep->RegisterUpdate(
      "load_products",
      [](Database* d, const RowSet& rows) -> Result<size_t> {
        DIP_ASSIGN_OR_RETURN(Table * prod, d->GetTable("product"));
        DIP_ASSIGN_OR_RETURN(Table * groups, d->GetTable("productgroup"));
        const Schema& in = rows.schema;
        DIP_ASSIGN_OR_RETURN(size_t c_key, in.RequireIndexOf("prodkey"));
        DIP_ASSIGN_OR_RETURN(size_t c_name, in.RequireIndexOf("name"));
        DIP_ASSIGN_OR_RETURN(size_t c_grp, in.RequireIndexOf("grp"));
        // Group resolution by name scan (small dimension).
        size_t written = 0;
        for (RowView r : rows.rows) {
          if (r[c_key].is_null()) continue;
          Value groupkey = Value::Null();
          bool dirty = false;
          if (!r[c_grp].is_null()) {
            groups->ForEach([&](RowView g) {
              if (!g[1].is_null() && g[1].AsString() == r[c_grp].AsString()) {
                groupkey = g[0];
              }
            });
          }
          if (groupkey.is_null()) dirty = true;
          if (r[c_name].is_null() || r[c_name].AsString().empty()) {
            dirty = true;
          }
          DIP_RETURN_NOT_OK(prod->InsertOrReplace(
              {r[c_key], r[c_name], groupkey, Value::Bool(dirty),
               Value::Bool(false)}));
          ++written;
        }
        return written;
      }));

  // P10's failed-data destination.
  DIP_RETURN_NOT_OK(ep->RegisterUpdate(
      "load_failed",
      [](Database* d, const RowSet& rows) -> Result<size_t> {
        DIP_ASSIGN_OR_RETURN(Table * failed, d->GetTable("failed_data"));
        size_t written = 0;
        for (RowView r : rows.rows) {
          int64_t id = d->NextSequenceValue("failed_id");
          DIP_RETURN_NOT_OK(failed->Insert({Value::Int(id), r[0], r[1]}));
          ++written;
        }
        return written;
      }));

  // P04 enrichment lookup.
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "lookup_customer",
      [](Database* d, const std::vector<Value>& params) -> Result<RowSet> {
        if (params.size() != 1) {
          return Status::InvalidArgument("lookup_customer needs custkey");
        }
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        RowSet out;
        out.schema = cust->schema();
        Result<RowView> found = cust->FindByKeyRef(params);
        if (found.ok() && !found->empty()) {
          DIP_RETURN_NOT_OK(out.rows.Append(*found));
        }
        return out;
      }));

  // P12/P13 extraction of clean, not-yet-integrated data.
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_clean_customers",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("customer"))
            .Where(And(Eq(Col("dirty"), Lit(Value::Bool(false))),
                       Eq(Col("integrated"), Lit(Value::Bool(false)))))
            .Select({{"custkey", Col("custkey"), DataType::kNull},
                     {"name", Col("name"), DataType::kNull},
                     {"citykey", Col("citykey"), DataType::kNull},
                     {"priority", Col("priority"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_clean_products",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("product"))
            .Where(And(Eq(Col("dirty"), Lit(Value::Bool(false))),
                       Eq(Col("integrated"), Lit(Value::Bool(false)))))
            .Select({{"prodkey", Col("prodkey"), DataType::kNull},
                     {"name", Col("name"), DataType::kNull},
                     {"groupkey", Col("groupkey"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_clean_orders",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("orders"))
            .Where(Eq(Col("dirty"), Lit(Value::Bool(false))))
            .Select({{"orderkey", Col("orderkey"), DataType::kNull},
                     {"custkey", Col("custkey"), DataType::kNull},
                     {"prodkey", Col("prodkey"), DataType::kNull},
                     {"citykey", Col("citykey"), DataType::kNull},
                     {"orderdate", Col("orderdate"), DataType::kNull},
                     {"quantity", Col("quantity"), DataType::kNull},
                     {"price", Col("price"), DataType::kNull},
                     {"priority", Col("priority"), DataType::kNull},
                     {"source", Col("source"), DataType::kNull}})
            .Run(&ec);
      }));
  // Reference-dimension replication into the DWH (location + product tree).
  for (const char* t :
       {"city", "nation", "region", "productgroup", "productline"}) {
    DIP_RETURN_NOT_OK(ep->RegisterQuery(std::string("all_") + t, ScanOp(t)));
  }
  DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The data warehouse: snowflake schema plus the OrdersMV materialized view.
// ---------------------------------------------------------------------------

Status Scenario::BuildDwh() {
  Database* db = AddDb("dwh_db");
  DIP_RETURN_NOT_OK(db->CreateTable("customer", schemas::DwhCustomer())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("product", schemas::DwhProduct())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("productgroup", schemas::ProductGroup())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("productline", schemas::ProductLine())
                        .status());
  DIP_RETURN_NOT_OK(db->CreateTable("city", schemas::City()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("nation", schemas::Nation()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("region", schemas::Region()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("orders", schemas::DwhOrders()).status());
  DIP_RETURN_NOT_OK(db->CreateTable("orders_mv", schemas::OrdersMv())
                        .status());

  // MV refresh: full recomputation of the month x city revenue cube.
  DIP_RETURN_NOT_OK(db->RegisterProcedure(
      "sp_refreshOrdersMv",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * mv, d->GetTable("orders_mv"));
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        mv->Clear();
        ExecContext ec;
        DIP_ASSIGN_OR_RETURN(
            RowSet cube,
            Query::From(orders)
                .Where(Not(IsNull(Col("citykey"))))
                .Select({{"year", Func("year", {Col("orderdate")}),
                          DataType::kInt64},
                         {"month", Func("month", {Col("orderdate")}),
                          DataType::kInt64},
                         {"citykey", Col("citykey"), DataType::kInt64},
                         {"rev", Mul(Col("price"),
                                     Func("coalesce", {Col("quantity"),
                                                       Lit(int64_t{1})})),
                          DataType::kDouble}})
                .GroupBy({"year", "month", "citykey"},
                         {{"revenue", AggFunc::kSum, "rev"},
                          {"order_count", AggFunc::kCount, ""}})
                .Run(&ec));
        for (MutableRowView row : cube.rows) {
          // SUM over ints may come back integral; the MV column is DOUBLE.
          DIP_ASSIGN_OR_RETURN(Value rev, row[3].CastTo(DataType::kDouble));
          row[3] = rev;
          DIP_RETURN_NOT_OK(mv->Insert(row));
        }
        return Status::OK();
      }));

  auto ep = std::make_unique<net::DatabaseEndpoint>(
      kDwh, db, TargetChannel(51), /*per_row_ms=*/0.02);
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_customers",
                                       UpsertOp("customer")));
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_products", UpsertOp("product")));
  DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_orders", InsertOp("orders")));
  for (const char* t :
       {"city", "nation", "region", "productgroup", "productline"}) {
    DIP_RETURN_NOT_OK(
        ep->RegisterUpdate(std::string("load_") + t, UpsertOp(t)));
  }

  // P14 extraction: movement with the region name attached (partitioning
  // criterion for the location-partitioned marts).
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_orders_with_region",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("orders"))
            .Join(Query::From(*d->GetTable("city")), {"citykey"}, {"citykey"})
            .Join(Query::From(*d->GetTable("nation")), {"nationkey"},
                  {"nationkey"})
            .Join(Query::From(*d->GetTable("region")), {"regionkey"},
                  {"regionkey"})
            .Select({{"orderkey", Col("orderkey"), DataType::kNull},
                     {"custkey", Col("custkey"), DataType::kNull},
                     {"prodkey", Col("prodkey"), DataType::kNull},
                     {"citykey", Col("citykey"), DataType::kNull},
                     {"orderdate", Col("orderdate"), DataType::kNull},
                     {"quantity", Col("quantity"), DataType::kNull},
                     {"price", Col("price"), DataType::kNull},
                     {"priority", Col("priority"), DataType::kNull},
                     {"source", Col("source"), DataType::kNull},
                     // orders has no `name`; city.name stays `name`,
                     // nation.name becomes `r_name`, region.name `r_r_name`.
                     {"region", Col("r_r_name"), DataType::kNull}})
            .Run(&ec);
      }));

  // Denormalized master extracts for the mart schema mappings.
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_customers_denorm",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("customer"))
            .Join(Query::From(*d->GetTable("city")), {"citykey"}, {"citykey"})
            .Join(Query::From(*d->GetTable("nation")), {"nationkey"},
                  {"nationkey"})
            .Join(Query::From(*d->GetTable("region")), {"regionkey"},
                  {"regionkey"})
            .Select({{"custkey", Col("custkey"), DataType::kNull},
                     {"name", Col("name"), DataType::kNull},
                     {"city", Col("r_name"), DataType::kNull},  // city.name
                     {"nation", Col("r_r_name"), DataType::kNull},
                     {"region", Col("r_r_r_name"), DataType::kNull},
                     {"priority", Col("priority"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(ep->RegisterQuery(
      "extract_products_denorm",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        ExecContext ec;
        return Query::From(*d->GetTable("product"))
            .Join(Query::From(*d->GetTable("productgroup")), {"groupkey"},
                  {"groupkey"})
            .Join(Query::From(*d->GetTable("productline")), {"linekey"},
                  {"linekey"})
            .Select({{"prodkey", Col("prodkey"), DataType::kNull},
                     {"name", Col("name"), DataType::kNull},
                     {"grp", Col("r_name"), DataType::kNull},
                     {"line", Col("r_r_name"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(ep->RegisterQuery("extract_customers_norm",
                                      ScanOp("customer")));
  DIP_RETURN_NOT_OK(ep->RegisterQuery("extract_products_norm",
                                      ScanOp("product")));
  for (const char* t :
       {"city", "nation", "region", "productgroup", "productline"}) {
    DIP_RETURN_NOT_OK(ep->RegisterQuery(std::string("all_") + t, ScanOp(t)));
  }
  DIP_RETURN_NOT_OK(ep->RegisterQuery("all_orders", ScanOp("orders")));
  DIP_RETURN_NOT_OK(
      ep->RegisterQuery("all_orders_mv", ScanOp("orders_mv")));
  DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Data marts: per-mart denormalization (paper Section III-B).
//   dm_europe         — product AND location denormalized.
//   dm_asia           — product denormalized, location normalized.
//   dm_united_states  — location denormalized, product normalized.
// ---------------------------------------------------------------------------

Status Scenario::BuildDataMarts() {
  struct MartSpec {
    const char* name;
    bool product_denorm;
    bool location_denorm;
  };
  const MartSpec marts[] = {{kDmEurope, true, true},
                            {kDmAsia, true, false},
                            {kDmUnitedStates, false, true}};
  uint64_t seed = 61;
  for (const MartSpec& mart : marts) {
    Database* db = AddDb(std::string(mart.name) + "_db");
    DIP_RETURN_NOT_OK(db->CreateTable("orders", schemas::DmOrders()).status());
    DIP_RETURN_NOT_OK(db->CreateTable("orders_mv", schemas::OrdersMv())
                          .status());
    if (mart.product_denorm) {
      DIP_RETURN_NOT_OK(db->CreateTable("product", schemas::DmProductDenorm())
                            .status());
    } else {
      DIP_RETURN_NOT_OK(db->CreateTable("product", schemas::DwhProduct())
                            .status());
      DIP_RETURN_NOT_OK(
          db->CreateTable("productgroup", schemas::ProductGroup()).status());
      DIP_RETURN_NOT_OK(
          db->CreateTable("productline", schemas::ProductLine()).status());
    }
    if (mart.location_denorm) {
      DIP_RETURN_NOT_OK(
          db->CreateTable("customer", schemas::DmCustomerDenorm()).status());
    } else {
      DIP_RETURN_NOT_OK(db->CreateTable("customer", schemas::DwhCustomer())
                            .status());
      DIP_RETURN_NOT_OK(db->CreateTable("city", schemas::City()).status());
      DIP_RETURN_NOT_OK(db->CreateTable("nation", schemas::Nation()).status());
      DIP_RETURN_NOT_OK(db->CreateTable("region", schemas::Region()).status());
    }

    DIP_RETURN_NOT_OK(db->RegisterProcedure(
        "sp_refresh_mv",
        [](Database* d, const std::vector<Value>&) -> Status {
          DIP_ASSIGN_OR_RETURN(Table * mv, d->GetTable("orders_mv"));
          DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
          mv->Clear();
          ExecContext ec;
          DIP_ASSIGN_OR_RETURN(
              RowSet cube,
              Query::From(orders)
                  .Where(Not(IsNull(Col("citykey"))))
                  .Select({{"year", Func("year", {Col("orderdate")}),
                            DataType::kInt64},
                           {"month", Func("month", {Col("orderdate")}),
                            DataType::kInt64},
                           {"citykey", Col("citykey"), DataType::kInt64},
                           {"rev", Mul(Col("price"),
                                       Func("coalesce", {Col("quantity"),
                                                         Lit(int64_t{1})})),
                            DataType::kDouble}})
                  .GroupBy({"year", "month", "citykey"},
                           {{"revenue", AggFunc::kSum, "rev"},
                            {"order_count", AggFunc::kCount, ""}})
                  .Run(&ec));
          for (MutableRowView row : cube.rows) {
            DIP_ASSIGN_OR_RETURN(Value rev, row[3].CastTo(DataType::kDouble));
            row[3] = rev;
            DIP_RETURN_NOT_OK(mv->Insert(row));
          }
          return Status::OK();
        }));

    auto ep = std::make_unique<net::DatabaseEndpoint>(
        mart.name, db, TargetChannel(seed++), /*per_row_ms=*/0.02);
    DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_orders", InsertOp("orders")));
    DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_customers",
                                         UpsertOp("customer")));
    DIP_RETURN_NOT_OK(ep->RegisterUpdate("load_products",
                                         UpsertOp("product")));
    if (!mart.location_denorm) {
      for (const char* t : {"city", "nation", "region"}) {
        DIP_RETURN_NOT_OK(
            ep->RegisterUpdate(std::string("load_") + t, UpsertOp(t)));
      }
    }
    if (!mart.product_denorm) {
      for (const char* t : {"productgroup", "productline"}) {
        DIP_RETURN_NOT_OK(
            ep->RegisterUpdate(std::string("load_") + t, UpsertOp(t)));
      }
    }
    DIP_RETURN_NOT_OK(ep->RegisterQuery("all_orders", ScanOp("orders")));
    DIP_RETURN_NOT_OK(
        ep->RegisterQuery("all_orders_mv", ScanOp("orders_mv")));
    DIP_RETURN_NOT_OK(network_.AddEndpoint(std::move(ep)));
  }
  return Status::OK();
}

}  // namespace dipbench
