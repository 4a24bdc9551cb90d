#include "src/dipbench/verify.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/ra/query.h"

namespace dipbench {
namespace {

/// Total revenue of a fact table: sum(price * coalesce(quantity, 1)).
Result<double> FactRevenue(Table* orders) {
  ExecContext ec;
  DIP_ASSIGN_OR_RETURN(
      RowSet total,
      Query::From(orders)
          .Where(Not(IsNull(Col("citykey"))))
          .Select({{"rev",
                    Mul(Col("price"),
                        Func("coalesce", {Col("quantity"), Lit(int64_t{1})})),
                    DataType::kDouble}})
          .GroupBy({}, {{"revenue", AggFunc::kSum, "rev"}})
          .Run(&ec));
  if (total.rows.empty() || total.rows[0][0].is_null()) return 0.0;
  return total.rows[0][0].AsDouble();
}

Result<double> MvRevenue(Table* mv) {
  double sum = 0.0;
  mv->ForEach([&sum](RowView r) {
    if (!r[3].is_null()) sum += r[3].AsDouble();
  });
  return sum;
}

/// One walk of the fact table: NULL cells, references into the customer,
/// product and city dimensions, and (orderkey, source) uniqueness. Lookups
/// borrow the key cell, so the walk copies no rows.
Status WalkFactTable(Database* dwh, Table* orders,
                     VerificationReport* report) {
  DIP_ASSIGN_OR_RETURN(Table * customer, dwh->GetTable("customer"));
  DIP_ASSIGN_OR_RETURN(Table * product, dwh->GetTable("product"));
  DIP_ASSIGN_OR_RETURN(Table * city, dwh->GetTable("city"));
  const Schema& schema = orders->schema();
  DIP_ASSIGN_OR_RETURN(size_t c_custkey, schema.RequireIndexOf("custkey"));
  DIP_ASSIGN_OR_RETURN(size_t c_prodkey, schema.RequireIndexOf("prodkey"));
  DIP_ASSIGN_OR_RETURN(size_t c_citykey, schema.RequireIndexOf("citykey"));
  DIP_ASSIGN_OR_RETURN(size_t c_orderkey, schema.RequireIndexOf("orderkey"));
  DIP_ASSIGN_OR_RETURN(size_t c_source, schema.RequireIndexOf("source"));
  auto known = [](const Table* dim, const Value& key) {
    Result<RowView> row = dim->FindByKeyRef(RowView(&key, 1));
    return row.ok() && !row->empty();
  };

  std::vector<std::pair<int64_t, std::string>> keys;
  keys.reserve(orders->size());
  orders->ForEach([&](RowView r) {
    report->total_cells += r.size();
    for (const Value& v : r) {
      if (v.is_null()) ++report->null_cells;
    }
    if (!r[c_custkey].is_null() && !known(customer, r[c_custkey])) {
      ++report->dangling_customer_refs;
    }
    if (!r[c_prodkey].is_null() && !known(product, r[c_prodkey])) {
      ++report->dangling_product_refs;
    }
    if (r[c_citykey].is_null() || !known(city, r[c_citykey])) {
      ++report->dangling_city_refs;
    }
    if (!r[c_orderkey].is_null() && !r[c_source].is_null()) {
      keys.emplace_back(r[c_orderkey].AsInt(), r[c_source].AsString());
    }
  });
  std::sort(keys.begin(), keys.end());
  report->duplicate_fact_keys = static_cast<size_t>(
      keys.end() - std::unique(keys.begin(), keys.end()));
  return Status::OK();
}

}  // namespace

std::string VerificationReport::ToString() const {
  return StrFormat(
      "dwh_orders=%zu dwh_mv_rows=%zu mart_orders=%zu cdb_clean_leftover=%zu "
      "dirty_leftover=%zu failed=%zu dwh_revenue=%.2f mv_revenue=%.2f "
      "null_frac=%.4f dangling(cust=%zu, prod=%zu, city=%zu) dup_keys=%zu "
      "completeness=%.4f",
      dwh_orders, dwh_mv_rows, mart_orders_total, cdb_clean_leftover,
      dirty_leftover_cdb, failed_messages, dwh_revenue, mv_revenue,
      NullFraction(), dangling_customer_refs, dangling_product_refs,
      dangling_city_refs, duplicate_fact_keys, Completeness());
}

Result<VerificationReport> VerifyIntegration(Scenario* scenario,
                                             uint64_t dead_letters) {
  VerificationReport report;

  DIP_ASSIGN_OR_RETURN(Database * dwh, scenario->db("dwh_db"));
  DIP_ASSIGN_OR_RETURN(Table * dwh_orders, dwh->GetTable("orders"));
  DIP_ASSIGN_OR_RETURN(Table * dwh_mv, dwh->GetTable("orders_mv"));
  report.dwh_orders = dwh_orders->size();
  report.dwh_mv_rows = dwh_mv->size();
  if (report.dwh_orders == 0) {
    return Status::ValidationError("DWH fact table is empty after the run");
  }

  // (1) Referential integrity and key uniqueness of the fact rows.
  DIP_RETURN_NOT_OK(WalkFactTable(dwh, dwh_orders, &report));
  if (dead_letters == 0 &&
      report.dangling_customer_refs + report.dangling_product_refs +
              report.dangling_city_refs !=
          0) {
    return Status::ValidationError(StrFormat(
        "DWH fact rows name %zu unknown customers, %zu unknown products and "
        "%zu unresolved cities",
        report.dangling_customer_refs, report.dangling_product_refs,
        report.dangling_city_refs));
  }
  if (report.duplicate_fact_keys != 0) {
    return Status::ValidationError(StrFormat(
        "%zu duplicate (orderkey, source) keys in the DWH fact table",
        report.duplicate_fact_keys));
  }

  // (2) MV consistency.
  DIP_ASSIGN_OR_RETURN(report.dwh_revenue, FactRevenue(dwh_orders));
  DIP_ASSIGN_OR_RETURN(report.mv_revenue, MvRevenue(dwh_mv));
  if (std::fabs(report.dwh_revenue - report.mv_revenue) >
      1e-6 * std::max(1.0, std::fabs(report.dwh_revenue))) {
    return Status::ValidationError(
        StrFormat("OrdersMV inconsistent: fact revenue %.4f vs MV %.4f",
                  report.dwh_revenue, report.mv_revenue));
  }

  // (3) Delta semantics in the CDB: no clean row may remain; dirty rows
  // are the unrepairable leftovers.
  DIP_ASSIGN_OR_RETURN(Database * cdb, scenario->db("cdb_db"));
  DIP_ASSIGN_OR_RETURN(Table * cdb_orders, cdb->GetTable("orders"));
  cdb_orders->ForEach([&report](RowView r) {
    ++(r[9].AsBool() ? report.dirty_leftover_cdb : report.cdb_clean_leftover);
  });
  if (report.cdb_clean_leftover != 0) {
    return Status::ValidationError(
        StrFormat("%zu clean movement rows were not removed from the CDB",
                  report.cdb_clean_leftover));
  }

  DIP_ASSIGN_OR_RETURN(Table * failed, cdb->GetTable("failed_data"));
  report.failed_messages = failed->size();

  // (4) Mart partitioning: every DWH row whose city resolves to a region
  // must appear in exactly one mart.
  ExecContext ec;
  DIP_ASSIGN_OR_RETURN(
      RowSet regioned,
      Query::From(dwh_orders)
          .Join(Query::From(*dwh->GetTable("city")), {"citykey"}, {"citykey"})
          .Run(&ec));
  size_t expected_mart_rows = regioned.rows.size();

  const char* marts[] = {"dm_europe_db", "dm_asia_db", "dm_united_states_db"};
  for (const char* mart_name : marts) {
    DIP_ASSIGN_OR_RETURN(Database * mart, scenario->db(mart_name));
    DIP_ASSIGN_OR_RETURN(Table * orders, mart->GetTable("orders"));
    DIP_ASSIGN_OR_RETURN(Table * mv, mart->GetTable("orders_mv"));
    report.mart_orders_total += orders->size();
    // (5) Per-mart MV consistency.
    DIP_ASSIGN_OR_RETURN(double fact_rev, FactRevenue(orders));
    DIP_ASSIGN_OR_RETURN(double mv_rev, MvRevenue(mv));
    if (std::fabs(fact_rev - mv_rev) >
        1e-6 * std::max(1.0, std::fabs(fact_rev))) {
      return Status::ValidationError(
          StrFormat("%s MV inconsistent: %.4f vs %.4f", mart_name, fact_rev,
                    mv_rev));
    }
  }
  if (report.mart_orders_total != expected_mart_rows) {
    return Status::ValidationError(
        StrFormat("marts hold %zu order rows, expected %zu",
                  report.mart_orders_total, expected_mart_rows));
  }
  return report;
}

}  // namespace dipbench
