#include "src/ivm/ivm.h"

#include <utility>
#include <vector>

#include "src/net/fault.h"
#include "src/ra/query.h"
#include "src/storage/changelog.h"

namespace dipbench {
namespace ivm {

const char* const kDimCursor = "dwh";
const char* const kMvCursor = "mv";
const char* const kMartCursor = "mart";

namespace {

/// The five CDB reference dimensions replicated into the DWH by P12.
const char* const kCdbDims[] = {"city", "nation", "region", "productgroup",
                                "productline"};

/// Advances `cursor` over the table's change log to its current end,
/// stamped with the engine's instance tag + attempt (the at-most-once
/// ledger key). Outside any engine attempt (direct calls in tests) the
/// stamp is {0, 0}.
Status AdvanceToEnd(Table* table, const std::string& cursor) {
  storage::ChangeLog* log = table->changelog();
  if (log == nullptr) {
    return Status::Internal("change capture not enabled on " + table->name());
  }
  uint64_t tag = 0;
  int attempt = 0;
  if (net::FaultCallScope* scope = net::FaultCallScope::Current()) {
    tag = scope->instance_tag();
    attempt = scope->attempt();
  }
  return log->AdvanceCursor(cursor, log->CursorPos(cursor), log->size(), tag,
                            attempt);
}

/// The unconsumed change-log suffix of `table` behind `cursor`, as a
/// RowSet in log (= commit) order. `inserts_only` rejects update entries:
/// the orders tables are insert-only, and folding an update as if it were
/// an insert would silently double-count revenue.
Result<RowSet> DeltaRows(Table* table, const std::string& cursor,
                         bool inserts_only) {
  const storage::ChangeLog* log = table->changelog();
  if (log == nullptr) {
    return Status::Internal("change capture not enabled on " + table->name());
  }
  RowSet out;
  out.schema = table->schema();
  const size_t from = log->CursorPos(cursor);
  const auto& entries = log->entries();
  for (size_t i = from; i < entries.size(); ++i) {
    const storage::ChangeEntry& e = entries[i];
    if (e.op == storage::ChangeEntry::Op::kDelete ||
        (inserts_only && e.op != storage::ChangeEntry::Op::kInsert)) {
      return Status::Internal("unexpected " +
                              std::string(storage::ChangeOpName(e.op)) +
                              " entry in " + table->name() + " change log");
    }
    out.rows.push_back(e.row);
  }
  return out;
}

/// Incrementally maintains an OrdersMv table from the unconsumed change-log
/// suffix of the sibling orders table, then advances `cursor`.
///
/// Each delta row runs through the SAME projection pipeline as the full
/// recompute (sp_refreshOrdersMv) minus the GroupBy, and is folded into the
/// existing group row with the aggregate's own arithmetic: SUM starts at
/// 0.0, skips NULLs, accumulates in arrival order (AggGroupState in
/// src/ra/plan.cc). Because the orders tables are insert-only and the log
/// preserves commit order, the incremental fold reproduces the full
/// recompute's double-summation order exactly — the MV stays byte-identical
/// under the conformance digests, not just numerically close.
Status FoldOrdersMvDelta(Database* d) {
  DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
  DIP_ASSIGN_OR_RETURN(Table * mv, d->GetTable("orders_mv"));
  DIP_ASSIGN_OR_RETURN(RowSet delta,
                       DeltaRows(orders, kMvCursor, /*inserts_only=*/true));
  if (delta.rows.empty()) return AdvanceToEnd(orders, kMvCursor);
  ExecContext ec;
  DIP_ASSIGN_OR_RETURN(
      RowSet contrib,
      Query::From(std::move(delta))
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
          .Run(&ec));
  for (const Row& c : contrib.rows) {
    const Value& rev = c[3];
    DIP_ASSIGN_OR_RETURN(const Row* group,
                         mv->FindByKeyRef(std::span(c.data(), 3)));
    if (group == nullptr) {
      // New group: SUM of one row (NULL input -> NULL sum), COUNT(*) = 1.
      Value revenue =
          rev.is_null() ? Value::Null() : Value::Double(0.0 + rev.AsDouble());
      DIP_RETURN_NOT_OK(
          mv->Insert({c[0], c[1], c[2], revenue, Value::Int(1)}));
      continue;
    }
    // Read the group before the upsert below moves the table's rows.
    Value revenue = (*group)[3];
    const int64_t count = (*group)[4].AsInt() + 1;
    if (!rev.is_null()) {
      double acc = revenue.is_null() ? 0.0 : revenue.AsDouble();
      revenue = Value::Double(acc + rev.AsDouble());
    }
    DIP_RETURN_NOT_OK(mv->InsertOrReplace(
        {c[0], c[1], c[2], revenue, Value::Int(count)}));
  }
  return AdvanceToEnd(orders, kMvCursor);
}

}  // namespace

Status InstallIncrementalMaintenance(Scenario* scenario) {
  DIP_ASSIGN_OR_RETURN(Database * cdb, scenario->db("cdb_db"));
  DIP_ASSIGN_OR_RETURN(Database * dwh, scenario->db("dwh_db"));
  // Idempotence guard: a second Client::Run on the same scenario (or the
  // harness re-using one landscape) must not re-register anything.
  if (dwh->HasProcedure("sp_refreshOrdersMvIncremental")) return Status::OK();

  // --- change capture ---
  for (const char* dim : kCdbDims) {
    DIP_ASSIGN_OR_RETURN(Table * t, cdb->GetTable(dim));
    t->EnableChangeCapture();
  }
  DIP_ASSIGN_OR_RETURN(Table * dwh_orders, dwh->GetTable("orders"));
  dwh_orders->EnableChangeCapture();
  for (const char* mart : {Scenario::kDmEurope, Scenario::kDmAsia,
                           Scenario::kDmUnitedStates}) {
    DIP_ASSIGN_OR_RETURN(Database * mdb,
                         scenario->db(std::string(mart) + "_db"));
    DIP_ASSIGN_OR_RETURN(Table * t, mdb->GetTable("orders"));
    t->EnableChangeCapture();
  }

  // --- P12: dimension delta extraction + flag/advance procedure ---
  DIP_ASSIGN_OR_RETURN(net::Endpoint * cdb_ep,
                       scenario->network()->Get(Scenario::kCdb));
  for (const char* dim : kCdbDims) {
    DIP_RETURN_NOT_OK(cdb_ep->RegisterQuery(
        std::string("delta_") + dim,
        [dim = std::string(dim)](Database* d,
                                 const std::vector<Value>&) -> Result<RowSet> {
          DIP_ASSIGN_OR_RETURN(Table * t, d->GetTable(dim));
          // Dimensions are upserted, so update entries are legal: the DWH
          // load applies them in log order, last wins.
          return DeltaRows(t, kDimCursor, /*inserts_only=*/false);
        }));
  }
  DIP_RETURN_NOT_OK(cdb->RegisterProcedure(
      "sp_flagMasterIntegratedDelta",
      [](Database* d, const std::vector<Value>&) -> Status {
        // Same flagging as sp_flagMasterIntegrated (the customer/product
        // deltas ride on the integrated flag, not on a change log) ...
        DIP_ASSIGN_OR_RETURN(Table * cust, d->GetTable("customer"));
        DIP_RETURN_NOT_OK(cust->UpdateWhere(
                                  [](const Row& r) { return !r[4].AsBool(); },
                                  [](Row* r) {
                                    (*r)[5] = Value::Bool(true);
                                  })
                              .status());
        DIP_ASSIGN_OR_RETURN(Table * prod, d->GetTable("product"));
        DIP_RETURN_NOT_OK(
            prod->UpdateWhere([](const Row& r) { return !r[3].AsBool(); },
                              [](Row* r) { (*r)[4] = Value::Bool(true); })
                .status());
        // ... plus consuming the dimension deltas the extraction saw. P12
        // holds the CDB exclusively and never writes the dimensions, so the
        // log end here equals the log end at extraction time.
        for (const char* dim : kCdbDims) {
          DIP_ASSIGN_OR_RETURN(Table * t, d->GetTable(dim));
          DIP_RETURN_NOT_OK(AdvanceToEnd(t, kDimCursor));
        }
        return Status::OK();
      }));

  // --- P13: incremental OrdersMV refresh ---
  DIP_RETURN_NOT_OK(dwh->RegisterProcedure(
      "sp_refreshOrdersMvIncremental",
      [](Database* d, const std::vector<Value>&) -> Status {
        return FoldOrdersMvDelta(d);
      }));

  // --- P14: delta extraction of movement with region + cursor advance ---
  DIP_ASSIGN_OR_RETURN(net::Endpoint * dwh_ep,
                       scenario->network()->Get(Scenario::kDwh));
  DIP_RETURN_NOT_OK(dwh_ep->RegisterQuery(
      "extract_orders_with_region_delta",
      [](Database* d, const std::vector<Value>&) -> Result<RowSet> {
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        DIP_ASSIGN_OR_RETURN(
            RowSet delta,
            DeltaRows(orders, kMartCursor, /*inserts_only=*/true));
        ExecContext ec;
        return Query::From(std::move(delta))
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
                     {"region", Col("r_r_name"), DataType::kNull}})
            .Run(&ec);
      }));
  DIP_RETURN_NOT_OK(dwh->RegisterProcedure(
      "sp_advanceMartCursor",
      [](Database* d, const std::vector<Value>&) -> Status {
        DIP_ASSIGN_OR_RETURN(Table * orders, d->GetTable("orders"));
        return AdvanceToEnd(orders, kMartCursor);
      }));

  // --- P15: incremental mart MV refresh ---
  for (const char* mart : {Scenario::kDmEurope, Scenario::kDmAsia,
                           Scenario::kDmUnitedStates}) {
    DIP_ASSIGN_OR_RETURN(Database * mdb,
                         scenario->db(std::string(mart) + "_db"));
    DIP_RETURN_NOT_OK(mdb->RegisterProcedure(
        "sp_refresh_mv_incremental",
        [](Database* d, const std::vector<Value>&) -> Status {
          return FoldOrdersMvDelta(d);
        }));
  }
  return Status::OK();
}

}  // namespace ivm
}  // namespace dipbench
