#ifndef DIPBENCH_RA_QUERY_H_
#define DIPBENCH_RA_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "src/ra/plan.h"

namespace dipbench {

/// Fluent wrapper over the plan-node constructors, so examples and process
/// definitions read top-down:
///
///   auto result = Query::From(orders)
///                     .Where(Gt(Col("total"), Lit(100.0)))
///                     .Select({{"okey", Col("o_orderkey")}})
///                     .OrderBy({{"okey", true}})
///                     .Run(&ctx);
class Query {
 public:
  static Query From(const Table* table) { return Query(ScanTable(table)); }
  static Query From(RowSet rows) { return Query(ScanValues(std::move(rows))); }
  static Query From(PlanPtr plan) { return Query(std::move(plan)); }

  Query Where(ExprPtr predicate) && {
    return Query(Filter(std::move(plan_), std::move(predicate)));
  }
  Query Select(std::vector<ProjectionItem> items) && {
    return Query(Project(std::move(plan_), std::move(items)));
  }
  Query Join(Query right, std::vector<std::string> left_keys,
             std::vector<std::string> right_keys) && {
    return Query(HashJoin(std::move(plan_), std::move(right.plan_),
                          std::move(left_keys), std::move(right_keys)));
  }
  Query GroupBy(std::vector<std::string> group_by,
                std::vector<AggregateItem> aggs) && {
    return Query(
        Aggregate(std::move(plan_), std::move(group_by), std::move(aggs)));
  }
  Query OrderBy(std::vector<SortKey> keys) && {
    return Query(Sort(std::move(plan_), std::move(keys)));
  }

  /// Executes the built plan.
  Result<RowSet> Run(ExecContext* ctx) const { return plan_->Execute(ctx); }

 private:
  explicit Query(PlanPtr plan) : plan_(std::move(plan)) {}
  PlanPtr plan_;
};

}  // namespace dipbench

#endif  // DIPBENCH_RA_QUERY_H_
