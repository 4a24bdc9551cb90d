#ifndef DIPBENCH_DIPBENCH_VERIFY_H_
#define DIPBENCH_DIPBENCH_VERIFY_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/dipbench/scenario.h"

namespace dipbench {

/// Outcome of the post-phase functional verification (paper Fig. 6:
/// "Benchmark Verification"), including the data-quality walk of the
/// warehouse (the paper's future-work "quality issues"). Counts refer to
/// the state after the final benchmark period.
struct VerificationReport {
  size_t dwh_orders = 0;
  size_t dwh_mv_rows = 0;
  size_t mart_orders_total = 0;
  size_t cdb_clean_leftover = 0;   ///< must be 0 (P13 removes clean rows)
  size_t dirty_leftover_cdb = 0;   ///< unrepairable rows parked in the CDB
  size_t failed_messages = 0;      ///< P10 failed-data destination
  double dwh_revenue = 0.0;        ///< straight from the fact table
  double mv_revenue = 0.0;         ///< aggregated in OrdersMV

  /// NULL cells among all cells of the DWH fact table.
  size_t null_cells = 0;
  size_t total_cells = 0;
  /// Fact rows whose customer / product key is set but unknown, and whose
  /// city key is NULL or unknown. 0 unless instances were dead-lettered.
  size_t dangling_customer_refs = 0;
  size_t dangling_product_refs = 0;
  size_t dangling_city_refs = 0;
  /// Repeated (orderkey, source) fact keys, counted independently of the
  /// primary key that should prevent them. Must be 0.
  size_t duplicate_fact_keys = 0;

  double NullFraction() const {
    return total_cells == 0
               ? 0.0
               : static_cast<double>(null_cells) / total_cells;
  }
  /// dwh_orders / (dwh_orders + failed_messages + dirty_leftover_cdb).
  double Completeness() const {
    size_t denom = dwh_orders + failed_messages + dirty_leftover_cdb;
    return denom == 0 ? 1.0 : static_cast<double>(dwh_orders) / denom;
  }

  std::string ToString() const;
};

/// Checks the functional correctness of the integrated data:
///  1. the DWH fact table is non-empty, and every fact row resolves its
///     city, names a known customer and product (or none) and has a
///     unique (orderkey, source) key;
///  2. OrdersMV is consistent with the fact table (same total revenue);
///  3. clean movement data was removed from the CDB (delta semantics);
///  4. the marts partition the warehouse: mart order rows sum to the number
///     of DWH rows with a resolvable region;
///  5. every mart's MV matches its own fact partition.
/// A violation is a ValidationError. The report also carries the quality
/// measures that are not pass/fail: NULL share, dirty CDB leftovers and
/// completeness.
///
/// `dead_letters` is the number of instances the run's retry policy
/// dead-lettered. Their data never arrived, master data included, so fact
/// rows may then name customers, products or cities the warehouse lacks:
/// with dead letters the three reference counts are reported, not failed.
/// Key uniqueness holds either way.
Result<VerificationReport> VerifyIntegration(Scenario* scenario,
                                             uint64_t dead_letters = 0);

}  // namespace dipbench

#endif  // DIPBENCH_DIPBENCH_VERIFY_H_
