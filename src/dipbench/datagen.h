#ifndef DIPBENCH_DIPBENCH_DATAGEN_H_
#define DIPBENCH_DIPBENCH_DATAGEN_H_

#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/dipbench/config.h"
#include "src/dipbench/scenario.h"
#include "src/net/file_endpoint.h"
#include "src/xml/node.h"

namespace dipbench {

/// The toolsuite's Initializer (paper Section V): creates synthetic,
/// deterministic test data in the source systems at the start of every
/// benchmark period, honoring the scale factors datasize (d) and
/// distribution (f).
///
/// Period initialization performs:
///  1. "uninitialize all external systems" — every table cleared;
///  2. reference data into the CDB (location + product dimension trees,
///     the consolidated staging master data);
///  3. region-local master + movement data into every source system, with
///     region-specific encodings (Europe: prio 1/2/3, Asia: H/M/L,
///     America: URGENT/NORMAL/LOW) and a small rate of injected data errors
///     for the cleansing processes to repair.
///
/// The same object also fabricates the E1 business messages (Vienna,
/// MDM_Europe, Hongkong, San Diego, Beijing) that the Client attaches to
/// message-stream events; San Diego messages are deliberately error-prone
/// (paper: "it is assumed that this application is very error-prone").
///
/// Seeding units: period initialization decomposes into independent units —
/// one per external database instance (CDB, Berlin/Paris, Trondheim, three
/// Asian services, three American sources). Each unit draws from its own
/// PRNG stream, forked from the period master stream in a FIXED order
/// before any unit runs; that fork order defines the generated rows.
class Initializer {
 public:
  Initializer(Scenario* scenario, const ScaleConfig& config);

  /// Scaled dataset sizes.
  struct Sizes {
    int64_t customers = 0;       ///< global customer key domain
    int64_t products = 0;        ///< global product key domain
    int64_t orders_per_eu = 0;   ///< per European source location
    int64_t orders_per_asia = 0; ///< per Asian Web service
    int64_t orders_per_us = 0;   ///< per American source
  };
  Sizes SizesForConfig() const;

  /// Runs the per-period initialization described above.
  Status InitializePeriod(int period);

  /// Exports every source-system table as a generic XML result-set flat
  /// file (one `<db>.<table>.xml` per table) — the toolsuite's dataset
  /// export path; pair with FileStore::SaveToDisk for real files.
  Status ExportSourceData(net::FileStore* store);

  /// --- E1 message fabrication (used by the Client) ---
  xml::Node MakeBeijingCustomer(int period, int m);  // P01
  xml::Node MakeMdmCustomer(int period, int m);      // P02
  xml::Node MakeViennaOrder(int period, int m);      // P04
  xml::Node MakeHongkongSale(int period, int m);     // P08
  xml::Node MakeSanDiegoOrder(int period, int m);    // P10

  /// A message price as text: the same digits as StrFormat("%.2f", price)
  /// (the exact binary value rounded to nearest, ties to even), formatted
  /// without printf's two passes. Prices are in [5, 500].
  static std::string FormatPrice(double price);

  /// Region of a customer key (0 = Europe, 1 = Asia, 2 = America).
  static int RegionOf(int64_t custkey) {
    return static_cast<int>(custkey % 3);
  }
  /// City key for a customer (1-based, stable).
  static int64_t CityOf(int64_t custkey);

  /// Unique movement key: period- and source-disjoint.
  static int64_t OrderKey(int period, int source_id, int64_t seq) {
    return static_cast<int64_t>(period) * 10'000'000 +
           static_cast<int64_t>(source_id) * 100'000 + seq;
  }

 private:
  /// Seeding units (one external database instance each; see class doc).
  Status SeedCdb(Rng* rng);
  Status SeedCdbReference();
  Status SeedCdbMaster(Rng* rng);
  Status SeedEuropeDb(const std::string& db_name, int period, Rng* rng);
  Status SeedAsiaService(const std::string& service, int source_id,
                         int period, Rng* rng);
  Status SeedAmericaSource(const std::string& source, int source_id,
                           int period, Rng* rng);

  /// Priority of a customer in CDB terms, derived deterministically.
  static const char* CdbPriority(int64_t custkey);

  Scenario* scenario_;
  ScaleConfig config_;
  Rng msg_rng_;
};

}  // namespace dipbench

#endif  // DIPBENCH_DIPBENCH_DATAGEN_H_
