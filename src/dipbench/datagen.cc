#include "src/dipbench/datagen.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>

#include "src/common/string_util.h"
#include "src/xml/bridge.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace {

/// 27 cities, 9 per region, 3 per nation. Index = citykey - 1.
struct CityRow {
  const char* city;
  const char* nation;
  const char* region;
};
constexpr CityRow kCities[] = {
    // Europe (region 0)
    {"Berlin", "Germany", "Europe"},     {"Munich", "Germany", "Europe"},
    {"Hamburg", "Germany", "Europe"},    {"Paris", "France", "Europe"},
    {"Lyon", "France", "Europe"},        {"Nice", "France", "Europe"},
    {"Trondheim", "Norway", "Europe"},   {"Oslo", "Norway", "Europe"},
    {"Bergen", "Norway", "Europe"},
    // Asia (region 1)
    {"Beijing", "China", "Asia"},        {"Shanghai", "China", "Asia"},
    {"Hongkong", "China", "Asia"},       {"Seoul", "Korea", "Asia"},
    {"Busan", "Korea", "Asia"},          {"Incheon", "Korea", "Asia"},
    {"Tokyo", "Japan", "Asia"},          {"Osaka", "Japan", "Asia"},
    {"Kyoto", "Japan", "Asia"},
    // America (region 2)
    {"Chicago", "USA", "America"},       {"Baltimore", "USA", "America"},
    {"Madison", "USA", "America"},       {"San Diego", "Mexico", "America"},
    {"Monterrey", "Mexico", "America"},  {"Cancun", "Mexico", "America"},
    {"Toronto", "Canada", "America"},    {"Vancouver", "Canada", "America"},
    {"Montreal", "Canada", "America"},
};
constexpr int kCityCount = 27;
constexpr int kCitiesPerRegion = 9;

constexpr const char* kProductLines[] = {"Consumer", "Enterprise",
                                         "Industrial"};
constexpr const char* kProductGroups[] = {
    "Phones",  "Tablets",  "Laptops",   // Consumer
    "Servers", "Storage",  "Networks",  // Enterprise
    "Motors",  "Sensors",  "Robotics",  // Industrial
};

int64_t ProductGroupOf(int64_t prodkey) { return prodkey % 9 + 1; }

/// Per-source movement volume varies between periods (business volume is
/// not constant): +/-30% around the configured base. This also gives the
/// data-intensive process types the per-instance cost deviation the paper
/// observes in Fig. 10 ("caused by a smaller number of executed process
/// instances but also by internal optimization techniques").
int64_t JitteredVolume(int64_t base, Rng* rng) {
  double factor = 0.7 + 0.6 * rng->NextDouble();
  int64_t n = std::llround(static_cast<double>(base) * factor);
  return n < 3 ? 3 : n;
}

/// Order dates within 2008 H1 — month variety feeds the OrdersMV cube.
int64_t OrderDate(int period, int64_t seq) {
  int month = 1 + (period + static_cast<int>(seq)) % 6;
  int day = 1 + static_cast<int>(seq) % 28;
  return 20080000 + month * 100 + day;
}

}  // namespace

Initializer::Initializer(Scenario* scenario, const ScaleConfig& config)
    : scenario_(scenario), config_(config), msg_rng_(config.seed ^ 0xABCDEF) {}

int64_t Initializer::CityOf(int64_t custkey) {
  int region = RegionOf(custkey);
  int64_t within = (custkey / 3) % kCitiesPerRegion;
  return region * kCitiesPerRegion + within + 1;
}

const char* Initializer::CdbPriority(int64_t custkey) {
  switch (custkey % 5) {
    case 0:
      return "HIGH";
    case 1:
    case 2:
      return "MEDIUM";
    default:
      return "LOW";
  }
}

Initializer::Sizes Initializer::SizesForConfig() const {
  Sizes s;
  double d = config_.datasize;
  s.customers = std::max<int64_t>(30, std::llround(2000 * d));
  s.products = std::max<int64_t>(12, std::llround(1000 * d));
  s.orders_per_eu = std::max<int64_t>(5, std::llround(2000 * d));
  s.orders_per_asia = std::max<int64_t>(5, std::llround(1500 * d));
  s.orders_per_us = std::max<int64_t>(5, std::llround(1600 * d));
  return s;
}

Status Initializer::InitializePeriod(int period) {
  scenario_->UninitializeAll();

  // One master stream per period; every seeding unit receives its own fork
  // BEFORE any unit runs, in this fixed order. A unit's data therefore
  // depends only on (seed, period, unit), never on what ran beside it.
  Rng master(config_.seed + static_cast<uint64_t>(period) * 7919);
  Rng cdb_rng = master.Fork();
  Rng eu_bp_rng = master.Fork();
  Rng eu_tr_rng = master.Fork();
  Rng beijing_rng = master.Fork();
  Rng seoul_rng = master.Fork();
  Rng hongkong_rng = master.Fork();
  Rng chicago_rng = master.Fork();
  Rng baltimore_rng = master.Fork();
  Rng madison_rng = master.Fork();

  DIP_RETURN_NOT_OK(SeedCdb(&cdb_rng));
  DIP_RETURN_NOT_OK(SeedEuropeDb("eu_berlin_paris", period, &eu_bp_rng));
  DIP_RETURN_NOT_OK(SeedEuropeDb("eu_trondheim", period, &eu_tr_rng));
  DIP_RETURN_NOT_OK(SeedAsiaService("asia_beijing", 4, period, &beijing_rng));
  DIP_RETURN_NOT_OK(SeedAsiaService("asia_seoul", 5, period, &seoul_rng));
  DIP_RETURN_NOT_OK(
      SeedAsiaService("asia_hongkong", 6, period, &hongkong_rng));
  DIP_RETURN_NOT_OK(
      SeedAmericaSource("us_chicago", 7, period, &chicago_rng));
  DIP_RETURN_NOT_OK(
      SeedAmericaSource("us_baltimore", 8, period, &baltimore_rng));
  return SeedAmericaSource("us_madison", 9, period, &madison_rng);
}

Status Initializer::SeedCdb(Rng* rng) {
  DIP_RETURN_NOT_OK(SeedCdbReference());
  return SeedCdbMaster(rng);
}

Status Initializer::SeedCdbReference() {
  DIP_ASSIGN_OR_RETURN(Database * cdb, scenario_->db("cdb_db"));
  DIP_ASSIGN_OR_RETURN(Table * region, cdb->GetTable("region"));
  DIP_ASSIGN_OR_RETURN(Table * nation, cdb->GetTable("nation"));
  DIP_ASSIGN_OR_RETURN(Table * city, cdb->GetTable("city"));
  DIP_ASSIGN_OR_RETURN(Table * lines, cdb->GetTable("productline"));
  DIP_ASSIGN_OR_RETURN(Table * groups, cdb->GetTable("productgroup"));

  // Regions + nations derived from the city list (stable keys).
  std::map<std::string, int64_t> region_keys, nation_keys;
  for (int i = 0; i < kCityCount; ++i) {
    const CityRow& c = kCities[i];
    if (region_keys.emplace(c.region, region_keys.size() + 1).second) {
      DIP_RETURN_NOT_OK(region->Insert(
          {Value::Int(region_keys[c.region]), Value::String(c.region)}));
    }
    if (nation_keys.emplace(c.nation, nation_keys.size() + 1).second) {
      DIP_RETURN_NOT_OK(nation->Insert({Value::Int(nation_keys[c.nation]),
                                        Value::String(c.nation),
                                        Value::Int(region_keys[c.region])}));
    }
    DIP_RETURN_NOT_OK(city->Insert({Value::Int(i + 1), Value::String(c.city),
                                    Value::Int(nation_keys[c.nation])}));
  }
  for (int i = 0; i < 3; ++i) {
    DIP_RETURN_NOT_OK(lines->Insert(
        {Value::Int(i + 1), Value::String(kProductLines[i])}));
  }
  for (int i = 0; i < 9; ++i) {
    DIP_RETURN_NOT_OK(groups->Insert({Value::Int(i + 1),
                                      Value::String(kProductGroups[i]),
                                      Value::Int(i / 3 + 1)}));
  }
  return Status::OK();
}

Status Initializer::SeedCdbMaster(Rng* rng) {
  // Dirtiness dial of this seeding unit (scenario manifests override the
  // global error_rate per source).
  const double error_rate = config_.ErrorRateFor("cdb_db");
  DIP_ASSIGN_OR_RETURN(Database * cdb, scenario_->db("cdb_db"));
  DIP_ASSIGN_OR_RETURN(Table * customer, cdb->GetTable("customer"));
  DIP_ASSIGN_OR_RETURN(Table * product, cdb->GetTable("product"));
  Sizes sizes = SizesForConfig();
  for (int64_t k = 1; k <= sizes.customers; ++k) {
    bool dirty = rng->NextBool(0.75 * error_rate);  // master-data errors
    DIP_RETURN_NOT_OK(customer->Insert(
        {Value::Int(k),
         dirty ? Value::String("") : Value::String("Customer#" +
                                                   std::to_string(k)),
         Value::Int(CityOf(k)),
         dirty ? Value::String("???") : Value::String(CdbPriority(k)),
         Value::Bool(dirty), Value::Bool(false)}));
  }
  for (int64_t p = 1; p <= sizes.products; ++p) {
    bool dirty = rng->NextBool(0.5 * error_rate);
    DIP_RETURN_NOT_OK(product->Insert(
        {Value::Int(p),
         dirty ? Value::String("") : Value::String("Product#" +
                                                   std::to_string(p)),
         Value::Int(ProductGroupOf(p)), Value::Bool(dirty),
         Value::Bool(false)}));
  }
  return Status::OK();
}

Status Initializer::SeedEuropeDb(const std::string& db_name, int period,
                                 Rng* rng) {
  const double error_rate = config_.ErrorRateFor(db_name);
  DIP_ASSIGN_OR_RETURN(Database * db, scenario_->db(db_name));
  Sizes sizes = SizesForConfig();

  // Region-local master data: European customers (custkey % 3 == 0).
  {
    DIP_ASSIGN_OR_RETURN(Table * kunde, db->GetTable("kunde"));
    DIP_ASSIGN_OR_RETURN(Table * produkt, db->GetTable("produkt"));
    for (int64_t k = 3; k <= sizes.customers; k += 3) {
      const CityRow& c = kCities[CityOf(k) - 1];
      // Europe encodes priority as 1/2/3.
      int64_t prio = std::string(CdbPriority(k)) == "HIGH"     ? 1
                     : std::string(CdbPriority(k)) == "MEDIUM" ? 2
                                                               : 3;
      DIP_RETURN_NOT_OK(kunde->Insert(
          {Value::Int(k), Value::String("Kunde#" + std::to_string(k)),
           Value::String(c.city), Value::String(c.nation), Value::Int(prio)}));
    }
    for (int64_t p = 1; p <= sizes.products; ++p) {
      DIP_RETURN_NOT_OK(produkt->Insert(
          {Value::Int(p), Value::String("Produkt#" + std::to_string(p)),
           Value::String(kProductGroups[ProductGroupOf(p) - 1]),
           Value::String(kProductLines[(ProductGroupOf(p) - 1) / 3])}));
    }
  }

  // Movement data per location hosted by this instance. Berlin and Paris
  // share the eu_berlin_paris database (and its sampler streams);
  // Trondheim's unit draws from its own fork.
  struct Loc {
    const char* location;
    int source_id;
  };
  std::vector<Loc> locs;
  if (db_name == "eu_berlin_paris") {
    locs = {{"berlin", 1}, {"paris", 2}};
  } else {
    locs = {{"trondheim", 3}};
  }
  int64_t eu_customer_count = sizes.customers / 3;
  DistributionSampler cust_sampler(config_.distribution,
                                   std::max<int64_t>(1, eu_customer_count),
                                   rng->Next());
  DistributionSampler prod_sampler(config_.distribution, sizes.products,
                                   rng->Next());
  for (const Loc& loc : locs) {
    DIP_ASSIGN_OR_RETURN(Table * auftrag, db->GetTable("auftrag"));
    DIP_ASSIGN_OR_RETURN(Table * position, db->GetTable("position"));
    int64_t volume = JitteredVolume(sizes.orders_per_eu, rng);
    for (int64_t i = 1; i <= volume; ++i) {
      int64_t anr = OrderKey(period, loc.source_id, i);
      int64_t kdnr = 3 * (1 + static_cast<int64_t>(cust_sampler.Sample()) %
                                  std::max<int64_t>(1, eu_customer_count));
      if (kdnr > sizes.customers) kdnr = 3;
      // Unrepairable reference errors: orders naming unknown customers.
      if (rng->NextBool(0.4 * error_rate)) {
        kdnr = sizes.customers + 100 + i;
      }
      const char* status = i % 7 == 0 ? "STORNO" : "GELIEFERT";
      DIP_RETURN_NOT_OK(auftrag->Insert(
          {Value::Int(anr), Value::Int(kdnr),
           Value::Date(OrderDate(period, i)), Value::String(status),
           Value::String(loc.location)}));
      int64_t n_lines = 1 + static_cast<int64_t>(i % 3);
      for (int64_t pos = 1; pos <= n_lines; ++pos) {
        int64_t pnr = 1 + static_cast<int64_t>(prod_sampler.Sample()) %
                              sizes.products;
        bool dirty = rng->NextBool(error_rate);  // movement errors
        DIP_RETURN_NOT_OK(position->Insert(
            {Value::Int(anr), Value::Int(pos), Value::Int(pnr),
             Value::Int(dirty ? -1 : 1 + static_cast<int64_t>(pos * 2)),
             Value::Double(rng->NextDoubleIn(5.0, 500.0))}));
      }
    }
  }
  return Status::OK();
}

Status Initializer::SeedAsiaService(const std::string& service, int source_id,
                                    int period, Rng* rng) {
  const double error_rate = config_.ErrorRateFor(service);
  Sizes sizes = SizesForConfig();
  int64_t asia_customer_count = (sizes.customers + 1) / 3;
  DIP_ASSIGN_OR_RETURN(Database * db, scenario_->db(service));
  DIP_ASSIGN_OR_RETURN(Table * customer, db->GetTable("customer"));
  DIP_ASSIGN_OR_RETURN(Table * product, db->GetTable("product"));
  DIP_ASSIGN_OR_RETURN(Table * sales, db->GetTable("sales"));
  // Asian customers: custkey % 3 == 1, priority H/M/L.
  for (int64_t k = 1; k <= sizes.customers; k += 3) {
    const CityRow& c = kCities[CityOf(k) - 1];
    const char* prio = std::string(CdbPriority(k)) == "HIGH"     ? "H"
                       : std::string(CdbPriority(k)) == "MEDIUM" ? "M"
                                                                 : "L";
    DIP_RETURN_NOT_OK(customer->Insert(
        {Value::Int(k), Value::String("Cust#" + std::to_string(k)),
         Value::String(c.city), Value::String(c.nation),
         Value::String(prio)}));
  }
  for (int64_t p = 1; p <= sizes.products; ++p) {
    DIP_RETURN_NOT_OK(product->Insert(
        {Value::Int(p), Value::String("Prod#" + std::to_string(p)),
         Value::String(kProductGroups[ProductGroupOf(p) - 1]),
         Value::String(kProductLines[(ProductGroupOf(p) - 1) / 3])}));
  }
  DistributionSampler cust_sampler(config_.distribution,
                                   std::max<int64_t>(1, asia_customer_count),
                                   rng->Next());
  DistributionSampler prod_sampler(config_.distribution, sizes.products,
                                   rng->Next());
  // Beijing and Seoul hold overlapping sales data (their master data is
  // kept in sync by P01): both draw order keys from a SHARED, bounded key
  // domain, so the overlap P09's UNION DISTINCT must eliminate is real
  // and depends on the distribution scale factor f (skewed draws collide
  // far more often). Hongkong keeps disjoint sequential keys — its data
  // arrives as messages (P08), never through the union.
  bool shared_domain = service != "asia_hongkong";
  // Independent draw sequences per service over the SAME key domain.
  DistributionSampler key_sampler(config_.distribution,
                                  2 * sizes.orders_per_asia, rng->Next());
  int64_t volume = JitteredVolume(sizes.orders_per_asia, rng);
  for (int64_t i = 1; i <= volume; ++i) {
    int64_t orderkey;
    int64_t custkey, prodkey, qty;
    int64_t odate;
    if (shared_domain) {
      // A shared order IS the same real-world order: every attribute
      // derives deterministically from the key, so Beijing's and Seoul's
      // copies agree and the UNION DISTINCT can eliminate them.
      int64_t draw = 1 + static_cast<int64_t>(key_sampler.Sample());
      orderkey = OrderKey(period, 4, draw);
      custkey = 1 + 3 * ((draw * 2654435761LL) %
                         std::max<int64_t>(1, asia_customer_count));
      prodkey = 1 + (draw * 40503) % sizes.products;
      qty = draw % 17 == 0 ? 0 : 1 + draw % 5;  // injected errors too
      odate = OrderDate(period, draw);
      rng->Next();  // keep the stream advancing uniformly per row
    } else {
      orderkey = OrderKey(period, source_id, i);
      custkey = 1 + 3 * (static_cast<int64_t>(cust_sampler.Sample()) %
                         std::max<int64_t>(1, asia_customer_count));
      if (rng->NextBool(0.4 * error_rate)) {
        custkey = sizes.customers + 300 + i;  // unrepairable reference
      }
      prodkey =
          1 + static_cast<int64_t>(prod_sampler.Sample()) % sizes.products;
      bool dirty = rng->NextBool(error_rate);
      qty = dirty ? 0 : 1 + static_cast<int64_t>(i % 5);
      odate = OrderDate(period, i);
    }
    if (custkey > sizes.customers) custkey = 1;
    // Price derives from key material so shared copies agree on it.
    double price = 5.0 + static_cast<double>((orderkey * 48271) % 49500) /
                             100.0;
    DIP_RETURN_NOT_OK(sales->InsertOrReplace(
        {Value::Int(orderkey), Value::Int(custkey), Value::Int(prodkey),
         Value::Int(qty), Value::Double(price), Value::Date(odate)}));
  }
  return Status::OK();
}

Status Initializer::SeedAmericaSource(const std::string& source,
                                      int source_id, int period, Rng* rng) {
  const double error_rate = config_.ErrorRateFor(source);
  Sizes sizes = SizesForConfig();
  int64_t us_customer_count = (sizes.customers + 2) / 3;
  DIP_ASSIGN_OR_RETURN(Database * db, scenario_->db(source));
  DIP_ASSIGN_OR_RETURN(Table * customer, db->GetTable("customer"));
  DIP_ASSIGN_OR_RETURN(Table * part, db->GetTable("part"));
  DIP_ASSIGN_OR_RETURN(Table * orders, db->GetTable("orders"));
  DIP_ASSIGN_OR_RETURN(Table * lineitem, db->GetTable("lineitem"));
  // American customers: custkey % 3 == 2, priority URGENT/NORMAL/LOW.
  for (int64_t k = 2; k <= sizes.customers; k += 3) {
    const CityRow& c = kCities[CityOf(k) - 1];
    const char* prio = std::string(CdbPriority(k)) == "HIGH"     ? "URGENT"
                       : std::string(CdbPriority(k)) == "MEDIUM" ? "NORMAL"
                                                                 : "LOW";
    DIP_RETURN_NOT_OK(customer->Insert(
        {Value::Int(k), Value::String("Customer#" + std::to_string(k)),
         Value::String(c.city), Value::String(c.nation),
         Value::String(prio)}));
  }
  for (int64_t p = 1; p <= sizes.products; ++p) {
    DIP_RETURN_NOT_OK(part->Insert(
        {Value::Int(p), Value::String("Part#" + std::to_string(p)),
         Value::String(kProductGroups[ProductGroupOf(p) - 1]),
         Value::String(kProductLines[(ProductGroupOf(p) - 1) / 3])}));
  }
  DistributionSampler cust_sampler(config_.distribution,
                                   std::max<int64_t>(1, us_customer_count),
                                   rng->Next());
  DistributionSampler prod_sampler(config_.distribution, sizes.products,
                                   rng->Next());
  int64_t volume = JitteredVolume(sizes.orders_per_us, rng);
  for (int64_t i = 1; i <= volume; ++i) {
    int64_t okey = OrderKey(period, source_id, i);
    int64_t ckey = 2 + 3 * (static_cast<int64_t>(cust_sampler.Sample()) %
                            std::max<int64_t>(1, us_customer_count));
    if (ckey > sizes.customers) ckey = 2;
    if (rng->NextBool(0.4 * error_rate)) {
      ckey = sizes.customers + 200 + i;  // unrepairable reference error
    }
    DIP_RETURN_NOT_OK(orders->Insert(
        {Value::Int(okey), Value::Int(ckey),
         Value::Date(OrderDate(period, i)),
         Value::String(i % 9 == 0 ? "P" : "F")}));
    int64_t n_lines = 1 + static_cast<int64_t>(i % 2);
    for (int64_t ln = 1; ln <= n_lines; ++ln) {
      int64_t pkey =
          1 + static_cast<int64_t>(prod_sampler.Sample()) % sizes.products;
      bool dirty = rng->NextBool(error_rate);
      DIP_RETURN_NOT_OK(lineitem->Insert(
          {Value::Int(okey), Value::Int(ln), Value::Int(pkey),
           Value::Int(dirty ? -2 : 1 + static_cast<int64_t>(ln * 3)),
           Value::Double(rng->NextDoubleIn(5.0, 500.0))}));
    }
  }
  return Status::OK();
}

Status Initializer::ExportSourceData(net::FileStore* store) {
  static const char* kSourceDbs[] = {
      "eu_berlin_paris", "eu_trondheim", "asia_beijing", "asia_seoul",
      "asia_hongkong",   "us_chicago",   "us_baltimore", "us_madison"};
  for (const char* db_name : kSourceDbs) {
    DIP_ASSIGN_OR_RETURN(Database * db, scenario_->db(db_name));
    for (const std::string& table_name : db->ListTables()) {
      DIP_ASSIGN_OR_RETURN(Table * table, db->GetTable(table_name));
      RowSet rows;
      rows.schema = table->schema();
      rows.rows = table->ScanAll();
      store->Write(std::string(db_name) + "." + table_name + ".xml",
                   xml::WriteXml(xml::RowSetToXml(rows, "resultset", "row"),
                                 /*indent=*/2));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// E1 message fabrication.
// ---------------------------------------------------------------------------

std::string Initializer::FormatPrice(double price) {
  // Room for any double: sign, 309 integer digits, point, two decimals.
  char buf[std::numeric_limits<double>::max_exponent10 + 6];
  char* end = std::to_chars(buf, buf + sizeof(buf), price,
                            std::chars_format::fixed, 2)
                  .ptr;
  return std::string(buf, end);
}

xml::Node Initializer::MakeBeijingCustomer(int period, int m) {
  Sizes sizes = SizesForConfig();
  int64_t k = 1 + 3 * ((static_cast<int64_t>(period) * 31 + m) %
                       std::max<int64_t>(1, (sizes.customers + 1) / 3));
  const CityRow& c = kCities[CityOf(k) - 1];
  xml::Node doc("CustomerB");
  doc.ReserveChildren(5);
  doc.AddText("CKey", std::to_string(k));
  doc.AddText("CName", "Cust#" + std::to_string(k) + "u" +
                           std::to_string(period));
  doc.AddText("City", c.city);
  doc.AddText("Nation", c.nation);
  doc.AddText("Priority", std::string(CdbPriority(k)) == "HIGH"     ? "H"
                          : std::string(CdbPriority(k)) == "MEDIUM" ? "M"
                                                                    : "L");
  return doc;
}

xml::Node Initializer::MakeMdmCustomer(int period, int m) {
  Sizes sizes = SizesForConfig();
  int64_t k = 3 * (1 + (static_cast<int64_t>(period) * 17 + m) %
                           std::max<int64_t>(1, sizes.customers / 3));
  const CityRow& c = kCities[CityOf(k) - 1];
  xml::Node doc("KundenStamm");
  doc.ReserveChildren(5);
  doc.AddText("Kdnr", std::to_string(k));
  doc.AddText("Name", "Kunde#" + std::to_string(k) + "v" +
                          std::to_string(period));
  doc.AddText("Stadt", c.city);
  doc.AddText("Land", c.nation);
  doc.AddText("Prio", std::string(CdbPriority(k)) == "HIGH"     ? "1"
                      : std::string(CdbPriority(k)) == "MEDIUM" ? "2"
                                                                : "3");
  return doc;
}

xml::Node Initializer::MakeViennaOrder(int period, int m) {
  Sizes sizes = SizesForConfig();
  int64_t anr = OrderKey(period, /*source_id=*/10, m);
  int64_t kdnr = 3 * (1 + (static_cast<int64_t>(period) * 13 + m) %
                              std::max<int64_t>(1, sizes.customers / 3));
  int lines = 1 + m % 3;
  xml::Node doc("Bestellung");
  doc.ReserveChildren(3 + lines);
  doc.AddText("Anr", std::to_string(anr));
  doc.AddText("Kdnr", std::to_string(kdnr));
  doc.AddText("Datum", std::to_string(OrderDate(period, m)));
  for (int i = 1; i <= lines; ++i) {
    xml::Node* pos = doc.AddChild("Position");
    pos->ReserveChildren(3);
    pos->AddText("Pnr", std::to_string(1 + (m * 7 + i) % sizes.products));
    pos->AddText("Menge", std::to_string(1 + (m + i) % 5));
    pos->AddText("Preis",
                 FormatPrice(5.0 + msg_rng_.NextDoubleIn(0.0, 495.0)));
  }
  return doc;
}

xml::Node Initializer::MakeHongkongSale(int period, int m) {
  Sizes sizes = SizesForConfig();
  int64_t okey = OrderKey(period, /*source_id=*/11, m);
  int64_t ckey = 1 + 3 * ((static_cast<int64_t>(period) * 19 + m) %
                          std::max<int64_t>(1, (sizes.customers + 1) / 3));
  xml::Node doc("sale");
  doc.ReserveChildren(6);
  doc.AddText("orderkey", std::to_string(okey));
  doc.AddText("custkey", std::to_string(ckey));
  doc.AddText("prodkey", std::to_string(1 + (m * 11) % sizes.products));
  doc.AddText("qty", std::to_string(1 + m % 4));
  doc.AddText("price", FormatPrice(5.0 + msg_rng_.NextDoubleIn(0.0, 495.0)));
  doc.AddText("odate", std::to_string(OrderDate(period, m)));
  return doc;
}

xml::Node Initializer::MakeSanDiegoOrder(int period, int m) {
  Sizes sizes = SizesForConfig();
  int64_t okey = OrderKey(period, /*source_id=*/12, m);
  int64_t ckey = 2 + 3 * ((static_cast<int64_t>(period) * 23 + m) %
                          std::max<int64_t>(1, (sizes.customers + 2) / 3));
  if (ckey > sizes.customers) ckey = 2;
  xml::Node doc("SDOrder");
  doc.ReserveChildren(7);
  // "It is assumed that this application is very error-prone": roughly a
  // fifth of the messages violate the XSD in one of several ways.
  int error_kind = (period + m) % 10;
  if (error_kind != 1) doc.AddText("OKey", std::to_string(okey));
  if (error_kind != 3) doc.AddText("CKey", std::to_string(ckey));
  doc.AddText("PKey", std::to_string(1 + (m * 13) % sizes.products));
  doc.AddText("Qty", error_kind == 7 ? "many" : std::to_string(1 + m % 6));
  doc.AddText("Price", FormatPrice(5.0 + msg_rng_.NextDoubleIn(0.0, 495.0)));
  doc.AddText("ODate", std::to_string(OrderDate(period, m)));
  doc.AddText("Prio", m % 3 == 0 ? "U" : m % 3 == 1 ? "N" : "L");
  return doc;
}

}  // namespace dipbench
