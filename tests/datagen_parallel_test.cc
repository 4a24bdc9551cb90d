// Byte-identity of parallel data generation: Initializer seeding units
// draw from PRNG streams forked in a fixed order BEFORE dispatch, so the
// generated rows — including their order within every table — must be
// byte-identical whether the units run serially (datagen_jobs = 1) or
// concurrently (datagen_jobs = 4). Verified over every table of every
// database (sources AND the CDB) via XML serialization.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/dipbench/datagen.h"
#include "src/dipbench/scenario.h"
#include "src/xml/bridge.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace {

/// Serializes every table of every database as XML — the same result-set
/// form the export path uses, so row order is part of the bytes.
std::map<std::string, std::string> SnapshotAllTables(Scenario* scenario) {
  std::map<std::string, std::string> snapshot;
  for (const std::string& db_name : scenario->DatabaseNames()) {
    auto db = scenario->db(db_name);
    EXPECT_TRUE(db.ok()) << db_name;
    if (!db.ok()) continue;
    for (const std::string& table_name : db.ValueOrDie()->ListTables()) {
      auto table = db.ValueOrDie()->GetTable(table_name);
      EXPECT_TRUE(table.ok()) << db_name << "." << table_name;
      if (!table.ok()) continue;
      RowSet rows;
      rows.schema = table.ValueOrDie()->schema();
      rows.rows = table.ValueOrDie()->ScanAll();
      snapshot[db_name + "." + table_name] =
          xml::WriteXml(xml::RowSetToXml(rows, "resultset", "row"), 2);
    }
  }
  return snapshot;
}

/// Generates period data under `config` and returns the full snapshot.
std::map<std::string, std::string> Generate(ScaleConfig config, int jobs,
                                            int period) {
  config.datagen_jobs = jobs;
  auto scenario = Scenario::Create();
  EXPECT_TRUE(scenario.ok());
  Initializer init(scenario.ValueOrDie().get(), config);
  Status status = init.InitializePeriod(period);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return SnapshotAllTables(scenario.ValueOrDie().get());
}

struct DatagenCase {
  double datasize;
  Distribution dist;
};

std::string CaseName(const ::testing::TestParamInfo<DatagenCase>& info) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%02d_%s",
                static_cast<int>(info.param.datasize * 100),
                DistributionToString(info.param.dist));
  return buf;
}

class DatagenParallelTest : public ::testing::TestWithParam<DatagenCase> {};

TEST_P(DatagenParallelTest, ParallelSeedingIsByteIdenticalToSerial) {
  ScaleConfig config;
  config.datasize = GetParam().datasize;
  config.distribution = GetParam().dist;

  for (int period : {1, 2}) {
    SCOPED_TRACE("period " + std::to_string(period));
    std::map<std::string, std::string> serial = Generate(config, 1, period);
    std::map<std::string, std::string> parallel = Generate(config, 4, period);
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    size_t nonempty = 0;
    for (const auto& [name, bytes] : serial) {
      SCOPED_TRACE(name);
      auto it = parallel.find(name);
      ASSERT_NE(it, parallel.end());
      EXPECT_EQ(bytes, it->second);
      if (bytes.find("<row>") != std::string::npos) ++nonempty;
    }
    // The comparison must have teeth: generation really filled tables.
    EXPECT_GT(nonempty, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScalePoints, DatagenParallelTest,
    ::testing::Values(DatagenCase{0.01, Distribution::kUniform},
                      DatagenCase{0.01, Distribution::kZipf},
                      DatagenCase{0.01, Distribution::kNormal},
                      DatagenCase{0.05, Distribution::kUniform},
                      DatagenCase{0.05, Distribution::kZipf},
                      DatagenCase{0.05, Distribution::kNormal}),
    CaseName);

TEST(DatagenParallelTest, JobsCountBeyondUnitsIsHarmless) {
  ScaleConfig config;
  config.datasize = 0.01;
  std::map<std::string, std::string> serial = Generate(config, 1, 1);
  std::map<std::string, std::string> wide = Generate(config, 64, 1);
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace dipbench
