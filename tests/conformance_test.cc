// Conformance subsystem tests (SPECIFICATION.md §15): canonical digest
// properties, allowlist policy, fuzz-case generation determinism, the
// injected-divergence catch/shrink/replay pipeline, repro round-trips and
// the committed regression corpus under tests/repros/.

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/conformance/diff.h"
#include "src/conformance/digest.h"
#include "src/conformance/fuzzer.h"
#include "src/conformance/repro.h"
#include "src/conformance/shrink.h"
#include "src/dipbench/scenario.h"
#include "src/scenario/manifest.h"

namespace dipbench {
namespace conformance {
namespace {

// ---------------------------------------------------------------------------
// CanonicalCell: representation-exact, separator-safe

TEST(CanonicalCellTest, EncodingsAreTypeTagged) {
  EXPECT_EQ(CanonicalCell(Value::Null()), "~");
  EXPECT_EQ(CanonicalCell(Value::Bool(false)), "b0");
  EXPECT_EQ(CanonicalCell(Value::Bool(true)), "b1");
  EXPECT_EQ(CanonicalCell(Value::Int(42)), "i42");
  EXPECT_EQ(CanonicalCell(Value::Int(-7)), "i-7");
  // kInt64 1 and kDouble 1.0 compare equal under Value::Compare but must
  // digest differently — the representation is part of the contract.
  EXPECT_NE(CanonicalCell(Value::Int(1)), CanonicalCell(Value::Double(1.0)));
}

TEST(CanonicalCellTest, DoublesAreBitExact) {
  // Hex floats round-trip every bit pattern; 0.1 + 0.2 != 0.3 must show.
  EXPECT_NE(CanonicalCell(Value::Double(0.1 + 0.2)),
            CanonicalCell(Value::Double(0.3)));
  // -0.0 == 0.0 numerically, but the bit patterns differ.
  EXPECT_NE(CanonicalCell(Value::Double(-0.0)),
            CanonicalCell(Value::Double(0.0)));
  EXPECT_EQ(CanonicalCell(Value::Double(128.0)),
            CanonicalCell(Value::Double(128.0)));
}

TEST(CanonicalCellTest, StringsEscapeTheSeparator) {
  std::string nasty = "a\"b\\c";
  nasty += kCellSep;
  nasty += "\nd";
  std::string encoded = CanonicalCell(Value::String(nasty));
  // The encoded cell must never contain a raw separator byte — that would
  // corrupt CanonicalRow's cell boundaries.
  EXPECT_EQ(encoded.find(kCellSep), std::string::npos);
  EXPECT_EQ(encoded.front(), 's');
}

TEST(CanonicalCellTest, RowsSplitBackIntoTheirCells) {
  Row row = {Value::Int(1), Value::String("x"), Value::Double(2.5)};
  std::string encoded = CanonicalRow(row);
  std::vector<std::string> cells = SplitCanonicalRow(encoded);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], CanonicalCell(row[0]));
  EXPECT_EQ(cells[1], CanonicalCell(row[1]));
  EXPECT_EQ(cells[2], CanonicalCell(row[2]));
}

// ---------------------------------------------------------------------------
// Digest properties over a live landscape

Row OrderRow(int64_t orderkey, double price, const std::string& source) {
  return {Value::Int(orderkey),    Value::Int(1),
          Value::Int(2),           Value::Int(3),
          Value::Date(20080412),   Value::Int(5),
          Value::Double(price),    Value::String("HIGH"),
          Value::String(source)};
}

Table* DwhOrdersTable(Scenario* scenario) {
  auto db = scenario->db("dwh_db");
  EXPECT_TRUE(db.ok());
  auto orders = (*db)->GetTable("orders");
  EXPECT_TRUE(orders.ok());
  return *orders;
}

TEST(DigestPropertyTest, InvariantUnderRowInsertionOrderPermutation) {
  auto a = Scenario::Create();
  auto b = Scenario::Create();
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<Row> rows = {OrderRow(3, 10.5, "us"), OrderRow(1, 7.25, "eu"),
                           OrderRow(2, 99.0, "us"), OrderRow(1, 3.0, "us")};
  for (const Row& row : rows) {
    ASSERT_TRUE(DwhOrdersTable(a->get())->Insert(row).ok());
  }
  // Reverse insertion order into the second landscape.
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    ASSERT_TRUE(DwhOrdersTable(b->get())->Insert(*it).ok());
  }
  StateDigest da = CaptureStateDigest(a->get());
  StateDigest db = CaptureStateDigest(b->get());
  EXPECT_EQ(da.state_hash, db.state_hash);
  EXPECT_EQ(da.counters_hash, db.counters_hash);
  PairContext ctx;  // identical engines: nothing is allowlisted
  EXPECT_TRUE(DiffDigests(da, db, ctx).identical());
}

TEST(DigestPropertyTest, SensitiveToAnySingleCellMutation) {
  auto a = Scenario::Create();
  auto b = Scenario::Create();
  ASSERT_TRUE(a.ok() && b.ok());
  for (Scenario* s : {a->get(), b->get()}) {
    for (int k = 1; k <= 3; ++k) {
      ASSERT_TRUE(
          DwhOrdersTable(s)->Insert(OrderRow(k, 10.0 * k, "us")).ok());
    }
  }
  // Nudge exactly one price cell in landscape B.
  bool done = false;
  auto updated = DwhOrdersTable(b->get())->UpdateWhere(
      [&done](RowView) {
        if (done) return false;
        done = true;
        return true;
      },
      [](MutableRowView row) {
        row[6] = Value::Double(row[6].AsDouble() + 0.5);
      });
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(*updated, 1u);

  StateDigest da = CaptureStateDigest(a->get());
  StateDigest db = CaptureStateDigest(b->get());
  EXPECT_NE(da.state_hash, db.state_hash);

  // The structured diff pinpoints database, table, row key and cell.
  PairContext ctx;
  DigestDiff diff = DiffDigests(da, db, ctx);
  EXPECT_GT(diff.violations, 0u);
  ASSERT_FALSE(diff.entries.empty());
  const DiffEntry& first = diff.entries.front();
  EXPECT_EQ(first.section, Section::kRows);
  EXPECT_EQ(first.database, "dwh_db");
  EXPECT_EQ(first.table, "orders");
  EXPECT_EQ(first.column, 6);
  EXPECT_EQ(first.column_name, "price");
  EXPECT_NE(first.left, first.right);
}

// ---------------------------------------------------------------------------
// Allowlist policy

StateDigest ScalarDigest(uint64_t rows_read) {
  StateDigest d;
  TableDigest t;
  t.table = "t";
  t.schema_text = "schema";
  t.column_names = {"k", "v"};
  t.primary_key = {0};
  t.rows = {std::string("i1") + kCellSep + "i10"};
  t.rows_read = rows_read;
  t.rows_written = 1;
  DatabaseDigest db;
  db.database = "db";
  db.tables.push_back(std::move(t));
  d.databases.push_back(std::move(db));
  d.monitor_csv = "h\n1,2\n";
  d.verification = "verified";
  return d;
}

TEST(AllowlistTest, MonitorCsvDivergenceIsDocumentedOnlyAcrossEngines) {
  StateDigest a = ScalarDigest(5);
  StateDigest b = ScalarDigest(5);
  b.monitor_csv = "h\n9,9\n";

  PairContext cross;
  cross.engine_a = "federated";
  cross.engine_b = "dataflow";
  DigestDiff allowed = DiffDigests(a, b, cross);
  EXPECT_EQ(allowed.total_diffs, 1u);
  EXPECT_TRUE(allowed.clean());
  ASSERT_EQ(allowed.entries.size(), 1u);
  EXPECT_TRUE(allowed.entries[0].allowlisted);
  EXPECT_EQ(allowed.entries[0].rule, "engine-cost-model");

  // Same engine on both sides: the very same divergence is a violation.
  PairContext same = cross;
  same.engine_b = "federated";
  DigestDiff violation = DiffDigests(a, b, same);
  EXPECT_EQ(violation.violations, 1u);
  EXPECT_FALSE(violation.clean());
}

// ---------------------------------------------------------------------------
// Case generation and repro round-trips

TEST(FuzzGeneratorTest, CasesAreDeterministicAndRoundTrip) {
  for (size_t index : {0u, 3u, 17u}) {
    auto once = GenerateCase(1, index);
    auto again = GenerateCase(1, index);
    ASSERT_TRUE(once.ok()) << once.status().ToString();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(once->json, again->json);
    // The JSON is the source of truth: re-rendering the parsed manifest
    // reproduces it byte for byte.
    EXPECT_EQ(RenderManifestJson(once->manifest), once->json);
  }
  // Different master seeds draw different cases.
  auto seed1 = GenerateCase(1, 0);
  auto seed2 = GenerateCase(2, 0);
  ASSERT_TRUE(seed1.ok() && seed2.ok());
  EXPECT_NE(seed1->json, seed2->json);
}

TEST(ReproTest, JsonRoundTripPreservesCellsAndManifest) {
  auto manifest = scenario::ScenarioManifest::FromJsonText(
      R"({"name": "roundtrip",
          "config": {"datasize": 0.005, "periods": 1, "seed": 7}})",
      "<test>");
  ASSERT_TRUE(manifest.ok());

  Repro repro;
  repro.note = "unit \"test\" repro";
  repro.master_seed = 99;
  repro.case_index = 4;
  repro.manifest_json = RenderManifestJson(*manifest);
  repro.cells = {MatrixCell{"federated"}, MatrixCell{"dataflow"},
                 MatrixCell{"eai"}};

  auto loaded = ReproFromJsonText(ReproToJson(repro), "<roundtrip>");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->note, repro.note);
  EXPECT_EQ(loaded->master_seed, 99u);
  EXPECT_EQ(loaded->case_index, 4u);
  ASSERT_EQ(loaded->cells.size(), 3u);
  EXPECT_EQ(loaded->cells[0].engine, "federated");
  EXPECT_EQ(loaded->cells[1].engine, "dataflow");
  EXPECT_EQ(loaded->cells[2].engine, "eai");
  // A cell is its engine alone, and renders back to the same text.
  EXPECT_EQ(ReproToJson(*loaded), ReproToJson(repro));
  // The embedded manifest re-parses to the same canonical rendering.
  auto reparsed = scenario::ScenarioManifest::FromJsonText(
      loaded->manifest_json, "<test>");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(RenderManifestJson(*reparsed), repro.manifest_json);
}

TEST(ReproTest, RejectsNonReproJson) {
  EXPECT_FALSE(ReproFromJsonText("{}", "<t>").ok());
  EXPECT_FALSE(
      ReproFromJsonText(R"({"dipbench_repro": 2, "cells": []})", "<t>").ok());
  // A cell accepts only engine: a retired exec mode, whatever its value,
  // the retired workers, memory_budget or realization key, or a misspelled
  // key is an error that names its position, never a silently different
  // replay.
  auto manifest = scenario::ScenarioManifest::FromJsonText(
      R"({"name": "cells", "config": {"periods": 1}})", "<test>");
  ASSERT_TRUE(manifest.ok());
  Repro repro;
  repro.manifest_json = RenderManifestJson(*manifest);
  repro.cells = {MatrixCell{"dataflow"}};
  const std::string json = ReproToJson(repro);
  ASSERT_TRUE(ReproFromJsonText(json, "<t>").ok());
  const size_t engine = json.find("\"engine\"");
  ASSERT_NE(engine, std::string::npos);
  for (const char* mode : {"materialize", "pipeline", "columnar"}) {
    std::string with_mode = json;
    with_mode.insert(engine,
                     std::string("\"exec_mode\": \"") + mode + "\", ");
    Status st = ReproFromJsonText(with_mode, "<t>").status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << mode;
    EXPECT_NE(st.message().find("unknown cell key 'exec_mode'"),
              std::string::npos)
        << st;
    EXPECT_NE(st.message().find("line "), std::string::npos) << st;
  }
  // Each retired key with a value an older repro carries.
  const std::vector<std::pair<std::string, std::string>> retired_keys = {
      {"workers", "0"}, {"memory_budget", "0"}, {"realization", "\"full\""}};
  for (const auto& [retired, value] : retired_keys) {
    std::string with_key = json;
    with_key.insert(engine, "\"" + retired + "\": " + value + ", ");
    Status st = ReproFromJsonText(with_key, "<t>").status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << retired;
    EXPECT_NE(st.message().find("unknown cell key '" + retired + "'"),
              std::string::npos)
        << st;
    EXPECT_NE(st.message().find("line "), std::string::npos) << st;
  }
  std::string misspelled = json;
  misspelled.replace(engine, 8, "\"engin\"");
  Status st = ReproFromJsonText(misspelled, "<t>").status();
  EXPECT_NE(st.message().find("unknown cell key 'engin'"), std::string::npos)
      << st;
}

// ---------------------------------------------------------------------------
// End-to-end: fuzz smoke, injected divergence, regression corpus

FuzzCase SmallCase() {
  FuzzCase fuzz_case;
  fuzz_case.index = 0;
  fuzz_case.json =
      "{\n  \"name\": \"small\",\n"
      "  \"config\": {\"datasize\": 0.005, \"periods\": 1, \"seed\": 7,\n"
      "               \"worker_slots\": 2}\n}\n";
  auto manifest =
      scenario::ScenarioManifest::FromJsonText(fuzz_case.json, "<small>");
  EXPECT_TRUE(manifest.ok());
  fuzz_case.manifest = *manifest;
  fuzz_case.case_seed = fuzz_case.manifest.config.seed;
  return fuzz_case;
}

TEST(ConformanceEndToEndTest, SmallMatrixIsConformant) {
  FuzzOptions opt;
  opt.jobs = 4;
  opt.matrix = DefaultMatrix(/*include_eai=*/true);
  CaseResult result = RunCase(SmallCase(), opt);
  ASSERT_EQ(result.cells.size(), 3u);
  for (const CellRun& run : result.cells) {
    EXPECT_TRUE(run.ok) << run.cell.engine << ": " << run.error;
  }
  EXPECT_TRUE(result.conformant())
      << result.findings.front().diff.ToString();
  EXPECT_EQ(result.pairs, 3u);
  // Every engine pair differs only in the documented cost-model section of
  // the Monitor CSV.
  EXPECT_EQ(result.allowlisted_pairs, 3u);
}

TEST(ConformanceEndToEndTest, InjectedDivergenceIsCaughtShrunkAndReplayed) {
  FuzzOptions opt;
  opt.jobs = 2;
  opt.matrix = DefaultMatrix(/*include_eai=*/false);
  opt.inject = [](const MatrixCell& cell, Scenario* scenario) {
    if (cell.engine != "dataflow") return;
    auto db = scenario->db("dwh_db");
    if (!db.ok()) return;
    auto orders = (*db)->GetTable("orders");
    if (!orders.ok()) return;
    bool done = false;
    (void)(*orders)->UpdateWhere(
        [&done](RowView) {
          if (done) return false;
          done = true;
          return true;
        },
        [](MutableRowView row) {
          row[6] = Value::Double(row[6].AsDouble() + 0.5);
        });
  };

  FuzzCase fuzz_case = SmallCase();
  CaseResult result = RunCase(fuzz_case, opt);
  ASSERT_FALSE(result.conformant());
  const PairFinding& finding = result.findings.front();
  // The diff names the poisoned table.
  EXPECT_NE(finding.diff.ToString().find("dwh_db.orders"),
            std::string::npos)
      << finding.diff.ToString();

  // Shrink the failing pair, emit a repro, replay it both ways.
  auto shrunk = ShrinkCase(fuzz_case, result.cells[finding.cell_a].cell,
                           result.cells[finding.cell_b].cell, opt);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_FALSE(shrunk->diff.clean());

  Repro repro = MakeRepro(*shrunk, opt.master_seed, fuzz_case.index,
                          "unit-test injected divergence");
  auto reloaded = ReproFromJsonText(ReproToJson(repro), "<repro>");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  auto with_hook = ReplayRepro(*reloaded, opt);
  ASSERT_TRUE(with_hook.ok()) << with_hook.status().ToString();
  EXPECT_FALSE(with_hook->conformant());

  FuzzOptions clean = opt;
  clean.inject = nullptr;
  auto without_hook = ReplayRepro(*reloaded, clean);
  ASSERT_TRUE(without_hook.ok()) << without_hook.status().ToString();
  EXPECT_TRUE(without_hook->conformant())
      << without_hook->findings.front().diff.ToString();
}

/// A directory of the source tree the binary was built from, wherever the
/// build directory is; empty when it does not exist.
std::string FindRepoDir(const std::string& relative) {
  std::string dir = std::string(DIPBENCH_SOURCE_DIR) + "/" + relative;
  return std::filesystem::is_directory(dir) ? dir : "";
}

TEST(ConformanceEndToEndTest, CommittedReproCorpusReplaysConformant) {
  // tests/repros/ holds shrunk repros of PAST failures (all of them
  // hook-dependent self-test divergences); replayed without any hook they
  // must be conformant. A repro that starts failing here is a regression.
  std::string dir = FindRepoDir("tests/repros");
  ASSERT_FALSE(dir.empty()) << "tests/repros not found under "
                            << DIPBENCH_SOURCE_DIR;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty()) << "empty repro corpus in " << dir;
  FuzzOptions opt;
  opt.jobs = 2;
  for (const std::string& path : paths) {
    auto repro = LoadRepro(path);
    ASSERT_TRUE(repro.ok()) << path << ": " << repro.status().ToString();
    auto result = ReplayRepro(*repro, opt);
    ASSERT_TRUE(result.ok()) << path << ": " << result.status().ToString();
    EXPECT_TRUE(result->conformant())
        << path << ":\n"
        << result->findings.front().diff.ToString();
  }
}

}  // namespace
}  // namespace conformance
}  // namespace dipbench
