// Golden Monitor-CSV snapshot tests (SPECIFICATION.md §15.5).
//
// Runs the fixed golden configuration (d = 0.01, 4 periods, default seed)
// through both engines, clean and faulted, and compares each Monitor CSV
// byte for byte against the snapshot committed under tests/golden/. A
// mismatch prints the first differing line of both versions — the CSV is
// the benchmark's primary observable, so any drift is either an intended
// change (rerun with --update-golden and review the diff) or a
// regression.
//
// Regenerate:   ./golden_test --update-golden
// (also honored as the DIPBENCH_UPDATE_GOLDEN=1 environment variable)

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/harness/harness.h"

namespace dipbench {
namespace {

bool g_update_golden = false;

/// The one fixed configuration every golden snapshot uses. Everything that
/// feeds the schedule is pinned; only the engine varies per snapshot.
ScaleConfig GoldenConfig() {
  ScaleConfig config;
  config.datasize = 0.01;
  config.periods = 4;
  return config;  // seed, error_rate, worker_slots: compiled-in defaults
}

/// GoldenConfig under faults and recovery. It exercises both kinds of fault
/// draw: the keyed per-call draws (error rate, latency spikes) and the
/// order-stateful sequences (a CDB outage window, a US east-coast error
/// phase), with retries that succeed and instances that dead-letter.
ScaleConfig FaultedGoldenConfig() {
  ScaleConfig config = GoldenConfig();
  config.fault_rate = 0.05;
  config.fault_spike_rate = 0.02;
  config.fault_spike_tu = 5.0;
  config.retry_max_attempts = 4;
  config.retry_backoff_tu = 1.0;
  config.retry_dead_letter = true;
  config.outages.push_back(OutageWindow{"cdb-outage", "cdb", 10, 16});
  config.error_phases.push_back(
      ErrorPhaseSpec{"east-errors", "us_eastcoast", 5, 20, 0.3});
  return config;
}

/// tests/golden/ of the source tree the binary was built from, wherever
/// the build directory is.
std::string GoldenDir() {
  std::string dir = std::string(DIPBENCH_SOURCE_DIR) + "/tests/golden";
  return std::filesystem::is_directory(dir) ? dir : "";
}

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// "line 7:\n  golden: ...\n  actual: ..." — the readable diff.
std::string FirstLineDiff(const std::string& golden,
                          const std::string& actual) {
  std::vector<std::string> g = SplitLines(golden);
  std::vector<std::string> a = SplitLines(actual);
  size_t n = std::max(g.size(), a.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string* gl = i < g.size() ? &g[i] : nullptr;
    const std::string* al = i < a.size() ? &a[i] : nullptr;
    if (gl != nullptr && al != nullptr && *gl == *al) continue;
    std::ostringstream out;
    out << "first difference at line " << (i + 1) << ":\n";
    out << "  golden: " << (gl ? *gl : "<missing — golden is shorter>")
        << "\n";
    out << "  actual: " << (al ? *al : "<missing — actual is shorter>");
    return out.str();
  }
  return "texts are identical";
}

/// Runs `config` on `engine` into *out and compares its Monitor CSV with
/// tests/golden/<snapshot>.
void CheckGoldenCsv(const std::string& engine, const ScaleConfig& config,
                    const std::string& snapshot, harness::RunOutcome* out) {
  std::string dir = GoldenDir();
  ASSERT_FALSE(dir.empty()) << "tests/golden not found under "
                            << DIPBENCH_SOURCE_DIR;
  std::string path = dir + "/" + snapshot;

  harness::RunSpec spec;
  spec.config = config;
  spec.engine = engine;
  spec.label = "golden/" + engine;
  *out = harness::RunnerPool::ExecuteOne(spec);
  ASSERT_TRUE(out->ok) << out->error;
  ASSERT_FALSE(out->monitor_csv.empty());

  if (g_update_golden) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(file)) << "cannot write " << path;
    file << out->monitor_csv;
    std::printf("updated %s (%zu bytes)\n", path.c_str(),
                out->monitor_csv.size());
    return;
  }

  bool read_ok = false;
  std::string golden = ReadFile(path, &read_ok);
  ASSERT_TRUE(read_ok) << "missing golden snapshot " << path
                       << " — regenerate with: golden_test --update-golden";
  EXPECT_EQ(golden, out->monitor_csv)
      << "Monitor CSV drifted from " << path << "\n"
      << FirstLineDiff(golden, out->monitor_csv) << "\n"
      << "If this change is intended, rerun with --update-golden and "
         "review the snapshot diff.";
}

TEST(GoldenMonitorCsvTest, FederatedEngineMatchesSnapshot) {
  harness::RunOutcome out;
  CheckGoldenCsv("federated", GoldenConfig(), "monitor_federated_d001.csv",
                 &out);
}

TEST(GoldenMonitorCsvTest, DataflowEngineMatchesSnapshot) {
  harness::RunOutcome out;
  CheckGoldenCsv("dataflow", GoldenConfig(), "monitor_dataflow_d001.csv",
                 &out);
}

// Faulted snapshots pin the bytes of retried and dead-lettered instances,
// and the recovery totals with them.
TEST(GoldenMonitorCsvTest, FaultedFederatedEngineMatchesSnapshot) {
  harness::RunOutcome out;
  CheckGoldenCsv("federated", FaultedGoldenConfig(),
                 "monitor_federated_faulted_d001.csv", &out);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.result.retries, 48u);
  EXPECT_EQ(out.result.dead_letters, 8u);
}

TEST(GoldenMonitorCsvTest, FaultedDataflowEngineMatchesSnapshot) {
  harness::RunOutcome out;
  CheckGoldenCsv("dataflow", FaultedGoldenConfig(),
                 "monitor_dataflow_faulted_d001.csv", &out);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.result.retries, 48u);
  EXPECT_EQ(out.result.dead_letters, 8u);
}

}  // namespace
}  // namespace dipbench

int main(int argc, char** argv) {
  // Strip --update-golden before GoogleTest parses the rest.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      dipbench::g_update_golden = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (const char* env = std::getenv("DIPBENCH_UPDATE_GOLDEN")) {
    if (env[0] != '\0' && env[0] != '0') dipbench::g_update_golden = true;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
