// Side-by-side comparison of the two integration-system realizations.
//
// Runs the identical DIPBench workload against (a) the native dataflow
// engine and (b) the federated-DBMS realization (the costs of paper
// Fig. 9's queue tables, triggers and stored procedures) and prints
// per-process NAVG+ next to each other — the paper's observation that
// relationally realized process types optimize well while XML-message
// types do not becomes visible in the ratio column.

#include <cstdio>

#include "src/dipbench/client.h"
#include "src/dipbench/processes.h"

using namespace dipbench;

namespace {

Result<BenchmarkResult> RunOn(const std::string& kind,
                              const ScaleConfig& config) {
  DIP_ASSIGN_OR_RETURN(auto scenario, Scenario::Create());
  std::unique_ptr<core::IntegrationSystem> engine;
  if (kind == "federated") {
    engine = std::make_unique<core::FederatedEngine>(scenario->network());
  } else {
    engine = std::make_unique<core::DataflowEngine>(scenario->network());
  }
  Client client(scenario.get(), engine.get(), config);
  return client.Run();
}

}  // namespace

int main() {
  ScaleConfig config;
  config.datasize = 0.05;
  config.periods = 5;

  auto dataflow = RunOn("dataflow", config);
  auto federated = RunOn("federated", config);
  if (!dataflow.ok() || !federated.ok()) {
    std::fprintf(stderr, "run failed: %s %s\n",
                 dataflow.status().ToString().c_str(),
                 federated.status().ToString().c_str());
    return 1;
  }

  std::printf("DIPBench engine comparison [d=%.2f, %d periods]\n",
              config.datasize, config.periods);
  std::printf("%-5s %-3s %12s %12s %8s\n", "Proc", "E", "dataflow",
              "federated", "ratio");
  for (const auto& m : dataflow->per_process) {
    double fed = federated->NavgPlus(m.process_id);
    std::printf("%-5s %-3s %12.1f %12.1f %8.2f\n", m.process_id.c_str(),
                IsE1Process(m.process_id) ? "E1" : "E2", m.navg_plus_tu, fed,
                m.navg_plus_tu > 0 ? fed / m.navg_plus_tu : 0.0);
  }
  std::printf(
      "\nE1 rows (XML message processes) show ratios > 1: the federated\n"
      "realization pays for XML functionality outside its optimizer.\n");
  return 0;
}
