#ifndef DIPBENCH_DIPBENCH_PROCESSES_H_
#define DIPBENCH_DIPBENCH_PROCESSES_H_

#include <string>
#include <vector>

#include "src/core/process.h"

namespace dipbench {

/// Builds the 15 DIPBench process types of paper Table I:
///
/// | Group | ID  | E  | Description                                        |
/// |-------|-----|----|----------------------------------------------------|
/// |   A   | P01 | E1 | Master data exchange Asia (Beijing -> Seoul)       |
/// |   A   | P02 | E1 | Master data subscription Europe (MDM -> sources)   |
/// |   A   | P03 | E2 | Local data consolidation America -> US_Eastcoast   |
/// |   B   | P04 | E1 | Receive messages from Vienna (enrich + load CDB)   |
/// |   B   | P05 | E2 | Extract data from Berlin                           |
/// |   B   | P06 | E2 | Extract data from Paris                            |
/// |   B   | P07 | E2 | Extract data from Trondheim                        |
/// |   B   | P08 | E1 | Receive messages from Hongkong                     |
/// |   B   | P09 | E2 | Extract wrapped data from Beijing and Seoul        |
/// |   B   | P10 | E1 | Receive error-prone messages from San Diego        |
/// |   B   | P11 | E2 | Extract data from CDB America (US_Eastcoast)       |
/// |   C   | P12 | E2 | Bulk-loading data warehouse master data            |
/// |   C   | P13 | E2 | Bulk-loading data warehouse movement data          |
/// |   D   | P14 | E2 | Refreshing data mart data                          |
/// |   D   | P15 | E2 | Refreshing data mart materialized views            |
///
/// The definitions are platform-independent MTM graphs; the same set is
/// deployed into either engine. Deviations from the paper (where its prose
/// is under-specified) are noted inline and in DESIGN.md.
std::vector<core::ProcessDefinition> BuildProcesses();

/// Returns the definition for one id, e.g. "P04" (NotFound otherwise).
Result<core::ProcessDefinition> BuildProcess(const std::string& id);

/// True for the E1 types of Table I (initiated by a message, e.g. "P04"),
/// false for E2 types and unknown ids. Read off the definitions'
/// `event_type`, so reports and figures never keep their own list.
bool IsE1Process(const std::string& id);

}  // namespace dipbench

#endif  // DIPBENCH_DIPBENCH_PROCESSES_H_
