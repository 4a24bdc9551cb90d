#ifndef DIPBENCH_DIPBENCH_SCHEDULE_H_
#define DIPBENCH_DIPBENCH_SCHEDULE_H_

#include <string>
#include <vector>

#include "src/dipbench/config.h"

namespace dipbench {

/// The scheduling series of paper Table II. All times are in tu relative
/// to the owning stream's start T0(Stream_k); instance counts depend on the
/// benchmark period k and the datasize scale factor d.
///
/// Series (with our resolution of the two typographically damaged bounds,
/// see DESIGN.md):
///   P01: 2(m-1),            1 <= m <= floor((100-k)*d/5)  + 1
///   P02: 2m,                1 <= m <= floor((100-k)*d/10) + 1
///   P04: 2(m-1),            1 <= m <= floor(1100*d) + 1
///   P08: 2000 + 3(m-1),     1 <= m <= floor(900*d)  + 1
///   P10: 3000 + 2.5(m-1),   1 <= m <= floor(1050*d) + 1
/// P03, P05-P07, P09, P11-P15 are single executions whose firing times are
/// dependency-driven (tau_1 of their predecessors).
class Schedule {
 public:
  /// Number of process instances of an E1 series in period k. The P01/P02
  /// counts decrease with k — the paper designed this "to achieve a
  /// realistic scaling of master data management".
  static int InstanceCount(const std::string& process_id, int k, double d);

  /// Event times (tu, relative to the stream start) for an E1 series.
  static std::vector<double> SeriesTu(const std::string& process_id, int k,
                                      double d);

  /// Event times for the first `n` instances of an E1 series — the Table II
  /// cadence continued to an arbitrary count (scenario traffic shapes
  /// stretch or shrink a series without changing its rhythm).
  static std::vector<double> SeriesTuN(const std::string& process_id, int n);

  /// Last event time of the series (0 when the series is empty).
  static double SeriesEndTu(const std::string& process_id, int k, double d);

  /// The stream owning a process type: "A" (P01-P03 master data), "B"
  /// (P04-P11 movement data), "C" (P12/P13), "D" (P14/P15); "" when
  /// unknown. Scenario traffic shapes are keyed by these names.
  static const char* StreamOf(const std::string& process_id);

  /// The manifest-aware series: applies the config's traffic shape for the
  /// process's stream — instance-count modulation for period k, then the
  /// late-arrival window (seeded per (seed, process, period)). A config
  /// without scenario extensions returns SeriesTu unchanged, value for
  /// value.
  static std::vector<double> ShapedSeriesTu(const std::string& process_id,
                                            int k, const ScaleConfig& config);

  /// The fixed offset Table II adds between dependency-triggered time
  /// events when approximated on the schedule axis.
  static constexpr double kChainGapTu = 10.0;
};

}  // namespace dipbench

#endif  // DIPBENCH_DIPBENCH_SCHEDULE_H_
