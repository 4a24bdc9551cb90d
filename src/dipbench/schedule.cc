#include "src/dipbench/schedule.h"

#include <cmath>

namespace dipbench {

int Schedule::InstanceCount(const std::string& process_id, int k, double d) {
  if (process_id == "P01") {
    return static_cast<int>(std::floor((100.0 - k) * d / 5.0)) + 1;
  }
  if (process_id == "P02") {
    return static_cast<int>(std::floor((100.0 - k) * d / 10.0)) + 1;
  }
  if (process_id == "P04") return static_cast<int>(std::floor(1100 * d)) + 1;
  if (process_id == "P08") return static_cast<int>(std::floor(900 * d)) + 1;
  if (process_id == "P10") return static_cast<int>(std::floor(1050 * d)) + 1;
  return 1;  // single execution per period
}

std::vector<double> Schedule::SeriesTuN(const std::string& process_id, int n) {
  std::vector<double> out;
  if (n <= 0) return out;
  out.reserve(static_cast<size_t>(n));
  for (int m = 1; m <= n; ++m) {
    if (process_id == "P01") {
      out.push_back(2.0 * (m - 1));
    } else if (process_id == "P02") {
      out.push_back(2.0 * m);
    } else if (process_id == "P04") {
      out.push_back(2.0 * (m - 1));
    } else if (process_id == "P08") {
      out.push_back(2000.0 + 3.0 * (m - 1));
    } else if (process_id == "P10") {
      out.push_back(3000.0 + 2.5 * (m - 1));
    } else {
      out.push_back(0.0);
    }
  }
  return out;
}

std::vector<double> Schedule::SeriesTu(const std::string& process_id, int k,
                                       double d) {
  return SeriesTuN(process_id, InstanceCount(process_id, k, d));
}

double Schedule::SeriesEndTu(const std::string& process_id, int k, double d) {
  auto series = SeriesTu(process_id, k, d);
  return series.empty() ? 0.0 : series.back();
}

const char* Schedule::StreamOf(const std::string& process_id) {
  if (process_id == "P01" || process_id == "P02" || process_id == "P03") {
    return "A";
  }
  if (process_id == "P04" || process_id == "P05" || process_id == "P06" ||
      process_id == "P07" || process_id == "P08" || process_id == "P09" ||
      process_id == "P10" || process_id == "P11") {
    return "B";
  }
  if (process_id == "P12" || process_id == "P13") return "C";
  if (process_id == "P14" || process_id == "P15") return "D";
  return "";
}

std::vector<double> Schedule::ShapedSeriesTu(const std::string& process_id,
                                             int k,
                                             const ScaleConfig& config) {
  const std::string stream = StreamOf(process_id);
  const TrafficShape* shape = config.ShapeFor(stream);
  if (shape == nullptr || !shape->enabled()) {
    return SeriesTu(process_id, k, config.datasize);
  }
  int n = InstanceCount(process_id, k, config.datasize);
  double multiplier =
      shape->MultiplierFor(stream, k, config.periods, config.seed);
  int shaped = static_cast<int>(
      std::llround(static_cast<double>(n) * multiplier));
  if (shaped < 0) shaped = 0;
  std::vector<double> series = SeriesTuN(process_id, shaped);
  if (shape->late_fraction > 0.0 && shape->late_delay_tu > 0.0) {
    // Which instances run late is drawn from a stream private to
    // (seed, process, period) — stretching one series never reshuffles
    // another's late picks.
    Rng late(config.seed ^ SeedHash("late/" + process_id) ^
             (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k + 1)));
    for (double& t : series) {
      if (late.NextBool(shape->late_fraction)) t += shape->late_delay_tu;
    }
  }
  return series;
}

}  // namespace dipbench
