#ifndef DIPBENCH_OBS_METRICS_H_
#define DIPBENCH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dipbench {
namespace obs {

/// Thread-safety contract of this module (see SPECIFICATION.md §11): each
/// benchmark run OWNS its TraceRecorder and MetricsRegistry — the parallel
/// harness (src/harness) creates one pair per run, so cross-run sharing
/// never happens on the hot paths. A run executes on one thread
/// (SPECIFICATION.md §13), but the registry stays safe to share across
/// threads:
///   * instrument creation (Get*) is mutex-guarded;
///   * Counter and Gauge writes are atomic (relaxed — they are statistics,
///     not synchronization);
///   * Histogram::Observe is concurrency-safe via per-worker shards merged
///     on read. count/min/max/bucket_counts (and therefore all quantiles)
///     are exact and independent of observation order; only `sum` (and
///     Mean) can differ in the last float bits between runs when multiple
///     threads observed the same histogram, because float addition is not
///     associative. Every byte-gated artifact is observed single-threaded.

/// Monotonically increasing event count. Increments are atomic so a
/// registry shared across threads stays race-free; reads are exact once
/// the writers are quiescent.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value. Atomic store/load; "last" is
/// unspecified under concurrent writers (it is a gauge, not a ledger).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Buckets are defined by their inclusive upper
/// bounds (ascending) plus an implicit overflow bucket; observation is
/// O(log buckets), quantiles are estimated by linear interpolation inside
/// the covering bucket (Prometheus-style). Exact min/max/sum/count are
/// tracked alongside, so p0/p100 are exact and interpolated quantiles are
/// clamped into [min, max].
///
/// Concurrency: observations land in one of a fixed set of shards picked by
/// the observing thread's id (each shard has its own mutex, so concurrent
/// workers rarely contend); readers merge the shards. All integer state and
/// min/max are exact regardless of interleaving; `sum` is the one field
/// whose float-addition order depends on which thread observed what.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(Histogram&& other);

  /// `count` buckets whose bounds grow geometrically from `start` by
  /// `factor` — the default shape for virtual-millisecond costs.
  static std::vector<double> ExponentialBuckets(double start, double factor,
                                                int count);

  void Observe(double v);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double Mean() const;

  /// Estimated value at quantile q in [0, 1]. Returns 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Merged per-bucket observation counts; index upper_bounds().size() is
  /// the overflow bucket. Returns a snapshot by value (the live counts are
  /// sharded).
  std::vector<uint64_t> bucket_counts() const;

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    std::vector<uint64_t> counts;  ///< upper_bounds_.size() + 1 entries.
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// A merged point-in-time view across shards.
  struct Merged {
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Merged Merge() const;
  Shard& ShardForThisThread();

  std::vector<double> upper_bounds_;
  Shard shards_[kShards];
};

/// Named metrics, injected into modules as part of an ObsContext instead of
/// living in a global. Instruments are created on first use and live as
/// long as the registry; returned pointers stay valid (node-based map).
///
/// Creation (Get*) is mutex-guarded so threads sharing one registry can
/// race on first use; the returned Counter/Gauge/Histogram pointers are
/// then safe to write from any thread (atomics / sharded locks). Read
/// accessors are for the owner or post-join aggregation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Returns the histogram `name`, creating it with `upper_bounds` if it
  /// does not exist yet (bounds of an existing histogram are kept).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  /// nullptr when the instrument was never created.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  mutable std::mutex mu_;  ///< Guards map insertion/lookup, not instruments.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Default bucket layout for virtual-millisecond durations: 0.01 ms up to
/// ~5 s in geometric steps.
std::vector<double> DefaultLatencyBucketsMs();

}  // namespace obs
}  // namespace dipbench

#endif  // DIPBENCH_OBS_METRICS_H_
