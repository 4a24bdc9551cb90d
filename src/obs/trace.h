#ifndef DIPBENCH_OBS_TRACE_H_
#define DIPBENCH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace dipbench {
namespace obs {

/// Span cost category, mirroring the paper's metric decomposition:
/// Cc (communication), Cm (internal management), Cp (processing).
/// Structural spans (instances, operators, periods, streams) carry kNone;
/// only *leaf* spans emitted by the cost ledger carry a category, so the
/// per-category sum over leaf spans reconciles exactly with the Monitor's
/// Cc/Cm/Cp totals (no double counting through parents).
enum class Category { kNone, kComm, kManagement, kProcessing };

const char* CategoryName(Category c);

/// One recorded span. All times are VIRTUAL milliseconds — the recorder
/// never consults a wall clock, so traces are deterministic per
/// (seed, scale factors) exactly like the benchmark numbers themselves.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (no enclosing span on the track).
  int depth = 0;
  int track = 0;  ///< Render lane (worker slot, client, ...).
  std::string name;
  Category category = Category::kNone;
  VirtualTime begin_ms = 0.0;
  VirtualTime end_ms = 0.0;
  std::vector<std::pair<std::string, std::string>> annotations;

  double DurationMs() const { return end_ms - begin_ms; }
};

/// Collects nestable spans. Nesting is tracked per `track`: a BeginSpan
/// parents under the innermost still-open span of the same track, which
/// matches the engine's execution structure (one instance at a time per
/// worker slot; sequential periods/streams on the client track).
///
/// The recorder is designed to be reached through an ObsContext pointer
/// that may be null: every instrumentation site guards on the pointer, so
/// a disabled run performs no calls and no allocations here.
///
/// Thread-safety contract: a TraceRecorder is owned by ONE benchmark run
/// and only touched from that run's thread (the parallel harness creates
/// one recorder per run). It is deliberately unsynchronized — span nesting
/// is a per-run execution structure, and sharing one recorder between
/// concurrent runs would interleave their stacks meaninglessly. Read it
/// after the run (or its thread) has finished.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a span at virtual time `begin_ms`; returns its id (never 0).
  uint64_t BeginSpan(std::string name, Category category, VirtualTime begin_ms,
                     int track = 0);

  /// Closes span `id` at `end_ms`. Closing a span also closes any deeper
  /// spans still open on its track (defensive; balanced callers never
  /// trigger it).
  void EndSpan(uint64_t id, VirtualTime end_ms);

  /// Records an already-finished leaf span (one cost charge, one external
  /// round trip). Parents under the innermost open span of the track.
  uint64_t AddCompleteSpan(std::string name, Category category,
                           VirtualTime begin_ms, VirtualTime end_ms,
                           int track = 0);

  /// Attaches a key/value annotation to a span (open or finished).
  void Annotate(uint64_t id, std::string key, std::string value);

  /// Names a track for the exporters ("worker 0", "client", ...).
  void NameTrack(int track, std::string name);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<int, std::string>& track_names() const {
    return track_names_;
  }
  size_t span_count() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }
  void Clear();

  /// Sum of leaf-span durations carrying `category` — the reconciliation
  /// hook against the Monitor's cost totals.
  double CategoryTotalMs(Category category) const;

 private:
  Span* Find(uint64_t id);

  std::vector<Span> spans_;
  std::map<int, std::vector<uint64_t>> open_;  ///< Per-track span stacks.
  std::map<int, std::string> track_names_;
  uint64_t next_id_ = 1;
};

}  // namespace obs
}  // namespace dipbench

#endif  // DIPBENCH_OBS_TRACE_H_
