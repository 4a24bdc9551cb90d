#ifndef DIPBENCH_CORE_SCHEDULER_H_
#define DIPBENCH_CORE_SCHEDULER_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/core/process.h"

namespace dipbench {
namespace core {

/// One queued instance of a wave, in serial order (the order the serial
/// engine would execute: ascending (when, submission seq)).
struct WaveNode {
  const ProcessDefinition* def = nullptr;
  /// Declared predecessor process types (ProcessEvent::after_types); may be
  /// null or empty.
  const std::vector<std::string>* after_types = nullptr;
};

/// The dependency DAG over one wave, split by WHAT a successor waits for:
///
///   capture_preds[i] — node i may not start capturing until these nodes
///                      have CAPTURED (their side effects are applied by
///                      the capture itself: table writes, upserts, reads).
///   replay_preds[i]  — node i may not start capturing until these nodes
///                      have REPLAYED. Used for append-claimed
///                      predecessors: their buffered rows only reach the
///                      base table when the controller flushes them at
///                      replay, so a reader/writer of that table must wait
///                      for the flush, not just the capture.
///
/// Every edge points from an earlier serial index to a later one, so
/// serial order is always a valid topological order.
struct WaveEdges {
  std::vector<std::vector<int>> capture_preds;
  std::vector<std::vector<int>> replay_preds;
};

/// Builds the dependency DAG over one wave of queued instances. An edge is
/// added when:
///
///   * the two nodes CONFLICT on a declared resource: write/write or
///     read/write on a table, a table access vs. whole-db exclusivity, or
///     both calling an endpoint in `stateful_endpoints` — one whose fault
///     injector depends on global call arrival order. Appends
///     (kAppendTable) do NOT conflict with each other — their rows are
///     buffered at capture and flushed in serial order at replay — but a
///     later reader or writer of the table takes a replay edge from every
///     appender since the last writer (it must see the flushed rows), and
///     an appender takes a capture edge from the last writer. An earlier
///     reader needs NO edge to a later appender: the flush happens at the
///     appender's replay, which strictly follows the reader's capture.
///   * the later node declares the earlier node's process type in
///     `after_types` (the schedule's explicit precedence constraints) —
///     one capture edge per earlier instance of that type;
///   * `chain_same_type` is set and both nodes are instances of the same
///     process type (engines whose realization keeps per-type state — the
///     federated queue tables and tid sequences — serialize same-type
///     instances; dataflow-style engines do not need to);
///   * either node has NO claims — such a node is treated as writing a
///     universal resource every node reads, i.e. it is a full barrier (it
///     also takes replay edges from every appender before it).
WaveEdges BuildWaveEdges(const std::vector<WaveNode>& nodes,
                         const std::set<std::string>& stateful_endpoints,
                         bool chain_same_type);

/// Executes one wave on a worker pool in two phases per instance:
///
///   execute(i)  — runs the instance's attempts on a worker thread against
///                 the (conflict-protected) external systems, capturing
///                 costs/spans/results on the side. Returns true when the
///                 capture is complete, false when the instance DEFERRED
///                 (it needs serial continuation — e.g. an instance budget
///                 that depends on virtual admission time).
///   replay(i)   — commits instance i's captured results into the engine's
///                 shared state (clock, records, monitor, trace) on the
///                 controller thread, in STRICT serial order. For deferred
///                 instances it also finishes the remaining attempts.
///                 Returns false to abort the wave.
///
/// Capture successors of a completed instance are released as soon as its
/// capture finishes (pipelining); replay successors — and every successor
/// of a DEFERRED instance — only after its replay. Run returns false when
/// a replay aborted — instances already executing finish their capture
/// first, but no new instance starts, and later replays never run (their
/// external side effects may persist; see SPECIFICATION.md §13).
///
/// workers <= 1, or a wave of one instance, degenerates to
/// `execute(i); replay(i)` in serial order on the calling thread —
/// structurally identical to the serial engine — and never builds the
/// dependency DAG.
class WaveRunner {
 public:
  struct Hooks {
    /// Builds the wave's dependency DAG (one entry per instance). Called
    /// once, and only when the wave runs on the pool.
    std::function<WaveEdges()> edges;
    std::function<bool(int)> execute;
    std::function<bool(int)> replay;
  };

  /// Runs a wave of `n` instances. Returns true when every instance
  /// replayed, false on abort.
  static bool Run(int n, int workers, const Hooks& hooks);
};

}  // namespace core
}  // namespace dipbench

#endif  // DIPBENCH_CORE_SCHEDULER_H_
