#include "src/core/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <queue>
#include <thread>

#include "src/storage/spill.h"

namespace dipbench {
namespace core {

WaveEdges BuildWaveEdges(const std::vector<WaveNode>& nodes,
                         const std::set<std::string>& stateful_endpoints,
                         bool chain_same_type) {
  const int n = static_cast<int>(nodes.size());
  std::vector<std::set<int>> cap(n);
  std::vector<std::set<int>> rep(n);

  // Per-resource conflict state: the classic last-writer + readers-since
  // construction, extended with the appenders since the last writer. A read
  // depends on the last writer (capture) and on every appender since (replay
  // — their rows only land at flush). A write additionally anti-depends on
  // the readers since, then becomes the last writer. An append depends on
  // the last writer only: appenders commute with each other (buffers flush
  // in serial order regardless) and with readers-since (a later reader gets
  // a replay edge; an EARLIER reader captured before the flush by
  // construction, since flushes happen at the appender's replay and the
  // controller replays in serial order).
  struct ResState {
    int last_writer = -1;
    std::vector<int> readers;
    std::vector<int> appenders;
  };
  std::map<std::string, ResState> res;
  std::map<std::string, std::vector<int>> of_type;
  // Nodes holding append buffers not yet ordered before a barrier.
  std::vector<int> live_appenders;
  std::vector<char> has_append(n, 0);

  auto cap_edge = [&](int from, int to) {
    if (from >= 0 && from != to) cap[to].insert(from);
  };
  auto rep_edge = [&](int from, int to) {
    if (from >= 0 && from != to) rep[to].insert(from);
  };

  enum Access : char { kRead, kAppend, kWrite };

  for (int i = 0; i < n; ++i) {
    const ProcessDefinition& def = *nodes[i].def;
    const bool barrier = def.claims.empty();

    // Deduplicated resource accesses of this node. Mixing kinds on one
    // resource (read+append, anything+write) degrades to a write — the
    // conservative ordering; the append contract says the body never reads
    // the table back, so well-authored claims never hit this.
    std::map<std::string, Access> acc;
    auto touch = [&](std::string r, Access a) {
      auto [it, inserted] = acc.emplace(std::move(r), a);
      if (!inserted && it->second != a) it->second = kWrite;
    };

    // Every node reads the universal resource; a claims-less node WRITES it,
    // making it a full barrier against claimed and claims-less nodes alike.
    touch("*", barrier ? kWrite : kRead);
    for (const ResourceClaim& c : def.claims) {
      switch (c.kind) {
        case ResourceClaim::Kind::kReadTable:
          touch("t:" + c.db + "/" + c.name, kRead);
          touch("d:" + c.db, kRead);
          break;
        case ResourceClaim::Kind::kWriteTable:
          touch("t:" + c.db + "/" + c.name, kWrite);
          touch("d:" + c.db, kRead);
          break;
        case ResourceClaim::Kind::kAppendTable:
          touch("t:" + c.db + "/" + c.name, kAppend);
          touch("d:" + c.db, kRead);
          if (!has_append[i]) {
            has_append[i] = 1;
            live_appenders.push_back(i);
          }
          break;
        case ResourceClaim::Kind::kExclusiveDb:
          touch("d:" + c.db, kWrite);
          break;
        case ResourceClaim::Kind::kEndpoint:
          // Only endpoints with order-stateful fault injectors order calls;
          // stateless endpoints draw keyed (order-free) and need no edge.
          if (stateful_endpoints.count(c.name) > 0) {
            touch("e:" + c.name, kWrite);
          }
          break;
      }
    }

    if (barrier) {
      // A barrier must observe every unflushed append buffer, wherever it
      // is: wait for those replays, not just the captures.
      for (int a : live_appenders) rep_edge(a, i);
      live_appenders.clear();
    }

    for (const auto& [r, a] : acc) {
      ResState& state = res[r];
      switch (a) {
        case kRead:
          cap_edge(state.last_writer, i);
          for (int ap : state.appenders) rep_edge(ap, i);
          state.readers.push_back(i);
          break;
        case kAppend:
          cap_edge(state.last_writer, i);
          state.appenders.push_back(i);
          break;
        case kWrite:
          cap_edge(state.last_writer, i);
          for (int reader : state.readers) cap_edge(reader, i);
          for (int ap : state.appenders) rep_edge(ap, i);
          state.last_writer = i;
          state.readers.clear();
          state.appenders.clear();
          break;
      }
    }

    // Declared precedence: after EVERY earlier instance of each named type
    // (instances of a type need not chain, so last-of-type is not enough).
    // An append-claimed predecessor must have FLUSHED, not just captured.
    if (nodes[i].after_types != nullptr) {
      for (const std::string& type : *nodes[i].after_types) {
        auto it = of_type.find(type);
        if (it == of_type.end()) continue;
        for (int p : it->second) {
          if (has_append[p]) {
            rep_edge(p, i);
          } else {
            cap_edge(p, i);
          }
        }
      }
    }
    // Same-process-type chain (engines with per-type realization state).
    if (chain_same_type) {
      auto it = of_type.find(def.id);
      if (it != of_type.end()) cap_edge(it->second.back(), i);
    }
    of_type[def.id].push_back(i);
  }

  WaveEdges out;
  out.capture_preds.resize(n);
  out.replay_preds.resize(n);
  for (int i = 0; i < n; ++i) {
    out.capture_preds[i].assign(cap[i].begin(), cap[i].end());
    out.replay_preds[i].assign(rep[i].begin(), rep[i].end());
  }
  return out;
}

bool WaveRunner::Run(int n, int workers, const Hooks& hooks) {
  if (n == 0) return true;

  // A single-instance wave (every batch-stream tick is one) or a single
  // worker cannot overlap anything: run the degenerate capture/replay loop
  // inline instead of paying for a pool.
  if (workers <= 1 || n == 1) {
    for (int i = 0; i < n; ++i) {
      hooks.execute(i);
      if (!hooks.replay(i)) return false;
    }
    return true;
  }

  const WaveEdges edges = hooks.edges();
  // A node's indegree counts capture edges AND replay edges; an edge present
  // in both lists is released twice (once at the predecessor's capture, once
  // at its replay), so the double count cancels — no dedup needed.
  std::vector<std::vector<int>> cap_succs(n);
  std::vector<std::vector<int>> rep_succs(n);
  std::vector<int> indeg(n, 0);
  for (int i = 0; i < n; ++i) {
    indeg[i] = static_cast<int>(edges.capture_preds[i].size() +
                                edges.replay_preds[i].size());
    for (int p : edges.capture_preds[i]) cap_succs[p].push_back(i);
    for (int p : edges.replay_preds[i]) rep_succs[p].push_back(i);
  }

  std::mutex mu;
  std::condition_variable ready_cv;     // workers: new ready work / shutdown
  std::condition_variable captured_cv;  // controller: the frontier captured
  // Ready instances, lowest serial index first — heads the pool toward the
  // replay frontier so the controller rarely stalls.
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  enum : char { kPending = 0, kRunning = 1, kCaptured = 2 };
  std::vector<char> status(n, kPending);
  std::vector<char> deferred(n, 0);
  int want = 0;  ///< serial index whose capture the controller awaits
  bool abort = false;
  bool shutdown = false;

  for (int i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push(i);
  }

  // Pool threads inherit the submitting thread's (thread-local) operator
  // memory budget, same as the inter-run harness pool.
  const size_t budget = CurrentMemoryBudget();
  auto worker_loop = [&]() {
    ScopedMemoryBudget scoped_budget(budget);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      ready_cv.wait(lock, [&] { return !ready.empty() || shutdown || abort; });
      if (abort || shutdown) return;
      int i = ready.top();
      ready.pop();
      // After capturing i, chain straight into one successor it released
      // (a dependency chain stays on one core with its working set hot)
      // instead of round-tripping every node through the queue.
      while (true) {
        status[i] = kRunning;
        lock.unlock();
        const bool complete = hooks.execute(i);
        lock.lock();
        status[i] = kCaptured;
        deferred[i] = complete ? 0 : 1;
        int next = -1;
        int extra = 0;
        if (complete) {
          // A completed capture releases its capture successors; replay
          // successors (and everything after a DEFERRED node) wait for the
          // controller.
          for (int s : cap_succs[i]) {
            if (--indeg[s] == 0) {
              if (next < 0) {
                next = s;
              } else {
                ready.push(s);
                ++extra;
              }
            }
          }
        }
        // Targeted wakeups: the controller only stalls on the frontier, and
        // idle workers only care about nodes actually pushed to the queue.
        if (i == want) captured_cv.notify_one();
        for (; extra > 0; --extra) ready_cv.notify_one();
        if (abort || shutdown) return;
        if (next < 0) break;
        i = next;
      }
    }
  };

  const int pool = std::min(workers, n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(pool));
  for (int t = 0; t < pool; ++t) threads.emplace_back(worker_loop);

  bool ok = true;
  for (int r = 0; r < n && ok; ++r) {
    {
      std::unique_lock<std::mutex> lock(mu);
      want = r;
      captured_cv.wait(lock, [&] { return status[r] >= kCaptured; });
    }
    // deferred[r] was published by the capture above (same mutex), and no
    // thread writes it afterwards — safe to read unlocked.
    ok = hooks.replay(r);
    if (!ok) {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
      ready_cv.notify_all();
    } else if (deferred[r] || !rep_succs[r].empty()) {
      // The replay just settled r's side effects: flushed append buffers
      // (replay successors may now read them) and — for a deferred instance
      // (retry budget pending) — the remaining attempts, which held back
      // even its capture successors.
      std::lock_guard<std::mutex> lock(mu);
      int woken = 0;
      auto release = [&](const std::vector<int>& succs) {
        for (int s : succs) {
          if (--indeg[s] == 0) {
            ready.push(s);
            ++woken;
          }
        }
      };
      release(rep_succs[r]);
      if (deferred[r]) release(cap_succs[r]);
      for (; woken > 0; --woken) ready_cv.notify_one();
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    shutdown = true;
    ready_cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

}  // namespace core
}  // namespace dipbench
