#ifndef DIPBENCH_PERFBENCH_ALLOC_HOOK_H_
#define DIPBENCH_PERFBENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through the global operator new since the
/// process started, counted only while counting is enabled. The benchmark
/// replaces operator new/delete (alloc_hook.cc); with counting off the
/// hook costs one relaxed load per allocation.
struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool enabled);
AllocTotals ReadAllocTotals();

}  // namespace perfbench

#endif  // DIPBENCH_PERFBENCH_ALLOC_HOOK_H_
