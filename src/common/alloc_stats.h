// Heap-allocation counters. The counters are plain atomics that live in the
// library; they only tick when a binary also links the replacement operator
// new/delete in bench/alloc_hooks.cc (only tj_alloc_tests does; the other
// tests, the benches and the examples do not pay for the hooks).
//
// Usage:
//   const AllocCounters before = CurrentAllocCounters();
//   ... code under measurement ...
//   const AllocCounters delta = CurrentAllocCounters() - before;
//   // delta.allocs / delta.bytes, valid when AllocCountingAvailable().

#ifndef TJ_COMMON_ALLOC_STATS_H_
#define TJ_COMMON_ALLOC_STATS_H_

#include <atomic>
#include <cstdint>

namespace tj {

struct AllocCounters {
  uint64_t allocs = 0;  // operator-new calls
  uint64_t bytes = 0;   // bytes requested from operator new

  AllocCounters operator-(const AllocCounters& other) const {
    return AllocCounters{allocs - other.allocs, bytes - other.bytes};
  }
};

/// Monotonic since process start; all zeros when the hooks are not linked.
AllocCounters CurrentAllocCounters();

/// True when bench/alloc_hooks.cc is linked into this binary (i.e. the
/// counters actually tick).
bool AllocCountingAvailable();

namespace alloc_internal {
extern std::atomic<uint64_t> g_allocs;
extern std::atomic<uint64_t> g_bytes;
extern std::atomic<bool> g_hooks_installed;
}  // namespace alloc_internal

}  // namespace tj

#endif  // TJ_COMMON_ALLOC_STATS_H_
