// Process-wide counters of storage degradation events. The out-of-core
// stack never aborts on a spill I/O failure — it falls back to the heap or
// skips the optimization and keeps going — so these counters (plus a stderr
// warning at the event site) are how a run reports that it survived
// something. The fault-injection tests read them.

#ifndef TJ_TABLE_STORAGE_EVENTS_H_
#define TJ_TABLE_STORAGE_EVENTS_H_

#include <cstdint>

namespace tj {

struct StorageEventCounters {
  /// Columns whose bytes were migrated from a spill arena onto the heap
  /// because the arena could not be created, grown, or re-mapped.
  uint64_t heap_fallback_columns = 0;
  /// Spill I/O failures absorbed without aborting and without data loss
  /// (heap fallbacks, skipped evictions whose sync failed, ...).
  uint64_t spill_errors_recovered = 0;
};

/// Snapshot of the process-wide counters (relaxed atomics; exact once the
/// threads that produced the events have joined).
StorageEventCounters GetStorageEventCounters();

/// Event sites bump these; tests reset between scenarios.
void RecordHeapFallbackColumn();
void RecordSpillErrorRecovered();
void ResetStorageEventCounters();

}  // namespace tj

#endif  // TJ_TABLE_STORAGE_EVENTS_H_
