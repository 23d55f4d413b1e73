// Storage-core measurement: column arena footprint, the spilled-bytes and
// peak-RSS footprint, and the allocation count of the flat CSR index build,
// read from common/alloc_stats.h. bench_table2 records these fields in its
// JSON; tests/alloc_index_build_test.cc bounds the same allocation count,
// so the bench and the test measure the build with one loop.

#ifndef TJ_BENCHLIB_STORAGE_METRICS_H_
#define TJ_BENCHLIB_STORAGE_METRICS_H_

#include <cstdio>

#include "common/alloc_stats.h"
#include "table/table.h"

namespace tj {

/// Process peak resident set size in bytes (getrusage ru_maxrss); the
/// high-water mark since process start, so out-of-core phases must be
/// measured before any in-memory pass faults the whole corpus.
size_t PeakRssBytes();

struct StorageMetrics {
  size_t cells_bytes = 0;           // sum of column arena bytes
  size_t spilled_bytes = 0;         // bytes held in mmap spill files
  /// Peak RSS to report (a process-wide high-water mark, so sample it
  /// right after the phase it describes). 0 = sample at serialization time
  /// instead.
  size_t peak_rss_bytes = 0;
  size_t index_total_postings = 0;  // CSR postings over measured columns
  size_t index_memory_bytes = 0;    // CSR footprint of measured columns
  AllocCounters csr;                // allocations of the CSR builds

  /// Adds a table's arena + spill-file footprint to the byte counters (no
  /// index build).
  void AddCells(const Table& table) {
    cells_bytes += table.ArenaBytes();
    spilled_bytes += table.SpilledBytes();
  }

  /// Builds the flat CSR n-gram index over `column` on one thread,
  /// recording the build's allocation counters and the index's size. The
  /// paper's n0=4, nmax=20 range, lowercased.
  void MeasureColumn(const Column& column);
};

/// One-line human-readable summary.
void PrintStorageSummary(const StorageMetrics& m);

/// Writes the storage fields as the TAIL of a JSON object — the byte/alloc
/// counters plus peak_rss_bytes sampled at call time — followed by the
/// closing "}\n". The caller's previous field must end with ",\n".
void WriteStorageJsonTail(std::FILE* f, const StorageMetrics& m);

}  // namespace tj

#endif  // TJ_BENCHLIB_STORAGE_METRICS_H_
