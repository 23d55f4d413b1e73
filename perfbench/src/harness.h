// Shared pieces of the benchmark harness: the fixed configuration, the
// metric record every workload fills, and small statistics helpers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Fixed configuration. Everything not listed here runs the shipped defaults
// of corpus_discovery_tool / tjd (index cache on at its default budget, LSH
// off, default pruner and learner options).
// ---------------------------------------------------------------------------

/// Threads of the benchmark process: a fixed constant, at most the 4
/// cores of the machine the bounds were set on, counting the harness's own
/// client threads. corpus_discover and corpus_ingest give kThreads to the
/// library's pool; serve_mixed gives kServePoolThreads to the server's pool
/// and runs kServeConnections client threads. Half the cores rather than
/// all four: on a shared 4-vCPU machine, repeated runs of one seed varied
/// less with two pool threads than with four. The server's pool has one
/// thread (ThreadPool(1) runs every job inline): a served query gained
/// nothing from a second pool thread, and the hand-offs to it made the
/// latencies follow the load of the rest of the machine (under
/// intermittent CPU load from other processes, the spread of query p50
/// over five runs of one seed fell from 0.14 to 0.04 with one thread).
inline constexpr int kThreads = 2;
inline constexpr int kServePoolThreads = 1;
inline constexpr int kServeConnections = 2;  // queries, updates

/// Fixed latency limits behind slo_share, one per workload's primary
/// operation (a failed operation always counts as a miss): about twice the
/// p90 measured when the benchmark was defined.
inline constexpr double kDiscoverPassLimitMs = 500.0;
inline constexpr double kIngestOpLimitMs = 300.0;
inline constexpr double kServeQueryLimitMs = 50.0;

/// serve_mixed open loop: requests are due at this fixed rate, about a
/// fifth of the ~90 queries/s the server sustained when the benchmark was
/// defined (at a half or a third of the capacity, queueing at the compute
/// gate amplified the machine's own speed drift into the latencies); every
/// kServeUpdateEvery-th request is an `update`, and every
/// kServeTransformJoinEvery-th of the rest is a `transform-join`.
inline constexpr double kServeArrivalPerSecond = 20.0;
inline constexpr size_t kServeUpdateEvery = 7;
inline constexpr size_t kServeTransformJoinEvery = 8;

/// The tail percentile, and the fewest samples a run takes of a latency
/// it reports it for: at least ten samples beyond p90.
inline constexpr double kTailPercentile = 0.90;
inline constexpr size_t kMinTailRun = 110;

/// Set-up repetitions per run; setup_s is their median. Five rather than
/// three: the median of three still varied by a fifth between runs.
/// serve_mixed's set-up is only ~45 ms (generation, fill, server start),
/// so it repeats kServeSetupRepeats times instead.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kServeSetupRepeats = 15;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one measured phase of a workload produced.
struct Outcome {
  /// End-to-end metrics (names as in BENCHMARK.json's end_to_end).
  Metrics end_to_end;
  /// Per-layer metrics derived from the spans (traced phases only) and
  /// the exact work counters (every phase). A layer the workload does not
  /// reach is left out; run.py reports it as 0.
  Metrics layers;
  /// Exact work counters; must repeat exactly across runs of one seed and
  /// between traced and untraced phases.
  std::map<std::string, uint64_t> counters;
  /// What else the counters depend on besides the workload, the seed and
  /// the build (serve_mixed: its request count, set by the run length);
  /// empty when nothing. Part of the key they are recorded under.
  std::string counters_scope;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness gates (each one fails the run).
  std::vector<std::string> gate_failures;
  /// Spans of a traced phase.
  std::vector<SpanRecord> spans;
};

/// One measured phase: runs the workload's set-up and timed part.
using WorkloadFn = Outcome (*)(const Args& args, double seconds, bool traced);

Outcome RunCorpusDiscover(const Args& args, double seconds, bool traced);
Outcome RunCorpusIngest(const Args& args, double seconds, bool traced);
Outcome RunServeMixed(const Args& args, double seconds, bool traced);

/// Directory (inside the checkout, relative to the working directory) for
/// sockets, CSV files, traces and counter records.
const std::string& WorkDir();

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 1]).
double Percentile(std::vector<double> values, double p);
/// Share of `values` at or below `limit`, counting `failed` extra misses.
double ShareWithin(const std::vector<double>& values, double limit,
                   uint64_t failed);
/// Peak resident set size since the process started or since the last
/// successful ResetPeakRss().
double PeakRssMb();
/// Restarts the peak at the current resident set size, so the next phase
/// of a run reports its own peak. False when the kernel refuses.
bool ResetPeakRss();

/// Adds "<name>_ms" for each span name: its spans' self time summed over
/// the phase (and over threads) and divided by `units` (passes, ops or
/// requests), i.e. the layer's time per unit of work.
void AddSelfTimeMetrics(const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& names, double units,
                        Metrics* layers);

/// FNV-1a accumulation, for output digests.
inline uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
inline uint64_t FnvString(uint64_t h, const std::string& s) {
  const uint64_t n = s.size();
  return Fnv(Fnv(h, &n, sizeof n), s.data(), s.size());
}
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
