#include "core/coverage.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace tj {
namespace {

/// Per-row memo of unit evaluations. Units repeat across the Cartesian-
/// product transformations, so each unit is evaluated at most once per row;
/// the paper's negative-unit cache is the kBad state.
///
/// The memo is allocated once per worker and invalidated per row with an
/// epoch counter — resetting multi-megabyte state vectors per row would
/// otherwise dominate the runtime on large inputs.
class RowUnitCache {
 public:
  /// With `use_memo` false (the paper's no-cache ablation) every evaluation
  /// recomputes from scratch and no negative knowledge is retained.
  RowUnitCache(size_t num_units, bool use_memo) : use_memo_(use_memo) {
    if (use_memo_) {
      // Epoch and state share one word (epoch << 2 | state): the pruning
      // scan that touches every transformation's units per row then costs
      // one 4-byte load per unit instead of two scattered ones.
      packed_.assign(num_units, 0);
      output_.resize(num_units);
    }
  }

  enum State : uint8_t {
    kUnknown = 0,
    kOk = 1,   // unit applies; output is a substring of the target
    kBad = 2,  // unit fails or its output is not in the target
  };

  /// Starts a new row: logically clears every memo entry in O(1).
  void BeginRow() { ++current_epoch_; }

  State state(UnitId id) const {
    if (!use_memo_) return kUnknown;
    const uint32_t packed = packed_[id];
    if ((packed >> 2) != current_epoch_) return kUnknown;
    return static_cast<State>(packed & 3u);
  }

  /// Evaluates (or recalls) the unit on this row. Returns kOk/kBad and, for
  /// kOk, sets *out to the unit's output.
  State Evaluate(const Unit& unit, UnitId id, std::string_view source,
                 std::string_view target, uint64_t* unit_evals,
                 std::string_view* out) {
    const State known = state(id);
    if (known != kUnknown) {
      if (known == kOk) *out = output_[id];
      return known;
    }
    ++*unit_evals;
    const auto produced = unit.Eval(source);
    const bool ok = produced.has_value() &&
                    (produced->empty() ||
                     target.find(*produced) != std::string_view::npos);
    const State state = ok ? kOk : kBad;
    if (ok) *out = *produced;
    if (use_memo_) {
      packed_[id] = (current_epoch_ << 2) | state;
      if (ok) output_[id] = *produced;
    }
    return state;
  }

 private:
  const bool use_memo_;
  // 30-bit row epoch: a cache instance lives for one coverage pass over at
  // most a few thousand rows, nowhere near the billion BeginRow calls a
  // wrap would take.
  uint32_t current_epoch_ = 0;
  std::vector<uint32_t> packed_;
  std::vector<std::string_view> output_;
};

using CoveringPair = std::pair<uint32_t, uint32_t>;  // (transformation, row)

/// Evaluates every transformation against rows [begin, end), appending
/// covering pairs in row-major order. Rows are independent (the cache is
/// reset per row), so the counters accumulated into `stats` are exact
/// regardless of how the row space is sharded.
void EvaluateRowRange(const TransformationStore& store,
                      const UnitInterner& interner,
                      const std::vector<ExamplePair>& rows, size_t begin,
                      size_t end, const DiscoveryOptions& options,
                      RowUnitCache* cache,
                      std::vector<CoveringPair>* covering,
                      DiscoveryStats* stats) {
  ScopedTimer cpu_timer(&stats->cpu_apply);
  const size_t num_t = store.size();
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();

    for (TransformationId t = 0; t < num_t; ++t) {
      const std::span<const UnitId> t_units = store.Get(t).units();

      if (options.enable_neg_cache) {
        // The paper's pruning: skip the transformation outright if any of
        // its units is already known not to cover this row.
        bool pruned = false;
        for (UnitId id : t_units) {
          if (cache->state(id) == RowUnitCache::kBad) {
            pruned = true;
            break;
          }
        }
        if (pruned) {
          ++stats->cache_hits;
          continue;
        }
      }

      ++stats->full_evaluations;
      size_t offset = 0;
      bool covers = true;
      for (UnitId id : t_units) {
        std::string_view out;
        const auto state = cache->Evaluate(interner.Get(id), id, src, tgt,
                                           &stats->unit_evals, &out);
        if (state == RowUnitCache::kBad) {
          covers = false;
          break;
        }
        if (out.size() > tgt.size() - offset ||
            tgt.compare(offset, out.size(), out) != 0) {
          covers = false;
          break;
        }
        offset += out.size();
      }
      if (covers && offset == tgt.size()) {
        covering->emplace_back(static_cast<uint32_t>(t),
                               static_cast<uint32_t>(row));
        ++stats->covering_pairs;
      }
    }
  }
}

}  // namespace

CoverageIndex ComputeCoverage(const TransformationStore& store,
                              const UnitInterner& interner,
                              const std::vector<ExamplePair>& rows,
                              const DiscoveryOptions& options,
                              DiscoveryStats* stats) {
  ScopedTimer total(&stats->time_apply);
  CoverageIndex index;
  const size_t num_t = store.size();
  index.offsets_.assign(num_t + 1, 0);
  if (num_t == 0) return index;

  // Row-major evaluation: the per-row unit cache stays hot, and every unit
  // is evaluated at most once per row. Covering pairs are collected and
  // counting-sorted into CSR by transformation afterwards.
  std::vector<CoveringPair> covering;
  const int num_threads = options.pool != nullptr
                              ? options.pool->size()
                              : ResolveNumThreads(options.num_threads);

  if (num_threads == 1 || rows.size() < 2 || InParallelFor()) {
    RowUnitCache cache(interner.size(), options.enable_neg_cache);
    EvaluateRowRange(store, interner, rows, 0, rows.size(), options, &cache,
                     &covering, stats);
  } else {
    // Sharded evaluation. Chunks are contiguous row ranges merged in chunk
    // order, so the covering list below is in the same row-major order as
    // the serial path and the CSR index comes out bit-identical. The unit
    // cache is worker-scoped (it is large) and reset per row, so dynamic
    // chunk-to-worker assignment cannot change any result or counter.
    // When no shared pool is supplied, never spawn more workers (threads +
    // per-worker caches) than rows.
    PoolRef pool_ref(options.pool,
                     static_cast<int>(std::min<size_t>(
                         static_cast<size_t>(num_threads), rows.size())));
    ThreadPool& pool = pool_ref.get();
    const size_t num_chunks =
        std::min(rows.size(), static_cast<size_t>(pool.size()) * 4);
    std::vector<std::unique_ptr<RowUnitCache>> caches(
        static_cast<size_t>(pool.size()));
    for (auto& cache : caches) {
      cache = std::make_unique<RowUnitCache>(interner.size(),
                                             options.enable_neg_cache);
    }
    std::vector<std::vector<CoveringPair>> chunk_covering(num_chunks);
    std::vector<DiscoveryStats> worker_stats(static_cast<size_t>(pool.size()));

    pool.ParallelFor(rows.size(), num_chunks,
                     [&](int worker, size_t chunk, size_t begin, size_t end) {
                       EvaluateRowRange(store, interner, rows, begin, end,
                                        options, caches[worker].get(),
                                        &chunk_covering[chunk],
                                        &worker_stats[worker]);
                     });

    size_t total_pairs = 0;
    for (const auto& chunk : chunk_covering) total_pairs += chunk.size();
    covering.reserve(total_pairs);
    for (auto& chunk : chunk_covering) {
      covering.insert(covering.end(), chunk.begin(), chunk.end());
    }
    // Full element-wise merge so counters added to EvaluateRowRange later
    // keep aggregating in parallel runs too. Worker wall-time fields are
    // zero (the phase is wall-timed once by the enclosing ScopedTimer);
    // cpu_apply sums each worker's seconds inside EvaluateRowRange.
    for (const DiscoveryStats& ws : worker_stats) *stats += ws;
  }

  // Counting sort into CSR (rows ascending within each transformation
  // because the evaluation order is row-major).
  for (const auto& [t, row] : covering) ++index.offsets_[t + 1];
  for (size_t t = 1; t <= num_t; ++t) {
    index.offsets_[t] += index.offsets_[t - 1];
  }
  index.rows_.resize(covering.size());
  std::vector<uint32_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (const auto& [t, row] : covering) index.rows_[cursor[t]++] = row;
  return index;
}

}  // namespace tj
