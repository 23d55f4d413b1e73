#include "core/coverage.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tj {
namespace {

/// Per-row memo of unit evaluations. Units repeat across the Cartesian-
/// product transformations (and so across trie nodes), so each unit is
/// evaluated at most once per row; the paper's negative-unit cache is the
/// kBad state.
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
      // Epoch and state share one word (epoch << 2 | state), so a memo
      // lookup costs one 4-byte load instead of two scattered ones.
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

  /// Evaluates (or recalls) the unit on this row. Returns kOk/kBad and, for
  /// kOk, sets *out to the unit's output.
  State Evaluate(const Unit& unit, UnitId id, std::string_view source,
                 std::string_view target, uint64_t* unit_evals,
                 std::string_view* out) {
    if (use_memo_) {
      const uint32_t packed = packed_[id];
      if ((packed >> 2) == current_epoch_) {
        const auto known = static_cast<State>(packed & 3u);
        if (known == kOk) *out = output_[id];
        return known;
      }
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

/// Stable counting sort of items into CSR buckets: on return bucket b's
/// values are (*values)[(*begin)[b], (*begin)[b + 1]), in item order. Counts
/// sit two slots right, so filling through (*begin)[bucket + 1] leaves
/// (*begin)[b] at bucket b's first value without a cursor array.
template <typename BucketOf, typename ValueOf>
void CountingSortCsr(size_t num_buckets, size_t num_items, BucketOf bucket_of,
                     ValueOf value_of, std::vector<uint32_t>* begin,
                     std::vector<uint32_t>* values) {
  begin->assign(num_buckets + 2, 0);
  for (size_t i = 0; i < num_items; ++i) ++(*begin)[bucket_of(i) + 2];
  for (size_t b = 1; b < begin->size(); ++b) (*begin)[b] += (*begin)[b - 1];
  values->resize(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    (*values)[(*begin)[bucket_of(i) + 1]++] = value_of(i);
  }
  begin->pop_back();
}

/// Suffix trie of the store's unit sequences: every sequence is inserted
/// reversed, so a root-to-node path is a sequence tail, and a node's unit
/// must produce the end of the target prefix its ancestors left unmatched.
/// Node 0 is the root (depth 0, no unit).
///
/// The build walks ids in order and shares with each sequence only the
/// path of its common reversed prefix with the previous id. The generator's
/// odometer varies slot 0 fastest, so consecutive ids share their tails and
/// the build is sequential passes over the store with no hashing. New nodes
/// are always appended below the most recent node of their parent's depth,
/// so nodes come out in preorder and node n's subtree is the contiguous
/// range [n, skip[n]).
struct SuffixTrie {
  std::vector<UnitId> unit;
  std::vector<uint32_t> skip;
  std::vector<uint16_t> depth;
  // CSR node -> ids of the transformations whose sequence ends there:
  // terms[term_begin[n], term_begin[n + 1]), ascending.
  std::vector<uint32_t> term_begin;
  std::vector<TransformationId> terms;
  size_t max_depth = 0;

  size_t num_nodes() const { return unit.size(); }

  explicit SuffixTrie(const TransformationStore& store) {
    const size_t num_t = store.size();
    // Length of the tail id t shares with id t - 1.
    auto shared_tail = [&](TransformationId t) -> size_t {
      if (t == 0) return 0;
      const std::span<const UnitId> a = store.Get(t).units();
      const std::span<const UnitId> b = store.Get(t - 1).units();
      size_t k = 0;
      while (k < a.size() && k < b.size() &&
             a[a.size() - 1 - k] == b[b.size() - 1 - k]) {
        ++k;
      }
      return k;
    };
    // A counting pass sizes the node arrays exactly: they are written once
    // and never regrow.
    size_t nodes = 1;
    for (TransformationId t = 0; t < num_t; ++t) {
      nodes += store.Get(t).size() - shared_tail(t);
    }
    unit.resize(nodes);
    skip.resize(nodes);
    depth.resize(nodes);

    // path[d]: the node at depth d on the previous id's path.
    std::vector<uint32_t> path = {0};
    std::vector<uint32_t> term_node(num_t);
    uint32_t next = 1;
    for (TransformationId t = 0; t < num_t; ++t) {
      const std::span<const UnitId> units = store.Get(t).units();
      const size_t len = units.size();
      TJ_CHECK(len <= UINT16_MAX);
      const size_t common = shared_tail(t);
      // The previous path's nodes below the shared tail are now closed:
      // nothing appended from here on can be their descendant.
      for (size_t d = common + 1; d < path.size(); ++d) skip[path[d]] = next;
      path.resize(common + 1);
      for (size_t d = common + 1; d <= len; ++d) {
        path.push_back(next);
        unit[next] = units[len - d];
        depth[next] = static_cast<uint16_t>(d);
        ++next;
      }
      max_depth = std::max(max_depth, len);
      term_node[t] = path[len];
    }
    for (uint32_t node : path) skip[node] = next;

    CountingSortCsr(
        nodes, num_t, [&](size_t t) { return term_node[t]; },
        [](size_t t) { return static_cast<TransformationId>(t); },
        &term_begin, &terms);
  }
};

using CoveringPair = std::pair<uint32_t, uint32_t>;  // (transformation, row)

/// Walks the trie once per row in [begin, end), appending covering pairs in
/// row-major order. A node reads the target length its ancestors left
/// unmatched; its unit must produce exactly the tail of that prefix, or the
/// whole subtree is rejected by jumping to skip[n]. A terminal covers the
/// row when nothing is left unmatched. Rows are independent (the cache is
/// reset per row), so the counters accumulated into `stats` are exact
/// regardless of how the row space is sharded.
///
/// Counters: a (transformation, row) is a full evaluation iff the walk
/// reached its terminal node (a rejected node's own terminals included);
/// the terminals strictly below a rejected node are cache hits with the
/// negative-unit cache and full evaluations without it, so cache_hits +
/// full_evaluations is always transformations x rows.
void EvaluateRowRange(const SuffixTrie& trie, const UnitInterner& interner,
                      const std::vector<ExamplePair>& rows, size_t begin,
                      size_t end, const DiscoveryOptions& options,
                      RowUnitCache* cache,
                      std::vector<CoveringPair>* covering,
                      DiscoveryStats* stats) {
  ScopedTimer cpu_timer(&stats->cpu_apply);
  const size_t num_nodes = trie.num_nodes();
  uint64_t& pruned_counter =
      options.enable_neg_cache ? stats->cache_hits : stats->full_evaluations;
  // unmatched[d]: target bytes still unmatched below the depth-d node on
  // the current path (the preorder walk overwrites it per depth).
  std::vector<size_t> unmatched(trie.max_depth + 1);
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();
    auto cover_terminals = [&](size_t node) {
      for (uint32_t i = trie.term_begin[node]; i < trie.term_begin[node + 1];
           ++i) {
        covering->emplace_back(trie.terms[i], static_cast<uint32_t>(row));
        ++stats->covering_pairs;
      }
    };

    // The root's terminals are the empty sequences.
    unmatched[0] = tgt.size();
    stats->full_evaluations += trie.term_begin[1];
    if (tgt.empty()) cover_terminals(0);

    size_t n = 1;
    while (n < num_nodes) {
      const uint32_t d = trie.depth[n];
      const size_t left = unmatched[d - 1];
      const UnitId id = trie.unit[n];
      stats->full_evaluations += trie.term_begin[n + 1] - trie.term_begin[n];
      std::string_view out;
      const auto state = cache->Evaluate(interner.Get(id), id, src, tgt,
                                         &stats->unit_evals, &out);
      if (state == RowUnitCache::kBad || out.size() > left ||
          tgt.substr(left - out.size(), out.size()) != out) {
        const uint32_t next = trie.skip[n];
        pruned_counter += trie.term_begin[next] - trie.term_begin[n + 1];
        n = next;
        continue;
      }
      unmatched[d] = left - out.size();
      if (unmatched[d] == 0) cover_terminals(n);
      ++n;
    }
  }
}

/// Covering pairs of one row shard, with the counters its walk added.
struct CoverageShard {
  std::vector<CoveringPair> covering;
  DiscoveryStats stats;
};

/// Builds the trie and walks it over every row in row shards on
/// options.pool (one shard = the serial case); returns the covering pairs
/// in row-major order. Shards are contiguous row ranges merged in shard
/// order, so the list — and the CSR index built from it — is identical for
/// every shard count. The trie is read-only and the unit cache is
/// worker-scoped (it is large) and reset per row, so dynamic shard-to-worker
/// assignment cannot change any result or counter.
std::vector<CoveringPair> CoveringPairs(const TransformationStore& store,
                                        const UnitInterner& interner,
                                        const std::vector<ExamplePair>& rows,
                                        const DiscoveryOptions& options,
                                        DiscoveryStats* stats) {
  const SuffixTrie trie(store);
  PerWorker<RowUnitCache> caches(options.pool);
  std::vector<CoverageShard> shards = ParallelShards(
      options.pool, rows.size(), 4,
      [&](int worker, size_t begin, size_t end) {
        CoverageShard shard;
        EvaluateRowRange(
            trie, interner, rows, begin, end, options,
            &caches.Get(worker, interner.size(), options.enable_neg_cache),
            &shard.covering, &shard.stats);
        return shard;
      });

  // Full element-wise stats merge, so counters added to EvaluateRowRange
  // later aggregate at every shard count. Worker wall-time fields are zero
  // (the phase is wall-timed once by the enclosing ScopedTimer); cpu_apply
  // sums each shard's seconds inside EvaluateRowRange.
  for (const CoverageShard& shard : shards) *stats += shard.stats;
  std::vector<CoveringPair> covering = std::move(shards[0].covering);
  for (size_t s = 1; s < shards.size(); ++s) {
    covering.insert(covering.end(), shards[s].covering.begin(),
                    shards[s].covering.end());
  }
  return covering;
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
  // is evaluated at most once per row. The trie is gone by the time the
  // covering pairs are counting-sorted into CSR by transformation (rows
  // ascending within each transformation because the order is row-major).
  const std::vector<CoveringPair> covering =
      CoveringPairs(store, interner, rows, options, stats);
  CountingSortCsr(
      num_t, covering.size(), [&](size_t i) { return covering[i].first; },
      [&](size_t i) { return covering[i].second; }, &index.offsets_,
      &index.rows_);
  return index;
}

}  // namespace tj
