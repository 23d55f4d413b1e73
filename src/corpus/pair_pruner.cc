#include "corpus/pair_pruner.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "corpus/signature.h"

namespace tj {
namespace {

/// Candidate pair ordering: score descending, then catalog order. Strict
/// weak ordering with no floating-point ties left to chance — scores are
/// computed identically regardless of chunking, so the sort is stable
/// across thread counts.
bool RankBefore(const ColumnPairCandidate& x, const ColumnPairCandidate& y) {
  if (x.score != y.score) return x.score > y.score;
  if (!(x.a == y.a)) return x.a < y.a;
  return x.b < y.b;
}

struct ChunkOutput {
  std::vector<ColumnPairCandidate> survivors;
  size_t considered = 0;
};

/// Sorts + truncates survivors and fills the result counters. The
/// incremental snapshot keeps its survivors in this same RankBefore order,
/// so both front ends rank identically.
PairPrunerResult FinalizeShortlist(std::vector<ColumnPairCandidate> survivors,
                                   size_t considered,
                                   const PairPrunerOptions& options) {
  PairPrunerResult result;
  result.total_pairs = considered;
  result.pruned_pairs = considered - survivors.size();
  std::sort(survivors.begin(), survivors.end(), RankBefore);
  if (options.max_candidates != 0 &&
      survivors.size() > options.max_candidates) {
    survivors.resize(options.max_candidates);
  }
  result.shortlist = std::move(survivors);
  return result;
}

}  // namespace

bool ScoreColumnPair(const TableCatalog& catalog, ColumnRef a, ColumnRef b,
                     const PairPrunerOptions& options,
                     ColumnPairCandidate* out) {
  // A missing signature means ComputeSignatures could not read the column
  // (spill I/O failure survived by the catalog): prune its pairs instead
  // of aborting. In a healthy run every live column has a signature.
  if (!catalog.HasSignature(a) || !catalog.HasSignature(b)) return false;
  const ColumnSignature& sig_a = catalog.signature(a);
  const ColumnSignature& sig_b = catalog.signature(b);
  if (sig_a.num_rows < options.min_rows ||
      sig_b.num_rows < options.min_rows) {
    return false;
  }
  if (options.require_charset_overlap &&
      (sig_a.charset_mask & sig_b.charset_mask) == 0) {
    return false;
  }
  const double score = EstimateNgramContainment(sig_a, sig_b);
  if (score < options.min_containment) return false;
  out->a = a;
  out->b = b;
  out->score = score;
  // mean_length is the exact AverageLength of the column, so this hint
  // reproduces PickSourceColumn's choice without touching the cells.
  out->a_is_source = sig_a.mean_length >= sig_b.mean_length;
  return true;
}

PairPrunerResult ShortlistPairs(const TableCatalog& catalog,
                                const PairPrunerOptions& options,
                                ThreadPool* pool) {
  const std::vector<ColumnRef> columns = catalog.AllColumns();
  const size_t n = columns.size();
  if (n < 2) return PairPrunerResult();

  // Shards of the triangle's rows: shard [begin, end) evaluates all pairs
  // (columns[i], columns[j]) for i in [begin, end), j > i — cross-table
  // only — keeping survivors in catalog order. Row i carries n - i - 1
  // pairs, so over-decompose heavily and let the ticket scheduler balance;
  // shards are merged in shard order, keeping the pre-sort survivor order
  // (and thus the final ranking) the same at every shard count.
  std::vector<ChunkOutput> shards = ParallelShards(
      pool, n, 8, [&](int /*worker*/, size_t begin, size_t end) {
        ChunkOutput out;
        ColumnPairCandidate candidate;
        for (size_t i = begin; i < end; ++i) {
          const ColumnRef a = columns[i];
          for (size_t j = i + 1; j < n; ++j) {
            const ColumnRef b = columns[j];
            if (a.table == b.table) continue;  // self-joins are out of scope
            ++out.considered;
            if (ScoreColumnPair(catalog, a, b, options, &candidate)) {
              out.survivors.push_back(candidate);
            }
          }
        }
        return out;
      });
  std::vector<ColumnPairCandidate> survivors = std::move(shards[0].survivors);
  size_t considered = shards[0].considered;
  for (size_t s = 1; s < shards.size(); ++s) {
    survivors.insert(survivors.end(), shards[s].survivors.begin(),
                     shards[s].survivors.end());
    considered += shards[s].considered;
  }

  return FinalizeShortlist(std::move(survivors), considered, options);
}

void IncrementalPairPruner::Rebuild(const TableCatalog& catalog,
                                    ThreadPool* pool) {
  ranked_.clear();
  tracked_.clear();
  table_columns_.clear();
  tracked_columns_total_ = 0;
  lsh_.Clear();
  total_pairs_ = 0;
  size_t scored = 0;
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    if (!catalog.IsLive(t)) continue;
    FoldIn(catalog, t, pool, &ranked_);
    scored += last_scored_pairs_;
  }
  std::sort(ranked_.begin(), ranked_.end(), RankBefore);
  last_scored_pairs_ = scored;
}

void IncrementalPairPruner::OnTableAdded(const TableCatalog& catalog,
                                         uint32_t table_id,
                                         ThreadPool* pool) {
  const size_t old_size = ranked_.size();
  FoldIn(catalog, table_id, pool, &ranked_);
  // RankBefore is a strict total order on unique (a, b) pairs, so sorting
  // the new tail and merging yields exactly ShortlistPairs' ranking.
  const auto tail = ranked_.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(tail, ranked_.end(), RankBefore);
  std::inplace_merge(ranked_.begin(), tail, ranked_.end(), RankBefore);
}

void IncrementalPairPruner::FoldIn(const TableCatalog& catalog,
                                   uint32_t table_id, ThreadPool* pool,
                                   std::vector<ColumnPairCandidate>* out) {
  TJ_CHECK(catalog.IsLive(table_id));
  TJ_CHECK(tracked_.find(table_id) == tracked_.end());

  // SharedTable reads metadata without re-mapping an evicted table.
  const auto num_new_columns =
      static_cast<uint32_t>(catalog.SharedTable(table_id)->num_columns());

  // Probe before inserting: the index holds only previously tracked
  // columns, so the new table cannot collide with itself and OnTableUpdated
  // (remove + re-add) never sees its own stale entries. Each collision is
  // stored in catalog order (the lower table id owns `a`).
  std::vector<std::pair<ColumnRef, ColumnRef>> collisions;
  for (uint32_t cn = 0; cn < num_new_columns; ++cn) {
    const ColumnRef mine{table_id, cn};
    if (!catalog.HasSignature(mine)) continue;
    for (const ColumnRef& hit : lsh_.Probe(catalog.signature(mine))) {
      if (hit < mine) {
        collisions.emplace_back(hit, mine);
      } else {
        collisions.emplace_back(mine, hit);
      }
    }
  }

  // Exact-score only the colliding pairs. Shards keep their own survivor
  // buffers; the caller sorts, so scheduling never shows.
  const size_t n = collisions.size();
  const std::vector<std::vector<ColumnPairCandidate>> shards = ParallelShards(
      pool, n, 4, [&](int /*worker*/, size_t begin, size_t end) {
        std::vector<ColumnPairCandidate> survivors;
        ColumnPairCandidate candidate;
        for (size_t i = begin; i < end; ++i) {
          if (ScoreColumnPair(catalog, collisions[i].first,
                              collisions[i].second, options_, &candidate)) {
            survivors.push_back(candidate);
          }
        }
        return survivors;
      });
  for (const std::vector<ColumnPairCandidate>& shard : shards) {
    out->insert(out->end(), shard.begin(), shard.end());
  }

  for (uint32_t cn = 0; cn < num_new_columns; ++cn) {
    const ColumnRef mine{table_id, cn};
    if (!catalog.HasSignature(mine)) continue;
    lsh_.Insert(mine, catalog.signature(mine));
  }

  // Account the full cross-pair space the exhaustive scan would consider,
  // so Snapshot()'s total/pruned counters match ShortlistPairs no matter
  // how few pairs the probe touched.
  total_pairs_ += static_cast<size_t>(num_new_columns) * tracked_columns_total_;
  tracked_columns_total_ += num_new_columns;
  table_columns_[table_id] = num_new_columns;
  tracked_.insert(table_id);
  last_scored_pairs_ = n;
  cumulative_scored_pairs_ += n;
}

void IncrementalPairPruner::OnTableRemoved(uint32_t table_id) {
  TJ_CHECK(tracked_.erase(table_id) == 1);
  const auto cols = table_columns_.find(table_id);
  TJ_CHECK(cols != table_columns_.end());
  tracked_columns_total_ -= cols->second;
  // The removed table's share of the pair space: its columns against every
  // still-tracked column.
  total_pairs_ -= static_cast<size_t>(cols->second) * tracked_columns_total_;
  table_columns_.erase(cols);
  lsh_.RemoveTable(table_id);
  std::erase_if(ranked_, [table_id](const ColumnPairCandidate& c) {
    return c.a.table == table_id || c.b.table == table_id;
  });
}

void IncrementalPairPruner::OnTableUpdated(const TableCatalog& catalog,
                                           uint32_t table_id,
                                           ThreadPool* pool) {
  OnTableRemoved(table_id);
  OnTableAdded(catalog, table_id, pool);
}

PairPrunerResult IncrementalPairPruner::Snapshot() const {
  PairPrunerResult result;
  result.total_pairs = total_pairs_;
  result.pruned_pairs = total_pairs_ - ranked_.size();
  size_t keep = ranked_.size();
  if (options_.max_candidates != 0) {
    keep = std::min(keep, options_.max_candidates);
  }
  result.shortlist.assign(ranked_.begin(),
                          ranked_.begin() + static_cast<std::ptrdiff_t>(keep));
  return result;
}

Status ValidateOptions(const PairPrunerOptions& options) {
  if (!(options.min_containment >= 0.0) ||
      !(options.min_containment <= 1.0)) {
    return Status::InvalidArgument(
        "PairPrunerOptions::min_containment must be in [0, 1]");
  }
  return ValidateOptions(options.lsh);
}

size_t CountLshMissedPairs(const TableCatalog& catalog,
                           const PairPrunerOptions& options,
                           ThreadPool* pool) {
  // Truncation must not hide survivors the probe failed to reach.
  PairPrunerOptions untruncated = options;
  untruncated.max_candidates = 0;
  const PairPrunerResult full = ShortlistPairs(catalog, untruncated, pool);
  size_t missed = 0;
  for (const ColumnPairCandidate& c : full.shortlist) {
    if (!LshIndex::BandsCollide(options.lsh, catalog.signature(c.a),
                                catalog.signature(c.b))) {
      ++missed;
    }
  }
  return missed;
}

}  // namespace tj
