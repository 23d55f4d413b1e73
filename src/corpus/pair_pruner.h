// PairPruner: turns the O(N^2) cross-table column-pair space into a short,
// deterministically ranked shortlist using only the catalog's cached
// signatures. A pair survives when its estimated n-gram containment clears
// a configurable floor (and the columns' character sets overlap at all);
// everything else is pruned before a single inverted index is built. This
// is what makes corpus-scale discovery tractable: the per-pair engine only
// runs on pairs that could plausibly produce representative gram matches.
//
// Two front ends share one scoring path:
//  * ShortlistPairs — one-shot scan of the whole catalog.
//  * IncrementalPairPruner — a live shortlist maintained across catalog
//    AddTable/RemoveTable/UpdateTable operations. Adding a table probes a
//    banded-LSH index (lsh_index.h) and exact-scores only the columns its
//    sketches collide with (sublinear in catalog size instead of the O(N^2)
//    full rescan), and every snapshot is bit-identical to a from-scratch
//    ShortlistPairs over the same catalog state at a positive floor.

#ifndef TJ_CORPUS_PAIR_PRUNER_H_
#define TJ_CORPUS_PAIR_PRUNER_H_

#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/lsh_index.h"

namespace tj {

class ThreadPool;

struct PairPrunerOptions {
  /// Floor on the estimated n-gram containment (signature.h). Joinable
  /// synthetic pairs score ~0.4+ while unrelated alphanumeric columns score
  /// ~0, so the default keeps a wide recall margin; 0 disables pruning (the
  /// brute-force baseline). A positive floor also skips pairs whose charset
  /// masks share no character class at all (an all-digits id column against
  /// an all-letters name column can share no n-gram).
  double min_containment = 0.05;

  /// Keep at most this many top-ranked candidates (0 = unlimited).
  size_t max_candidates = 0;
};

/// One surviving cross-table column pair. `a` < `b` in catalog order; the
/// source/target orientation is carried as a sketch-derived hint.
struct ColumnPairCandidate {
  ColumnRef a;
  ColumnRef b;
  /// Estimated n-gram containment from the sketches (the ranking key).
  double score = 0.0;
  /// Sketch-based orientation hint: true when `a` should be the source
  /// (its mean cell length is >= b's — longer, more descriptive values feed
  /// the transformation search; the shorter-units-toward-longer heuristic).
  /// Derived from the signatures' mean_length, which equals the columns'
  /// AverageLength exactly, so downstream consumers can orient the pair
  /// without rescanning either column.
  bool a_is_source = true;

  bool operator==(const ColumnPairCandidate&) const = default;
};

struct PairPrunerResult {
  /// Survivors ranked by score descending, ties broken by catalog order of
  /// (a, b) — fully deterministic for a given catalog.
  std::vector<ColumnPairCandidate> shortlist;
  /// Cross-table column pairs considered.
  size_t total_pairs = 0;
  /// Pairs rejected by the floor/charset gates or because a column has
  /// fewer than two rows (excludes any max_candidates truncation).
  size_t pruned_pairs = 0;

  double PruningRatio() const {
    if (total_pairs == 0) return 0.0;
    return static_cast<double>(pruned_pairs) /
           static_cast<double>(total_pairs);
  }
};

/// Scores one cross-table column pair (a < b in catalog order) against the
/// gates. Returns true and fills `out` when the pair survives. Both scan
/// front ends call exactly this, so incremental and from-scratch scores are
/// identical by construction. Requires both columns' signatures (TJ_CHECK).
bool ScoreColumnPair(const TableCatalog& catalog, ColumnRef a, ColumnRef b,
                     const PairPrunerOptions& options,
                     ColumnPairCandidate* out);

/// Scores every cross-table column pair from the catalog's signatures —
/// in parallel over the pair space when `pool` is given (per-chunk survivor
/// buffers merged in chunk order, so the shortlist is identical for every
/// pool size). Requires ComputeSignatures() to have run (TJ_CHECK).
PairPrunerResult ShortlistPairs(const TableCatalog& catalog,
                                const PairPrunerOptions& options,
                                ThreadPool* pool = nullptr);

/// Validates a PairPrunerOptions (containment floor in [0, 1]) with an
/// InvalidArgument instead of downstream misbehavior. Defaults always
/// validate.
Status ValidateOptions(const PairPrunerOptions& options);

/// Live shortlist over a mutating catalog. Every survivor is held once in a
/// single vector kept in rank order: an add merges its few new survivors
/// in, a remove erases the table's candidates in one pass, and Snapshot()
/// copies the ranked head — no walk and no re-sort per read. The pair-space
/// totals are kept arithmetically from per-table column counts.
///
/// Recall contract: candidates come from the banded-LSH probe, which only
/// sees pairs sharing a non-empty sketch slot. At a positive
/// min_containment floor every pair the floor keeps is probed, so
/// Snapshot() is bit-identical to ShortlistPairs on the catalog's current
/// live state. A zero floor keeps zero-score pairs the probe cannot see
/// (the serving layer's ValidateOptions rejects it); use the one-shot
/// ShortlistPairs for the brute-force baseline.
///
/// The caller drives maintenance: after catalog.AddTable + the catalog's
/// ComputeSignatures, call OnTableAdded with the new id; after
/// catalog.RemoveTable call OnTableRemoved; after catalog.UpdateTable (+
/// ComputeSignatures) call OnTableUpdated.
class IncrementalPairPruner {
 public:
  explicit IncrementalPairPruner(PairPrunerOptions options = {})
      : options_(options) {}

  const PairPrunerOptions& options() const { return options_; }

  /// Clears any state and folds in every live table of the catalog (one
  /// probe per table, one ranking sort at the end). Requires
  /// ComputeSignatures() to have run.
  void Rebuild(const TableCatalog& catalog, ThreadPool* pool = nullptr);

  /// Probes the band buckets with `table_id`'s sketches, exact-scores only
  /// the tracked columns colliding in >= 1 bucket (sublinear per add), and
  /// merges the surviving candidates into the ranking; last_scored_pairs()
  /// reports the probed count. Scoring runs in parallel over the collisions
  /// when `pool` is given (the new survivors are sorted before the merge,
  /// so results are identical for every pool size). Requires the table's
  /// signatures.
  void OnTableAdded(const TableCatalog& catalog, uint32_t table_id,
                    ThreadPool* pool = nullptr);

  /// Drops every candidate involving `table_id` in one pass over the
  /// ranking. No rescoring.
  void OnTableRemoved(uint32_t table_id);

  /// Rescores `table_id` against the rest (remove + add).
  void OnTableUpdated(const TableCatalog& catalog, uint32_t table_id,
                      ThreadPool* pool = nullptr);

  /// Table ids currently folded into the shortlist.
  const std::set<uint32_t>& tracked_tables() const { return tracked_; }

  /// Cross-table column pairs scored by the most recent Rebuild /
  /// OnTableAdded / OnTableUpdated: the incremental-cost metric
  /// (ScaleIngestTest.ProbedShortlistMatchesFullScan bounds one add into a
  /// 10k-table corpus).
  size_t last_scored_pairs() const { return last_scored_pairs_; }

  /// Pairs exact-scored across the pruner's whole lifetime (every Rebuild /
  /// OnTableAdded / OnTableUpdated): the probe workload — the
  /// sublinear-cost figure the 10k-table scale test bounds against the
  /// exhaustive scan's quadratic count.
  size_t cumulative_scored_pairs() const { return cumulative_scored_pairs_; }

  /// The band-bucket index backing the probe (exposed for its bucket/entry
  /// statistics).
  const LshIndex& lsh_index() const { return lsh_; }

  /// Ranked shortlist + totals, bit-identical to ShortlistPairs(catalog,
  /// options) over the same live tables (under the recall contract above).
  PairPrunerResult Snapshot() const;

 private:
  /// Probes `table_id` against the tracked columns, appends its (unsorted)
  /// survivors to `out`, then indexes and tracks the table. Sets
  /// last_scored_pairs_ to the probed count.
  void FoldIn(const TableCatalog& catalog, uint32_t table_id,
              ThreadPool* pool, std::vector<ColumnPairCandidate>* out);

  PairPrunerOptions options_;
  /// Every survivor over the tracked tables, in RankBefore order (score
  /// descending, then catalog order) — the untruncated shortlist.
  std::vector<ColumnPairCandidate> ranked_;
  std::set<uint32_t> tracked_;
  /// Column count of each tracked table, recorded at add time — the catalog
  /// has typically tombstoned a table before OnTableRemoved runs, so the
  /// count must not be re-queried then.
  std::map<uint32_t, uint32_t> table_columns_;
  /// Sum of table_columns_ values (columns currently folded in).
  size_t tracked_columns_total_ = 0;
  LshIndex lsh_;
  size_t total_pairs_ = 0;
  size_t last_scored_pairs_ = 0;
  size_t cumulative_scored_pairs_ = 0;
};

}  // namespace tj

#endif  // TJ_CORPUS_PAIR_PRUNER_H_
