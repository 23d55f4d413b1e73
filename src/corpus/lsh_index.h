// LshIndex: banded locality-sensitive hashing over the catalog's MinHash
// sketches — the sublinear candidate-lookup structure behind the
// IncrementalPairPruner's probe path. Each of a sketch's kSketchSlots slots
// is its own band: a non-empty slot hashes to one bucket key, and two
// columns are LSH *candidates* when they share at least one bucket. Probing
// an index of N columns touches only the collision buckets, so folding a
// table into a million-table corpus scores O(collisions) pairs instead of
// O(N).
//
// Exactness: a pair collides iff at least one non-empty MinHash slot
// matches, i.e. iff its estimated Jaccard — and therefore its estimated
// containment score — is nonzero. Every pair that can clear a positive
// containment floor is then probed, and the post-probe exact
// ScoreColumnPair pass makes the shortlist bit-identical to a full
// ShortlistPairs scan.
//
// Layout: buckets live in one flat open-addressed table (linear probing,
// power-of-two capacity, backward-shift deletion) whose slots hold the band
// key and the head of that bucket's entry chain; entries are (ColumnRef,
// next) pairs in one vector recycled through a free list. A band key costs
// a slot plus one 12-byte entry — no per-bucket heap allocation.

#ifndef TJ_CORPUS_LSH_INDEX_H_
#define TJ_CORPUS_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/signature.h"

namespace tj {

/// The banded bucket index. Not thread-safe for concurrent mutation; the
/// pruner mutates it only from its (externally serialized) maintenance
/// calls.
class LshIndex {
 public:
  /// Indexes one column under its banded bucket keys. Columns that sketched
  /// no grams (distinct_ngrams == 0) are skipped entirely: their estimated
  /// containment against anything is 0, so they can never clear a positive
  /// floor — and their all-empty sketches would otherwise all collide with
  /// each other in every band. `ref` must not already be indexed
  /// (TJ_CHECK).
  void Insert(ColumnRef ref, const ColumnSignature& signature);

  /// Drops every indexed column of `table_id`. Needs no signatures (the
  /// catalog has typically already tombstoned the table): each column's
  /// bucket keys were recorded at Insert time.
  void RemoveTable(uint32_t table_id);

  /// Every indexed column sharing at least one bucket with `signature`,
  /// deduplicated and sorted in catalog order — deterministic regardless of
  /// insertion history. The probing column itself is never indexed yet when
  /// the pruner calls this (probe-then-insert), so self-collisions cannot
  /// occur.
  std::vector<ColumnRef> Probe(const ColumnSignature& signature) const;

  void Clear();

  /// Distinct occupied buckets / indexed columns (stats surfaces).
  size_t num_buckets() const { return num_buckets_; }
  size_t num_entries() const { return keys_.size(); }

  /// Bucket keys of one signature in slot order (one per non-empty slot)
  /// — the keys Insert files a column under.
  static std::vector<uint64_t> BandKeys(const ColumnSignature& signature);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One bucket member; `next` chains the bucket (or the free list).
  struct Entry {
    ColumnRef ref;
    uint32_t next = kNil;
  };

  /// Slot holding `key`, or kNil when the key has no bucket.
  uint32_t FindSlot(uint64_t key) const;
  /// Slot holding `key`, claiming (and growing the table for) a new one.
  uint32_t FindOrInsertSlot(uint64_t key);
  /// Empties slot `slot` and shifts its probe-run successors back, so every
  /// key stays reachable from its home slot without tombstones.
  void EraseSlot(uint32_t slot);
  void Grow();

  /// Parallel slot arrays: band key and the head entry of its bucket
  /// (kNil = empty slot). Capacity is zero or a power of two.
  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> slot_heads_;
  size_t num_buckets_ = 0;
  /// Bucket members, chained per slot; dead entries chain from free_head_.
  std::vector<Entry> entries_;
  uint32_t free_head_ = kNil;
  /// Reverse map for signature-free removal: every key each column was
  /// filed under. std::map so RemoveTable can range-scan a table's columns
  /// via lower_bound on {table_id, 0}.
  std::map<ColumnRef, std::vector<uint64_t>> keys_;
};

}  // namespace tj

#endif  // TJ_CORPUS_LSH_INDEX_H_
