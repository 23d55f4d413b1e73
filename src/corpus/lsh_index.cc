#include "corpus/lsh_index.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/simd.h"

namespace tj {
namespace {

/// Seed separating banded bucket keys from every other HashCombine chain in
/// the codebase ("tjlsh"). A stray cross-domain collision would only cost
/// one extra exact ScoreColumnPair, but keeping the domains distinct makes
/// bucket statistics meaningful.
constexpr uint64_t kLshSeed = 0x746a6c7368ULL;

}  // namespace

Status ValidateOptions(const LshOptions& options) {
  if (options.bands == 0) {
    return Status::InvalidArgument("lsh bands must be >= 1");
  }
  if (options.rows_per_band == 0) {
    return Status::InvalidArgument("lsh rows_per_band must be >= 1");
  }
  return Status::OK();
}

std::vector<uint64_t> LshIndex::BandKeys(
    const ColumnSignature& signature) const {
  std::vector<uint64_t> keys;
  const size_t num_hashes = signature.minhash.size();
  const size_t usable =
      std::min(options_.bands, num_hashes / options_.rows_per_band);
  keys.reserve(usable);
  for (size_t band = 0; band < usable; ++band) {
    uint64_t key = HashCombine(kLshSeed, band);
    bool all_empty = true;
    for (size_t row = 0; row < options_.rows_per_band; ++row) {
      const uint64_t slot = signature.minhash[band * options_.rows_per_band +
                                              row];
      if (slot != kEmptyMinhashSlot) all_empty = false;
      key = HashCombine(key, slot);
    }
    // A band of all-empty slots carries no evidence; bucketing it would make
    // every sparse sketch collide with every other in that band.
    if (!all_empty) keys.push_back(key);
  }
  return keys;
}

void LshIndex::Insert(ColumnRef ref, const ColumnSignature& signature) {
  TJ_CHECK(keys_.find(ref) == keys_.end());
  if (signature.distinct_ngrams == 0) return;
  std::vector<uint64_t> keys = BandKeys(signature);
  if (keys.empty()) return;
  for (uint64_t key : keys) {
    const uint32_t slot = FindOrInsertSlot(key);
    uint32_t entry = free_head_;
    if (entry != kNil) {
      free_head_ = entries_[entry].next;
    } else {
      entry = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[entry] = Entry{ref, slot_heads_[slot]};
    slot_heads_[slot] = entry;
  }
  keys_.emplace(ref, std::move(keys));
}

void LshIndex::RemoveTable(uint32_t table_id) {
  const auto begin = keys_.lower_bound(ColumnRef{table_id, 0});
  auto it = begin;
  for (; it != keys_.end() && it->first.table == table_id; ++it) {
    for (uint64_t key : it->second) {
      const uint32_t slot = FindSlot(key);
      TJ_CHECK(slot != kNil);
      // Unlink this column's entry from the bucket chain.
      uint32_t* link = &slot_heads_[slot];
      while (!(entries_[*link].ref == it->first)) {
        link = &entries_[*link].next;
        TJ_CHECK(*link != kNil);
      }
      const uint32_t dead = *link;
      *link = entries_[dead].next;
      entries_[dead].next = free_head_;
      free_head_ = dead;
      if (slot_heads_[slot] == kNil) EraseSlot(slot);
    }
  }
  keys_.erase(begin, it);
}

std::vector<ColumnRef> LshIndex::Probe(
    const ColumnSignature& signature) const {
  std::vector<ColumnRef> hits;
  for (uint64_t key : BandKeys(signature)) {
    const uint32_t slot = FindSlot(key);
    if (slot == kNil) continue;
    for (uint32_t e = slot_heads_[slot]; e != kNil; e = entries_[e].next) {
      hits.push_back(entries_[e].ref);
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

void LshIndex::Clear() {
  slot_keys_.clear();
  slot_heads_.clear();
  num_buckets_ = 0;
  entries_.clear();
  free_head_ = kNil;
  keys_.clear();
}

uint32_t LshIndex::FindSlot(uint64_t key) const {
  if (slot_heads_.empty()) return kNil;
  // Band keys are HashCombine outputs (fully mixed), so their low bits
  // serve directly as the home slot.
  const size_t mask = slot_heads_.size() - 1;
  for (size_t i = key & mask;; i = (i + 1) & mask) {
    if (slot_heads_[i] == kNil) return kNil;
    if (slot_keys_[i] == key) return static_cast<uint32_t>(i);
  }
}

uint32_t LshIndex::FindOrInsertSlot(uint64_t key) {
  // Keep the load factor at or below 3/4 so probe runs stay short.
  if ((num_buckets_ + 1) * 4 > slot_heads_.size() * 3) Grow();
  const size_t mask = slot_heads_.size() - 1;
  for (size_t i = key & mask;; i = (i + 1) & mask) {
    if (slot_heads_[i] == kNil) {
      slot_keys_[i] = key;
      ++num_buckets_;
      return static_cast<uint32_t>(i);
    }
    if (slot_keys_[i] == key) return static_cast<uint32_t>(i);
  }
}

void LshIndex::EraseSlot(uint32_t slot) {
  const size_t mask = slot_heads_.size() - 1;
  size_t hole = slot;
  for (size_t i = (hole + 1) & mask; slot_heads_[i] != kNil;
       i = (i + 1) & mask) {
    // An occupant whose home lies cyclically in (hole, i] is still
    // reachable; any other must move back into the hole.
    const size_t home = slot_keys_[i] & mask;
    const bool reachable = hole <= i ? (hole < home && home <= i)
                                     : (hole < home || home <= i);
    if (reachable) continue;
    slot_keys_[hole] = slot_keys_[i];
    slot_heads_[hole] = slot_heads_[i];
    hole = i;
  }
  slot_heads_[hole] = kNil;
  --num_buckets_;
}

void LshIndex::Grow() {
  std::vector<uint64_t> old_keys = std::move(slot_keys_);
  std::vector<uint32_t> old_heads = std::move(slot_heads_);
  const size_t capacity = old_heads.empty() ? 16 : old_heads.size() * 2;
  slot_keys_.assign(capacity, 0);
  slot_heads_.assign(capacity, kNil);
  const size_t mask = capacity - 1;
  for (size_t s = 0; s < old_heads.size(); ++s) {
    if (old_heads[s] == kNil) continue;
    size_t i = old_keys[s] & mask;
    while (slot_heads_[i] != kNil) i = (i + 1) & mask;
    slot_keys_[i] = old_keys[s];
    slot_heads_[i] = old_heads[s];
  }
}

bool LshIndex::BandsCollide(const LshOptions& options,
                            const ColumnSignature& a,
                            const ColumnSignature& b) {
  if (a.distinct_ngrams == 0 || b.distinct_ngrams == 0) return false;
  if (a.minhash.size() != b.minhash.size()) return false;
  const size_t usable =
      std::min(options.bands, a.minhash.size() / options.rows_per_band);
  if (options.rows_per_band == 1) {
    // One-slot bands (the default, lossless geometry): a band collides iff
    // its slot matches and is non-empty, so the scan is exactly "any equal
    // non-empty slot in the first `usable`" — one vectorized compare pass.
    return simd::CountEqualExcludingU64(a.minhash.data(), b.minhash.data(),
                                        usable, kEmptyMinhashSlot) > 0;
  }
  for (size_t band = 0; band < usable; ++band) {
    bool match = true;
    bool all_empty = true;
    for (size_t row = 0; row < options.rows_per_band; ++row) {
      const size_t i = band * options.rows_per_band + row;
      if (a.minhash[i] != b.minhash[i]) {
        match = false;
        break;
      }
      if (a.minhash[i] != kEmptyMinhashSlot) all_empty = false;
    }
    if (match && !all_empty) return true;
  }
  return false;
}

bool LshIndex::GuaranteesRecall(const LshOptions& options, size_t num_hashes,
                                double min_containment) {
  return options.rows_per_band == 1 && options.bands >= num_hashes &&
         min_containment > 0.0;
}

}  // namespace tj
