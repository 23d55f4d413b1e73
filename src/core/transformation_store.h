// TransformationStore: hash-consing store for transformations.
//
// Duplicate removal is the paper's first pruning strategy (§4.1.5): the same
// transformation is generated independently by many rows, and only one copy
// is kept. Every stored unit sequence lives in one CSR arena (offsets +
// units), which the coverage scan reads directly.

#ifndef TJ_CORE_TRANSFORMATION_STORE_H_
#define TJ_CORE_TRANSFORMATION_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/transformation.h"

namespace tj {

using TransformationId = uint32_t;

/// Append-only deduplicating store. Ids are dense in first-seen order.
class TransformationStore {
 public:
  TransformationStore() = default;

  TransformationStore(const TransformationStore&) = delete;
  TransformationStore& operator=(const TransformationStore&) = delete;
  TransformationStore(TransformationStore&&) = default;
  TransformationStore& operator=(TransformationStore&&) = default;

  /// Interns the (already normalized) unit sequence `units`, copying it into
  /// the arena only when it is new; returns its id and whether it was newly
  /// inserted. When `dedup` is false (ablation mode) every call inserts a
  /// fresh copy. `units` must not point into this store's own arena.
  std::pair<TransformationId, bool> Intern(std::span<const UnitId> units,
                                           bool dedup = true);

  /// A view of transformation `id`'s units in the arena. The view is
  /// invalidated by the next Intern() on this store.
  Transformation Get(TransformationId id) const {
    TJ_DCHECK(id < size());
    return Transformation(std::span<const UnitId>(
        units_.data() + offsets_[id], units_.data() + offsets_[id + 1]));
  }

  /// Number of stored (unique, unless dedup was disabled) transformations.
  size_t size() const { return hashes_.size(); }

 private:
  /// Finds the slot for `h` + `units` in the open-addressed table: the
  /// matching entry's slot, or the empty slot to insert into. Same-hash
  /// entries are met in insertion order along the probe path, so lookups
  /// resolve to the earliest equal item exactly like a bucket chain.
  size_t FindSlot(uint64_t h, std::span<const UnitId> units) const;
  void GrowSlots();

  // CSR arena: transformation id's units are units_[offsets_[id],
  // offsets_[id + 1]).
  std::vector<uint32_t> offsets_ = {0};  // size() + 1
  std::vector<UnitId> units_;
  std::vector<uint64_t> hashes_;  // per-item cached hash
  // Open-addressed linear-probe table of item id + 1 (0 = empty slot);
  // collisions resolved by full unit-sequence equality.
  std::vector<uint32_t> slots_;
};

}  // namespace tj

#endif  // TJ_CORE_TRANSFORMATION_STORE_H_
