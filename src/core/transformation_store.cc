#include "core/transformation_store.h"

#include <algorithm>

namespace tj {

size_t TransformationStore::FindSlot(uint64_t h,
                                     std::span<const UnitId> units) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(h) & mask;
  while (slots_[pos] != 0) {
    const TransformationId id = slots_[pos] - 1;
    if (hashes_[id] == h && std::ranges::equal(Get(id).units(), units)) {
      return pos;
    }
    pos = (pos + 1) & mask;
  }
  return pos;
}

void TransformationStore::GrowSlots() {
  const size_t new_size = slots_.empty() ? 64 : slots_.size() * 2;
  slots_.assign(new_size, 0);
  const size_t mask = new_size - 1;
  // Re-inserting in id order preserves probe-path insertion order for
  // same-hash entries, so FindSlot keeps bucket-chain lookup semantics.
  for (TransformationId id = 0; id < size(); ++id) {
    size_t pos = static_cast<size_t>(hashes_[id]) & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = id + 1;
  }
}

std::pair<TransformationId, bool> TransformationStore::Intern(
    std::span<const UnitId> units, bool dedup) {
  TJ_DCHECK(units.empty() || units.data() < units_.data() ||
            units.data() >= units_.data() + units_.size());
  // Grow at 2/3 load before probing so the found slot stays valid.
  if ((size() + 1) * 3 > slots_.size() * 2) GrowSlots();
  const uint64_t h = Transformation(units).Hash();
  size_t pos;
  if (dedup) {
    pos = FindSlot(h, units);
    if (slots_[pos] != 0) return {slots_[pos] - 1, false};
  } else {
    const size_t mask = slots_.size() - 1;
    pos = static_cast<size_t>(h) & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
  }
  const auto id = static_cast<TransformationId>(size());
  units_.insert(units_.end(), units.begin(), units.end());
  offsets_.push_back(static_cast<uint32_t>(units_.size()));
  hashes_.push_back(h);
  slots_[pos] = id + 1;
  return {id, true};
}

}  // namespace tj
