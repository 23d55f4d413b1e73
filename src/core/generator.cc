#include "core/generator.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "core/skeleton.h"
#include "core/unit_extraction.h"
#include "text/lcp.h"

namespace tj {

void GenerateTransformationsForRow(std::string_view source,
                                   std::string_view target,
                                   const DiscoveryOptions& options,
                                   UnitInterner* interner,
                                   TransformationStore* store,
                                   DiscoveryStats* stats) {
  // Phase 1: placeholders and skeletons.
  std::vector<Skeleton> skeletons;
  {
    ScopedTimer timer(&stats->cpu_placeholder_gen);
    const LcpTable lcp = LcpTable::Build(source, target);
    skeletons = EnumerateSkeletons(target, lcp, options);
  }
  if (skeletons.empty()) return;
  stats->skeletons += skeletons.size();
  stats->placeholders += static_cast<uint64_t>(skeletons[0].num_placeholders);

  // Phase 2: candidate units per placeholder. Blocks are shared between the
  // base skeleton and its tokenized variants, so memoize per (begin, end),
  // packed into one 64-bit key. References into the map stay valid across
  // rehashes (only iterators are invalidated), so candidates_for can hand
  // out stable references while new blocks are being memoized.
  struct PackedRangeHash {
    size_t operator()(uint64_t key) const {
      return static_cast<size_t>(Mix64(key));
    }
  };
  std::unordered_map<uint64_t, std::vector<UnitId>, PackedRangeHash> unit_memo;
  auto candidates_for = [&](const SkeletonBlock& block)
      -> const std::vector<UnitId>& {
    const uint64_t key =
        (static_cast<uint64_t>(block.begin) << 32) | block.end;
    auto it = unit_memo.find(key);
    if (it != unit_memo.end()) return it->second;
    std::vector<UnitId> units;
    {
      ScopedTimer timer(&stats->cpu_unit_extraction);
      ExtractUnitsForPlaceholder(source, target, block, options, interner,
                                 &units);
    }
    return unit_memo.emplace(key, std::move(units)).first->second;
  };

  // Phase 3: Cartesian product + hash-consing, bounded per row. The tuple
  // scratch (odometer slots, normalization output, literal-fusion string)
  // is reused across every tuple of every skeleton: the loop body allocates
  // only when the store interns a genuinely new transformation.
  size_t remaining = options.max_transformations_per_row;
  bool capped = false;
  std::vector<UnitId> normalized;
  std::string fused;
  for (const Skeleton& skeleton : skeletons) {
    if (remaining == 0) {
      capped = true;
      break;
    }
    // Slot lists: literals contribute a single fixed unit.
    std::vector<const std::vector<UnitId>*> slots;
    std::vector<std::vector<UnitId>> literal_slots;
    literal_slots.reserve(skeleton.blocks.size());
    bool dead_slot = false;
    for (const SkeletonBlock& block : skeleton.blocks) {
      if (block.is_placeholder) {
        const auto& units = candidates_for(block);
        if (units.empty()) {
          dead_slot = true;
          break;
        }
        slots.push_back(&units);
      } else {
        const std::string text(
            target.substr(block.begin, block.end - block.begin));
        literal_slots.push_back(
            {interner->Intern(Unit::MakeLiteral(text))});
        slots.push_back(&literal_slots.back());
      }
    }
    if (dead_slot || slots.empty()) continue;

    // Odometer over the Cartesian product.
    std::vector<size_t> cursor(slots.size(), 0);
    std::vector<UnitId> units(slots.size());
    ScopedTimer timer(&stats->cpu_duplicate_removal);
    for (;;) {
      for (size_t i = 0; i < slots.size(); ++i) units[i] = (*slots[i])[cursor[i]];
      Transformation::NormalizeInto(units, interner, &normalized, &fused);
      store->Intern(normalized, options.enable_dedup);
      ++stats->generated_transformations;
      if (--remaining == 0) {
        capped = true;
        break;
      }
      // Advance the odometer.
      size_t i = 0;
      for (; i < slots.size(); ++i) {
        if (++cursor[i] < slots[i]->size()) break;
        cursor[i] = 0;
      }
      if (i == slots.size()) break;
    }
    if (remaining == 0) break;
  }
  if (capped) ++stats->rows_capped;
}

}  // namespace tj
