#include "corpus/signature.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "common/hash.h"
#include "common/simd.h"
#include "common/strings.h"

namespace tj {

// The charset kernel in common/simd.h classifies bytes into its own bit
// constants (common/ cannot include corpus/); pin the two enums together
// so sig.charset_mask can take the kernel's output verbatim.
static_assert(kCharsetLower == simd::kCharsetLowerBit);
static_assert(kCharsetUpper == simd::kCharsetUpperBit);
static_assert(kCharsetDigit == simd::kCharsetDigitBit);
static_assert(kCharsetSpace == simd::kCharsetSpaceBit);
static_assert(kCharsetPunct == simd::kCharsetPunctBit);
static_assert(kCharsetOther == simd::kCharsetOtherBit);

bool ColumnSignature::operator==(const ColumnSignature& other) const {
  return num_rows == other.num_rows &&
         distinct_ngrams == other.distinct_ngrams &&
         min_length == other.min_length && max_length == other.max_length &&
         mean_length == other.mean_length &&
         charset_mask == other.charset_mask && minhash == other.minhash;
}

ColumnSignature ComputeColumnSignature(const Column& column) {
  ColumnSignature sig;
  sig.num_rows = static_cast<uint32_t>(column.size());
  sig.minhash.assign(kSketchSlots, kEmptyMinhashSlot);

  // Per-slot seeds of the hash family: one Mix64 of (base seed, slot).
  std::array<uint64_t, kSketchSlots> slot_seeds;
  for (size_t i = 0; i < kSketchSlots; ++i) {
    slot_seeds[i] = HashCombine(kSketchSeed, i);
  }

  std::unordered_set<uint64_t> distinct;
  uint64_t total_length = 0;
  sig.min_length = column.empty() ? 0 : ~0u;
  // One streaming pass in arena order; on a spilled column the pages
  // behind each processed block are released before the next block is
  // touched (ForEachCellStreamed), so sketching an out-of-core column
  // faults it in one block at a time instead of pinning it whole.
  std::string lowered;  // reused across rows: one amortized allocation
  ForEachCellStreamed(column, [&](std::string_view text) {
    lowered.clear();
    AppendLowerAscii(text, &lowered);
    text = lowered;
    const auto length = static_cast<uint32_t>(text.size());
    total_length += length;
    sig.min_length = std::min(sig.min_length, length);
    sig.max_length = std::max(sig.max_length, length);
    sig.charset_mask |= simd::CharsetMask(text.data(), text.size());

    // Gram hashing inlined over the contiguous cell bytes: the same FNV-1a
    // + Mix64 recurrence as HashString(gram) (pinned by the simd suite),
    // without a per-gram substr + hash call through ForEachNgram. The
    // 128-slot sketch update runs through the dispatched MinHash kernel.
    const char* data = text.data();
    for (size_t i = 0; i + kSketchNgram <= text.size(); ++i) {
      uint64_t h = kFnvOffsetBasis;
      for (size_t j = 0; j < kSketchNgram; ++j) {
        h ^= static_cast<unsigned char>(data[i + j]);
        h *= kFnvPrime;
      }
      const uint64_t base = Mix64(h);
      if (!distinct.insert(base).second) continue;  // already sketched
      simd::MinhashUpdate(base, slot_seeds.data(), sig.minhash.data(),
                          kSketchSlots);
    }
  });
  sig.distinct_ngrams = distinct.size();
  if (!column.empty()) {
    sig.mean_length = static_cast<double>(total_length) /
                      static_cast<double>(column.size());
  }
  return sig;
}

double EstimateJaccard(const ColumnSignature& a, const ColumnSignature& b) {
  if (!a.ComparableWith(b) || a.minhash.empty()) return 0.0;
  if (a.distinct_ngrams == 0 || b.distinct_ngrams == 0) return 0.0;
  const size_t matches = simd::CountEqualU64(a.minhash.data(),
                                             b.minhash.data(),
                                             a.minhash.size());
  return static_cast<double>(matches) / static_cast<double>(a.minhash.size());
}

double EstimateNgramContainment(const ColumnSignature& a,
                                const ColumnSignature& b) {
  const double jaccard = EstimateJaccard(a, b);
  if (jaccard <= 0.0) return 0.0;
  const auto smaller = static_cast<double>(
      std::min(a.distinct_ngrams, b.distinct_ngrams));
  if (smaller <= 0.0) return 0.0;
  // |A ∪ B| = (|A| + |B|) / (1 + J) and |A ∩ B| = J * |A ∪ B|.
  const double total = static_cast<double>(a.distinct_ngrams) +
                       static_cast<double>(b.distinct_ngrams);
  const double intersection = jaccard * total / (1.0 + jaccard);
  return std::min(1.0, intersection / smaller);
}

}  // namespace tj
