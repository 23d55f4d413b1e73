// Coverage computation (paper §4.1.5): find, for every row, the unique
// transformations whose output equals its target. The unit sequences are
// folded into one suffix trie (each sequence reversed, so sequences sharing a
// tail share a path) that is walked once per row: a node whose unit fails,
// or whose output is not the tail of the still-unmatched target, rejects its
// whole subtree at once. A per-row memo evaluates each unit at most once per
// row; its failures are the paper's negative-unit cache. The result is a CSR
// index from transformation id to the rows it covers.

#ifndef TJ_CORE_COVERAGE_H_
#define TJ_CORE_COVERAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/example.h"
#include "core/options.h"
#include "core/stats.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {

/// Compressed sparse mapping transformation id -> covered row ids.
class CoverageIndex {
 public:
  CoverageIndex() = default;

  size_t num_transformations() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  uint32_t Count(TransformationId t) const {
    return offsets_[t + 1] - offsets_[t];
  }

  /// Covered rows of transformation t, ascending.
  std::span<const uint32_t> RowsOf(TransformationId t) const {
    return std::span<const uint32_t>(rows_.data() + offsets_[t],
                                     rows_.data() + offsets_[t + 1]);
  }

  /// Total covering (transformation, row) pairs.
  size_t TotalPairs() const { return rows_.size(); }

 private:
  friend CoverageIndex ComputeCoverage(const TransformationStore&,
                                       const UnitInterner&,
                                       const std::vector<ExamplePair>&,
                                       const DiscoveryOptions&,
                                       DiscoveryStats*);

  std::vector<uint32_t> offsets_;  // num_transformations + 1
  std::vector<uint32_t> rows_;     // concatenated covered-row lists
};

/// Evaluates every transformation in `store` against every row. With
/// options.enable_neg_cache, unit outcomes are memoized per row and the
/// transformations below a rejected trie node count as cache hits (the
/// paper's second pruning strategy); without it every unit visit recomputes
/// and those transformations count as full evaluations. The index is the
/// same either way and at every thread count.
CoverageIndex ComputeCoverage(const TransformationStore& store,
                              const UnitInterner& interner,
                              const std::vector<ExamplePair>& rows,
                              const DiscoveryOptions& options,
                              DiscoveryStats* stats);

}  // namespace tj

#endif  // TJ_CORE_COVERAGE_H_
