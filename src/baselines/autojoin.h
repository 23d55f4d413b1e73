// Auto-Join baseline (Zhu et al., VLDB 2017), re-implemented from the
// description in the paper's §3.2 / §5.2:
//
//   1. sample subsets of the input pairs (all rows of a subset must be
//      covered by a single transformation);
//   2. exhaustively enumerate every unit with every parameter assignment,
//      score each by the average target length it covers on the subset;
//   3. take the best unit, split the remaining target into the text left and
//      right of the match, and recurse on both sides, backtracking to the
//      next-best unit on failure;
//   4. the union of per-subset transformations is the final set.
//
// The exhaustive parameter enumeration is the point of the baseline: its
// cost grows as O(l^(zp+1) r) (paper §5.2). A budget of enumerated units
// mirrors the paper's 650,000-second cap treatment (§6.4); counting work
// instead of seconds makes a capped run stop at the same point, with the
// same result, on every machine and under any load.

#ifndef TJ_BASELINES_AUTOJOIN_H_
#define TJ_BASELINES_AUTOJOIN_H_

#include <cstdint>
#include <vector>

#include "core/coverage.h"
#include "core/example.h"
#include "core/set_cover.h"

namespace tj {

struct AutoJoinOptions {
  /// Number of sampled subsets (6 in the paper's experiments, §6.2).
  size_t num_subsets = 6;
  /// Rows per subset (2 yields the paper's best coverage, §6.2).
  size_t subset_size = 2;
  /// Recursion depth bound (the paper's "tree depth"; 3 to match p).
  int max_depth = 6;
  /// Candidate units tried per recursion level before giving up.
  size_t backtrack_limit = 8;
  /// Unit+parameter combinations the whole run may enumerate (see
  /// AutoJoinResult::units_enumerated); once spent the search stops and
  /// `capped` is set (the paper reports such runs at the cap).
  uint64_t unit_budget = 80'000'000;
  /// Excluded in the paper's experiments (§6.2).
  bool enable_twochar_split_substr = false;
  uint64_t seed = 7;
};

struct AutoJoinResult {
  UnitInterner units;
  TransformationStore store;
  /// Distinct transformations found across subsets (the method's final set).
  std::vector<TransformationId> found;
  /// Coverage of every found transformation over the full input.
  CoverageIndex coverage;
  /// found, ranked by full-input coverage.
  std::vector<RankedTransformation> ranked;
  /// Fraction of input rows covered by the union of `found`.
  double union_coverage = 0.0;
  size_t num_rows = 0;
  double seconds = 0.0;
  /// The search stopped because it spent AutoJoinOptions::unit_budget.
  bool capped = false;
  /// Unit+parameter combinations enumerated (work counter).
  uint64_t units_enumerated = 0;

  double TopCoverageFraction() const {
    if (num_rows == 0 || ranked.empty()) return 0.0;
    return static_cast<double>(ranked[0].coverage) /
           static_cast<double>(num_rows);
  }
};

AutoJoinResult RunAutoJoin(const std::vector<ExamplePair>& rows,
                           const AutoJoinOptions& options);

}  // namespace tj

#endif  // TJ_BASELINES_AUTOJOIN_H_
