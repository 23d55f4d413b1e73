// TransformationDiscovery: the end-to-end pipeline of the paper's §4.1 —
// placeholders -> skeletons -> unit candidates -> Cartesian generation with
// dedup -> cached coverage -> top-k / greedy minimal cover.
//
// This is the library's primary public entry point:
//
//   std::vector<ExamplePair> rows = {{"bowling, michael", "m bowling"}, ...};
//   DiscoveryResult r = DiscoverTransformations(rows, DiscoveryOptions());
//   for (const auto& ranked : r.cover.selected) {
//     const Transformation t = r.store.Get(ranked.id);  // view into r.store
//     std::cout << t.ToString(r.units) << "\n";
//   }

#ifndef TJ_CORE_DISCOVERY_H_
#define TJ_CORE_DISCOVERY_H_

#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/example.h"
#include "core/options.h"
#include "core/set_cover.h"
#include "core/stats.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {

/// Everything discovery produces. Movable, not copyable (owning stores).
struct DiscoveryResult {
  UnitInterner units;
  TransformationStore store;
  CoverageIndex coverage;
  /// Up to options.top_k transformations by coverage (maximum-coverage
  /// problem variant).
  std::vector<RankedTransformation> top;
  /// Greedy minimal covering set (covering-set problem variant).
  SetCoverResult cover;
  DiscoveryStats stats;
  /// Number of input rows (denominator for coverage fractions).
  size_t num_rows = 0;

  /// Coverage fraction of the single best transformation ("Top Cov.").
  double TopCoverageFraction() const;
  /// Coverage fraction of the covering set ("Coverage").
  double CoverSetCoverageFraction() const;

  /// Human-readable multi-line summary of the solution.
  std::string Describe(size_t max_items = 10) const;
};

/// Runs the full discovery pipeline on pre-matched row pairs.
DiscoveryResult DiscoverTransformations(const std::vector<ExamplePair>& rows,
                                        const DiscoveryOptions& options);

}  // namespace tj

#endif  // TJ_CORE_DISCOVERY_H_
