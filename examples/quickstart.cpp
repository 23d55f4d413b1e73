// Quickstart: discover transformations that make two differently-formatted
// columns equi-joinable (the paper's Figure 1 name example).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/discovery.h"

int main() {
  using namespace tj;

  // Joinable row pairs whose values are formatted differently. In a real
  // pipeline these come from the row matcher (see the join examples); here
  // they are given, like training examples.
  const std::vector<ExamplePair> rows = {
      {"prus-czarnecki, andrzej", "a prus-czarnecki"},
      {"bowling, michael", "m bowling"},
      {"gosgnach, simon", "s gosgnach"},
      {"rafiei, davood", "d rafiei"},
  };

  // Run discovery with the paper's default configuration (3 placeholders,
  // TwoCharSplitSubstr off).
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());

  std::printf("input rows:            %zu\n", result.num_rows);
  std::printf("generated candidates:  %llu\n",
              static_cast<unsigned long long>(
                  result.stats.generated_transformations));
  std::printf("unique after dedup:    %llu\n",
              static_cast<unsigned long long>(
                  result.stats.unique_transformations));
  std::printf("cache hit ratio:       %.1f%%\n\n",
              100.0 * result.stats.CacheHitRatio());

  // The best single transformation (maximum-coverage variant of the
  // problem) ...
  const auto& best = result.top[0];
  // Get() returns a view of the rule's units inside result.store.
  const Transformation t = result.store.Get(best.id);
  std::printf("best transformation (%u/%zu rows):\n  %s\n\n", best.coverage,
              result.num_rows, t.ToString(result.units).c_str());

  // ... generalizes to unseen rows:
  const auto mapped = t.Apply("nascimento, mario", result.units);
  std::printf("applied to \"nascimento, mario\": \"%s\"\n\n",
              mapped.value_or("<failed>").c_str());

  // The greedy minimal covering set (covering-set variant).
  std::printf("covering set (%zu transformation(s), coverage %.2f):\n",
              result.cover.selected.size(),
              result.CoverSetCoverageFraction());
  for (const auto& ranked : result.cover.selected) {
    std::printf("  [%u rows] %s\n", ranked.coverage,
                result.store.Get(ranked.id).ToString(result.units).c_str());
  }
  return 0;
}
