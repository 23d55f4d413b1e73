// Ablation bench — the design choices DESIGN.md §6 calls out:
//   1. transformation dedup (hash-consing)      [Table 4, col 1-3]
//   2. negative-unit cache                      [§6.6: runtime drops to 61%]
//   3. placeholder tokenization (Lemma 4)       [§4.1.3]
//   4. placeholder cap p in {2, 3, 4}           [§6.2 trade-off]
// Each variant runs the same synthetic workload; coverage should stay
// identical for 1-2 (pure pruning) and may change for 3-4 (search space).

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/thread_pool.h"
#include "core/discovery.h"
#include "datagen/synth.h"
#include "datagen/webtables.h"

namespace tj {
namespace {

struct Variant {
  const char* name;
  DiscoveryOptions options;
};

void RunOn(const char* dataset_name,
           const std::vector<std::vector<ExamplePair>>& tables,
           ThreadPool* pool) {
  std::printf("-- %s --\n", dataset_name);
  std::vector<Variant> variants;
  variants.push_back({"full", DiscoveryOptions()});
  {
    DiscoveryOptions o;
    o.enable_dedup = false;
    variants.push_back({"no-dedup", o});
  }
  {
    DiscoveryOptions o;
    o.enable_neg_cache = false;
    variants.push_back({"no-neg-cache", o});
  }
  {
    DiscoveryOptions o;
    o.tokenize_placeholders = false;
    variants.push_back({"no-tokenize", o});
  }
  for (int p : {2, 4}) {
    DiscoveryOptions o;
    o.max_placeholders = p;
    variants.push_back({p == 2 ? "p=2" : "p=4", o});
  }
  for (Variant& variant : variants) variant.options.pool = pool;

  TablePrinter table({"variant", "time", "unique trans", "evals", "top cov",
                      "coverage", "#sets"});
  for (const Variant& variant : variants) {
    double seconds = 0.0;
    double unique = 0.0;
    double evals = 0.0;
    std::vector<double> top;
    std::vector<double> cover;
    std::vector<double> sets;
    for (const auto& rows : tables) {
      const DiscoveryResult result =
          DiscoverTransformations(rows, variant.options);
      seconds += result.stats.time_total;
      unique += static_cast<double>(result.stats.unique_transformations);
      evals += static_cast<double>(result.stats.full_evaluations);
      top.push_back(result.TopCoverageFraction());
      cover.push_back(result.CoverSetCoverageFraction());
      sets.push_back(static_cast<double>(result.cover.selected.size()));
    }
    table.AddRow({variant.name, FormatSeconds(seconds),
                  FormatDouble(unique, 0), FormatDouble(evals, 0),
                  FormatDouble(Mean(top), 2), FormatDouble(Mean(cover), 2),
                  FormatDouble(Mean(sets), 1)});
  }
  table.Print();
  std::printf("\n");
}

void Run() {
  std::printf("== Ablation: pruning strategies and placeholder cap ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  ThreadPool pool(suite_options.num_threads);

  // Synthetic workload (dedup ablation needs a modest size: without
  // hash-consing every duplicate is re-applied to every row).
  {
    const auto rows =
        static_cast<size_t>(150 * suite_options.scale) < 20
            ? 20
            : static_cast<size_t>(150 * suite_options.scale);
    // The datasets own the arenas the example-pair views point into, so
    // they must outlive RunOn.
    std::vector<SynthDataset> datasets;
    std::vector<std::vector<ExamplePair>> tables;
    for (int i = 0; i < 2; ++i) {
      datasets.push_back(GenerateSynth(SynthN(rows, 51 + i)));
      const SynthDataset& ds = datasets.back();
      tables.push_back(MakeExamplePairs(ds.pair.SourceColumn(),
                                        ds.pair.TargetColumn(),
                                        ds.pair.golden.pairs()));
    }
    RunOn("Synth-150 (2 tables)", tables, &pool);
  }

  // A slice of the web-tables benchmark (golden pairs).
  {
    WebTablesOptions options;
    options.num_pairs = 6;
    const std::vector<TablePair> pairs = GenerateWebTables(options);
    std::vector<std::vector<ExamplePair>> tables;
    for (const TablePair& pair : pairs) {
      tables.push_back(MakeExamplePairs(pair.SourceColumn(),
                                        pair.TargetColumn(),
                                        pair.golden.pairs()));
    }
    RunOn("Web tables (6 pairs, golden matching)", tables, &pool);
  }
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
