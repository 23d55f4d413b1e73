// Figure 4a — Per-module runtime as the dataset grows vertically (more
// rows; row length fixed at 28 as in the paper).
//
// Series are the paper's four modules: applying transformations, duplicate
// removal (generation + hash-consing), placeholder generation, and unit
// extraction. Paper shape: applying dominates and grows superlinearly; the
// pruning keeps the curve near-linear.

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/thread_pool.h"
#include "core/discovery.h"
#include "datagen/synth.h"

namespace tj {
namespace {

void Run() {
  std::printf("== Figure 4a: Runtime breakdown vs number of rows ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  ThreadPool pool(suite_options.num_threads);
  DiscoveryOptions discovery;
  discovery.pool = &pool;
  SeriesPrinter series("rows", {"apply_s", "dedup_s", "placeholder_s",
                                "unit_extraction_s", "total_s"});
  const size_t row_counts[] = {100, 250, 500, 1000, 2000};
  for (size_t rows : row_counts) {
    const auto scaled =
        static_cast<size_t>(static_cast<double>(rows) * suite_options.scale);
    if (scaled < 4) continue;
    SynthOptions options;
    options.num_rows = scaled;
    options.min_len = 28;
    options.max_len = 28;
    options.seed = 1009 + rows;
    const SynthDataset ds = GenerateSynth(options);
    const std::vector<ExamplePair> examples = MakeExamplePairs(
        ds.pair.SourceColumn(), ds.pair.TargetColumn(),
        ds.pair.golden.pairs());
    const DiscoveryResult result =
        DiscoverTransformations(examples, discovery);
    series.AddPoint(static_cast<double>(scaled),
                    {result.stats.time_apply,
                     result.stats.time_duplicate_removal,
                     result.stats.time_placeholder_gen,
                     result.stats.time_unit_extraction,
                     result.stats.time_total});
  }
  series.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
