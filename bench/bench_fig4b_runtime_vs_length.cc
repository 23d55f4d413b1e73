// Figure 4b — Per-module runtime as the dataset grows horizontally (longer
// rows; row count fixed at 100 as in the paper).
//
// Paper shape: past a certain length, duplicate removal and placeholder
// generation overtake transformation application, because the duplicate
// fraction and the cache hit ratio both climb with length.

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
  std::printf("== Figure 4b: Runtime breakdown vs input length ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  ThreadPool pool(suite_options.num_threads);
  const size_t rows =
      static_cast<size_t>(100 * suite_options.scale) < 10
          ? 10
          : static_cast<size_t>(100 * suite_options.scale);
  SeriesPrinter series("length", {"apply_s", "dedup_s", "placeholder_s",
                                  "unit_extraction_s", "total_s"});
  for (int length = 20; length <= 280; length += 40) {
    SynthOptions options;
    options.num_rows = rows;
    options.min_len = length;
    options.max_len = length;
    options.seed = 7001 + static_cast<uint64_t>(length);
    const SynthDataset ds = GenerateSynth(options);
    const std::vector<ExamplePair> examples = MakeExamplePairs(
        ds.pair.SourceColumn(), ds.pair.TargetColumn(),
        ds.pair.golden.pairs());
    // Raise the per-row generation cap so horizontal growth is visible (the
    // paper's implementation has no such cap; the default 4096 flattens the
    // curve past ~length 100).
    DiscoveryOptions discovery;
    discovery.max_transformations_per_row = 32768;
    discovery.pool = &pool;
    const DiscoveryResult result =
        DiscoverTransformations(examples, discovery);
    series.AddPoint(length, {result.stats.time_apply,
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
