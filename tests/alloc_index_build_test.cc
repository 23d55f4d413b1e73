// Allocation bound on the flat CSR n-gram index build. This binary alone
// links bench/alloc_hooks.cc (the counting operator new/delete), so the
// counters of common/alloc_stats.h tick here. The CSR layout's point is a
// constant number of allocations per column build instead of one heap node
// and one posting vector per distinct gram; the bound pins the count
// measured on a fixed corpus, so a build that regresses to per-gram
// allocation fails.

#include <gtest/gtest.h>

#include "benchlib/storage_metrics.h"
#include "common/alloc_stats.h"
#include "datagen/corpus.h"

namespace tj {
namespace {

TEST(IndexBuildAllocs, CsrBuildStaysUnderPinnedBound) {
  ASSERT_TRUE(AllocCountingAvailable());

  // 24 tables: 10 joinable pairs plus 4 noise tables, 40 rows each.
  SynthCorpusOptions options;
  options.num_joinable_pairs = 10;
  options.num_noise_tables = 4;
  options.rows = 40;
  options.seed = 42;
  const SynthCorpus corpus = GenerateSynthCorpus(options);
  ASSERT_EQ(corpus.tables.size(), 24u);

  StorageMetrics metrics;
  for (const Table& table : corpus.tables) {
    for (const Column& column : table.columns()) metrics.MeasureColumn(column);
  }
  std::printf("index build: %llu allocs, %zu postings\n",
              static_cast<unsigned long long>(metrics.csr.allocs),
              metrics.index_total_postings);
  EXPECT_GT(metrics.index_total_postings, 0u);
  EXPECT_LE(metrics.csr.allocs, 1681u);
}

}  // namespace
}  // namespace tj
