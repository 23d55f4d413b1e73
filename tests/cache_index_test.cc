// Tests for the cross-pair index cache (index/index_cache.h): unit tests
// for the single-flight build race, fingerprint-keyed invalidation, and
// LRU budget eviction order, plus the PR's acceptance property — random
// add/remove/update maintenance sequences where discovery with a shared,
// mutation-spanning cache stays byte-identical to cache-disabled runs at
// thread counts 1/2/4/8 on heap and spilled catalogs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "datagen/corpus.h"
#include "index/index_cache.h"
#include "index/inverted_index.h"
#include "table/table.h"

namespace tj {
namespace {

IndexCacheKey MakeKey(uint64_t fingerprint, uint32_t column = 0) {
  IndexCacheKey key;
  key.fingerprint = fingerprint;
  key.column = column;
  key.n0 = 2;
  key.nmax = 4;
  key.lowercase = false;
  return key;
}

Column SmallColumn(const char* name) {
  return Column(name, {"alpha", "beta", "gamma", "delta"});
}

TEST(IndexCache, SingleFlightRunsExactlyOneBuild) {
  IndexCache cache;  // unlimited
  const IndexCacheKey key = MakeKey(/*fingerprint=*/7);
  std::atomic<int> builds{0};

  constexpr size_t kRequests = 8;
  std::vector<std::shared_ptr<const NgramInvertedIndex>> got(kRequests);
  ThreadPool pool(4);
  pool.ParallelFor(kRequests, kRequests,
                   [&](int /*worker*/, size_t chunk, size_t /*begin*/,
                       size_t /*end*/) {
                     got[chunk] = cache.GetOrBuild(key, [&] {
                       ++builds;
                       // Hold the build open so concurrent requesters pile
                       // up on the condvar instead of racing past an
                       // already-ready entry.
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                       return NgramInvertedIndex::Build(SmallColumn("c"), 2,
                                                        4, false);
                     });
                   });

  EXPECT_EQ(builds.load(), 1);
  for (const auto& index : got) {
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index.get(), got[0].get());  // everyone shares the winner's
  }
  const IndexCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kRequests - 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(IndexCache, FingerprintChangeInvalidatesWithoutExplicitCall) {
  TableCatalog catalog;
  Table table("t");
  table.AddColumn(SmallColumn("c"));
  auto id = catalog.AddTable(std::move(table));
  ASSERT_TRUE(id.ok());
  const uint64_t before = catalog.fingerprint(*id);
  ASSERT_NE(before, 0u);

  IndexCache cache;
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return NgramInvertedIndex::Build(catalog.column({*id, 0}), 2, 4, false);
  };

  cache.GetOrBuild(MakeKey(before), build);   // miss: first sight
  cache.GetOrBuild(MakeKey(before), build);   // hit
  EXPECT_EQ(builds.load(), 1);

  // Mutate the table: the catalog recomputes the content fingerprint, so
  // the old entry is simply never addressed again — no invalidate call.
  Table mutated = catalog.table(*id);
  mutated.mutable_column(0).Set(0, "ALPHA-REWRITTEN");
  auto updated = catalog.UpdateTable(std::move(mutated));
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(*updated, *id);  // update keeps the stable id
  const uint64_t after = catalog.fingerprint(*id);
  EXPECT_NE(after, before);

  cache.GetOrBuild(MakeKey(after), build);  // miss: new contents
  cache.GetOrBuild(MakeKey(after), build);  // hit
  EXPECT_EQ(builds.load(), 2);

  const IndexCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  // The orphaned pre-update entry stays resident until the budget ages it
  // out of the LRU ring (this cache is unlimited, so it is still here).
  EXPECT_EQ(stats.entries, 2u);
}

TEST(IndexCache, BudgetEvictsLeastRecentlyUsedFirst) {
  // Three identical columns under distinct fingerprints: every entry costs
  // the same, so a budget of two entries forces exactly one eviction on the
  // third install — and it must take the LRU tail, not the recently-touched
  // entry.
  const size_t one_entry_bytes =
      NgramInvertedIndex::Build(SmallColumn("c"), 2, 4, false).MemoryBytes();
  ASSERT_GT(one_entry_bytes, 0u);

  IndexCache cache(2 * one_entry_bytes);
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return NgramInvertedIndex::Build(SmallColumn("c"), 2, 4, false);
  };

  cache.GetOrBuild(MakeKey(1), build);  // A
  cache.GetOrBuild(MakeKey(2), build);  // B
  cache.GetOrBuild(MakeKey(1), build);  // touch A: LRU order is now A, B
  EXPECT_EQ(builds.load(), 2);

  cache.GetOrBuild(MakeKey(3), build);  // C: over budget, evicts B
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(cache.GetStats().evictions, 1u);

  cache.GetOrBuild(MakeKey(1), build);  // A survived the eviction...
  EXPECT_EQ(builds.load(), 3);
  cache.GetOrBuild(MakeKey(2), build);  // ...B did not: rebuilt
  EXPECT_EQ(builds.load(), 4);
}

TEST(IndexCache, TinyBudgetRetainsTheJustInstalledEntry) {
  const size_t one_entry_bytes =
      NgramInvertedIndex::Build(SmallColumn("c"), 2, 4, false).MemoryBytes();
  // Budget smaller than a single index: the cache must not thrash down to
  // nothing — each install retains the newest entry and evicts the rest.
  IndexCache cache(one_entry_bytes / 2);
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return NgramInvertedIndex::Build(SmallColumn("c"), 2, 4, false);
  };

  cache.GetOrBuild(MakeKey(1), build);
  EXPECT_EQ(cache.GetStats().entries, 1u);
  cache.GetOrBuild(MakeKey(2), build);
  const IndexCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  cache.GetOrBuild(MakeKey(2), build);  // newest entry is servable
  EXPECT_EQ(builds.load(), 2);
}

// ---------------------------------------------------------------------------
// Property test: cache on/off byte-identity under random maintenance.
// ---------------------------------------------------------------------------

void ExpectIdenticalDiscovery(const CorpusDiscoveryResult& a,
                              const CorpusDiscoveryResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs) << context;
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs) << context;
  EXPECT_EQ(a.failed_pairs, b.failed_pairs) << context;
  ASSERT_EQ(a.results.size(), b.results.size()) << context;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const CorpusPairResult& x = a.results[i];
    const CorpusPairResult& y = b.results[i];
    EXPECT_TRUE(x.source == y.source && x.target == y.target)
        << context << " pair " << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << context << " " << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << context << " " << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << context << " " << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << context << " " << i;
    EXPECT_EQ(x.transformations, y.transformations) << context << " " << i;
    EXPECT_EQ(x.error, y.error) << context << " " << i;
  }
}

SynthCorpus MakeCorpus(const char* prefix, size_t pairs, size_t noise,
                       uint64_t seed) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = pairs;
  options.num_noise_tables = noise;
  options.rows = 20;
  options.seed = seed;
  options.name_prefix = prefix;
  return GenerateSynthCorpus(options);
}

/// Runs a random add/remove/update sequence over one catalog while a SINGLE
/// IndexCache spans every step — the cross-mutation scenario the
/// fingerprint keying exists for. After each mutation, discovery with the
/// shared cache at thread counts 1/2/4/8 must be byte-identical to a
/// cache-disabled run over the same state.
void RunMaintenanceIdentityProperty(const StorageOptions& storage,
                                    size_t cache_budget_bytes,
                                    const std::string& label) {
  const SynthCorpus base = MakeCorpus("synth", 3, 2, 17);
  const SynthCorpus extra = MakeCorpus("add", 2, 1, 18);
  std::vector<Table> reservoir(extra.tables.begin(), extra.tables.end());
  size_t next_reservoir = 0;

  TableCatalog catalog(storage);
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();

  IndexCache cache(cache_budget_bytes);

  const auto check_identity = [&](const std::string& context) {
    CorpusDiscoveryOptions plain;
    plain.num_threads = 1;
    const CorpusDiscoveryResult reference =
        DiscoverJoinableColumns(&catalog, plain);
    ASSERT_FALSE(reference.results.empty()) << context;
    for (const int threads : {1, 2, 4, 8}) {
      CorpusDiscoveryOptions cached = plain;
      cached.num_threads = threads;
      cached.index_cache = &cache;
      const CorpusDiscoveryResult got =
          DiscoverJoinableColumns(&catalog, cached);
      ExpectIdenticalDiscovery(
          reference, got,
          label + " " + context + StrPrintf(" [threads=%d]", threads));
    }
  };

  check_identity("initial");

  Rng rng(12345);
  for (int op = 0; op < 4; ++op) {
    const std::string context = StrPrintf("op %d", op);
    std::vector<uint32_t> live;
    for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
      if (catalog.IsLive(t)) live.push_back(t);
    }
    const uint64_t kind = rng.Uniform(3);
    if (kind == 0 && next_reservoir < reservoir.size()) {
      auto id = catalog.AddTable(reservoir[next_reservoir++]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      catalog.ComputeSignatures();
    } else if (kind == 1 && live.size() > 4) {
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      ASSERT_TRUE(catalog.RemoveTable(catalog.table(victim).name()).ok());
    } else {
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      Table mutated = catalog.table(victim);
      if (mutated.num_rows() == 0) continue;
      const size_t row =
          static_cast<size_t>(rng.Uniform(mutated.num_rows()));
      mutated.mutable_column(0).Set(
          row, StrPrintf("updated-cell-%d-%llu", op,
                         static_cast<unsigned long long>(rng.NextU64())));
      auto id = catalog.UpdateTable(std::move(mutated));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, victim);
      catalog.ComputeSignatures();
    }
    check_identity(context);
  }

  // The cache must actually have been exercised — identity by bypass would
  // prove nothing. Hit counts under a tiny budget depend on eviction
  // timing in the pair-level fan-out, so the churn variant asserts
  // evictions happened instead of hits.
  const IndexCacheStats stats = cache.GetStats();
  EXPECT_GT(stats.misses, 0u) << label;
  if (cache_budget_bytes == 0) {
    EXPECT_GT(stats.hits, 0u) << label;
  } else {
    EXPECT_GT(stats.evictions, 0u) << label;
  }
}

TEST(IndexCacheProperty, MaintenanceIdentityOnHeapCatalog) {
  RunMaintenanceIdentityProperty(StorageOptions(), /*cache_budget_bytes=*/0,
                                 "heap");
}

TEST(IndexCacheProperty, MaintenanceIdentityOnSpilledCatalogTinyBudget) {
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "tj_cache_spill")
          .string();
  std::filesystem::create_directories(spill_dir);
  StorageOptions storage;
  storage.spill_dir = spill_dir;
  // A deliberately tiny budget: constant eviction churn during the
  // sequence, and identity must hold anyway.
  RunMaintenanceIdentityProperty(storage, /*cache_budget_bytes=*/64 << 10,
                                 "spilled");
}

}  // namespace
}  // namespace tj
