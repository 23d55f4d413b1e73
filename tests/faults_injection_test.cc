// Fault-injection tests: the failpoint registry itself (runs in every
// build — the registry functions are always compiled) plus the storage
// degradation contracts, which need the TJ_FAILPOINT sites compiled in and
// GTEST_SKIP themselves otherwise. Intended flow:
//   cmake -B build-faults -S . -DTJ_FAILPOINTS=ON -DTJ_SANITIZE=ON
//   cmake --build build-faults -j && ctest --test-dir build-faults -L faults
//
// The contracts under test, in order:
//  * every injected spill I/O failure surfaces as a clean Status or a
//    logged + counted heap fallback — never an abort, never a partial read;
//  * only a double failure (re-map AND file read both failing) leaves a
//    column unreadable, and that surfaces as a Status on the fallible
//    accessors;
//  * the signature-cache save is atomic: a fault anywhere in the
//    write/fsync/rename sequence leaves the existing file byte-identical
//    and no temp file behind;
//  * after the faults are cleared, the same catalog produces discovery
//    output byte-identical to a never-faulted run, at every thread count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "datagen/corpus.h"
#include "table/csv.h"
#include "table/spill_arena.h"
#include "table/storage_events.h"
#include "table/table.h"

namespace tj {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics (no storage involved; runs in every build).
// ---------------------------------------------------------------------------

class FailpointRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ClearAll(); }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(FailpointRegistryTest, UnconfiguredSiteEvaluatesToZero) {
  EXPECT_EQ(failpoint::Evaluate("test/nowhere"), 0);
  EXPECT_EQ(failpoint::TotalHits(), 0u);
}

TEST_F(FailpointRegistryTest, ConfiguredSiteFiresAndCounts) {
  FailpointConfig config;
  config.fail_errno = ENOSPC;
  failpoint::Configure("test/site", config);
  EXPECT_EQ(failpoint::Evaluate("test/site"), ENOSPC);
  EXPECT_EQ(failpoint::Evaluate("test/site"), ENOSPC);
  EXPECT_EQ(failpoint::Evaluate("test/other"), 0);  // sites are independent
  EXPECT_EQ(failpoint::Hits("test/site"), 2u);
  EXPECT_EQ(failpoint::TotalHits(), 2u);
}

TEST_F(FailpointRegistryTest, ErrnoZeroNormalizedToEIO) {
  FailpointConfig config;
  config.fail_errno = 0;  // a configured site must never inject "success"
  failpoint::Configure("test/site", config);
  EXPECT_EQ(failpoint::Evaluate("test/site"), EIO);
}

TEST_F(FailpointRegistryTest, OneShotStopsAfterMaxHits) {
  FailpointConfig config;
  config.max_hits = 1;
  failpoint::Configure("test/site", config);
  EXPECT_NE(failpoint::Evaluate("test/site"), 0);
  EXPECT_EQ(failpoint::Evaluate("test/site"), 0);
  EXPECT_EQ(failpoint::Evaluate("test/site"), 0);
  EXPECT_EQ(failpoint::Hits("test/site"), 1u);
}

TEST_F(FailpointRegistryTest, SkipPassesInitialEvaluations) {
  FailpointConfig config;
  config.skip = 2;
  failpoint::Configure("test/site", config);
  EXPECT_EQ(failpoint::Evaluate("test/site"), 0);
  EXPECT_EQ(failpoint::Evaluate("test/site"), 0);
  EXPECT_NE(failpoint::Evaluate("test/site"), 0);  // the 3rd ftruncate
}

TEST_F(FailpointRegistryTest, ProbabilityStreamIsDeterministicPerSeed) {
  const auto draw_pattern = [](uint64_t seed) {
    FailpointConfig config;
    config.probability = 0.5;
    config.seed = seed;
    failpoint::Configure("test/site", config);
    std::vector<bool> fired;
    for (int i = 0; i < 100; ++i) {
      fired.push_back(failpoint::Evaluate("test/site") != 0);
    }
    return fired;
  };
  const std::vector<bool> first = draw_pattern(42);
  const std::vector<bool> replay = draw_pattern(42);
  EXPECT_EQ(first, replay);  // reconfiguring resets the stream exactly
  EXPECT_NE(first, draw_pattern(43));
  const size_t fired =
      static_cast<size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 20u);  // p=0.5 over 100 draws; loose 6-sigma-ish bounds
  EXPECT_LT(fired, 80u);
}

TEST_F(FailpointRegistryTest, ClearStopsInjection) {
  failpoint::Configure("test/site", FailpointConfig());
  EXPECT_NE(failpoint::Evaluate("test/site"), 0);
  failpoint::Clear("test/site");
  EXPECT_EQ(failpoint::Evaluate("test/site"), 0);
  EXPECT_TRUE(failpoint::ActiveSites().empty());
}

TEST_F(FailpointRegistryTest, SpecParsesSitesKeysAndErrnoNames) {
  ASSERT_TRUE(failpoint::ConfigureFromSpec(
                  "mmap/ftruncate=p:0.5,errno:ENOSPC,seed:7;"
                  "catalog/save-rename=hits:1;"
                  "mmap/sync")
                  .ok());
  const std::vector<std::string> sites = failpoint::ActiveSites();
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0], "catalog/save-rename");
  EXPECT_EQ(sites[1], "mmap/ftruncate");
  EXPECT_EQ(sites[2], "mmap/sync");
  // The bare site fires EIO on every evaluation; the one-shot fires once.
  EXPECT_EQ(failpoint::Evaluate("mmap/sync"), EIO);
  EXPECT_NE(failpoint::Evaluate("catalog/save-rename"), 0);
  EXPECT_EQ(failpoint::Evaluate("catalog/save-rename"), 0);
}

TEST_F(FailpointRegistryTest, SpecRejectsMalformedInput) {
  EXPECT_FALSE(failpoint::ConfigureFromSpec("=p:0.5").ok());
  EXPECT_FALSE(failpoint::ConfigureFromSpec("site=p").ok());
  EXPECT_FALSE(failpoint::ConfigureFromSpec("site=p:2.0").ok());
  EXPECT_FALSE(failpoint::ConfigureFromSpec("site=errno:EWHAT").ok());
  EXPECT_FALSE(failpoint::ConfigureFromSpec("site=skip:-1").ok());
  EXPECT_FALSE(failpoint::ConfigureFromSpec("site=frobnicate:1").ok());
}

TEST_F(FailpointRegistryTest, RejectedSpecArmsNothing) {
  // Each was accepted before (or, for "a;b=p:2", rejected after arming a).
  for (const char* spec :
       {"a=p:nan", "a=p: 0.5", "a=hits:99999999999999", "a=seed:-1",
        "a;b=p:2"}) {
    const Status status = failpoint::ConfigureFromSpec(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_TRUE(failpoint::ActiveSites().empty()) << spec;
    failpoint::ClearAll();
  }
}

// ---------------------------------------------------------------------------
// Storage degradation under injected faults (needs -DTJ_FAILPOINTS=ON).
// ---------------------------------------------------------------------------

#define TJ_REQUIRE_FAILPOINT_BUILD()                                     \
  do {                                                                   \
    if (!failpoint::CompiledIn()) {                                      \
      GTEST_SKIP() << "storage sites compiled out; rebuild with "        \
                      "-DTJ_FAILPOINTS=ON";                              \
    }                                                                    \
  } while (false)

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    ResetStorageEventCounters();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("faults_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StorageOptions Storage(size_t budget = 0) const {
    StorageOptions storage;
    storage.spill_dir = (dir_ / "spill").string();
    storage.memory_budget_bytes = budget;
    return storage;
  }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::filesystem::path dir_;
};

TEST_F(FaultInjectionTest, SpillFileCreationFailureFallsBackToHeap) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  FailpointConfig config;
  config.fail_errno = EMFILE;
  failpoint::Configure("mmap/open", config);

  Column c = Column::WithStorage("c", Storage());
  c.Append("survives without a spill file");
  EXPECT_FALSE(c.spilled());  // the arena landed on the heap instead
  EXPECT_EQ(c.Get(0), "survives without a spill file");
  EXPECT_GE(GetStorageEventCounters().heap_fallback_columns, 1u);
}

TEST_F(FaultInjectionTest, EnospcDuringGrowthFallsBackToHeapCompletely) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  Column c = Column::WithStorage("c", Storage());
  std::vector<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    expected.push_back("row-" + std::to_string(i) + "-padding-padding");
    c.Append(expected.back());
  }
  ASSERT_TRUE(c.spilled());

  // Disk full from here on: the next growth ftruncate fails with ENOSPC.
  FailpointConfig config;
  config.fail_errno = ENOSPC;
  failpoint::Configure("mmap/ftruncate", config);
  const std::string big(512 * 1024, 'x');  // forces a grow past 64 KiB
  c.Append(big);
  expected.push_back(big);
  EXPECT_GE(failpoint::Hits("mmap/ftruncate"), 1u);

  // All-or-nothing: every byte appended before the fault reads back
  // exactly (never a partial arena read), plus the append that hit the
  // fault — now on the heap.
  EXPECT_FALSE(c.spilled());
  ASSERT_EQ(c.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(c.Get(i), expected[i]) << "row " << i;
  }
  const StorageEventCounters events = GetStorageEventCounters();
  EXPECT_GE(events.heap_fallback_columns, 1u);
  EXPECT_GE(events.spill_errors_recovered, 1u);
}

TEST_F(FaultInjectionTest, RemapFailureRescuesBytesOntoHeap) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  Column c = Column::WithStorage("c", Storage());
  c.Append("alpha");
  c.Append("beta-gamma");
  c.Freeze();
  ASSERT_TRUE(c.Evict().ok());
  ASSERT_FALSE(c.resident());

  failpoint::Configure("mmap/map", FailpointConfig());
  // Re-map fails, but the spill file is intact: the bytes are rescued onto
  // a heap arena and the column keeps working.
  EXPECT_TRUE(c.EnsureResident().ok());
  EXPECT_TRUE(c.resident());
  EXPECT_FALSE(c.spilled());
  EXPECT_EQ(c.Get(0), "alpha");
  EXPECT_EQ(c.Get(1), "beta-gamma");
  EXPECT_GE(GetStorageEventCounters().heap_fallback_columns, 1u);
}

TEST_F(FaultInjectionTest, DoubleFailureSurfacesStatusThenHeals) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  Column c = Column::WithStorage("c", Storage());
  c.Append("alpha");
  c.Append("beta");
  c.Freeze();
  ASSERT_TRUE(c.Evict().ok());

  // Both the re-map and the pread rescue fail: the only storage state the
  // library cannot absorb. It must surface as a Status — the column stays
  // evicted, nothing aborts.
  failpoint::Configure("mmap/map", FailpointConfig());
  failpoint::Configure("mmap/read", FailpointConfig());
  const Status unreadable = c.EnsureResident();
  EXPECT_FALSE(unreadable.ok());
  EXPECT_FALSE(c.resident());
  EXPECT_TRUE(c.spilled());  // still on its (currently unreadable) file

  // Heal: the spill file was never corrupted, so clearing the faults makes
  // the very same column fully readable again.
  failpoint::ClearAll();
  ASSERT_TRUE(c.EnsureResident().ok());
  EXPECT_EQ(c.Get(0), "alpha");
  EXPECT_EQ(c.Get(1), "beta");
}

TEST_F(FaultInjectionTest, EvictSyncFailureKeepsColumnResident) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  Column c = Column::WithStorage("c", Storage());
  c.Append("must never be dropped unsynced");
  c.Freeze();

  failpoint::Configure("mmap/sync", FailpointConfig());
  const Status evicted = c.Evict();
  EXPECT_FALSE(evicted.ok());
  // Possibly-unsynced pages are never dropped: the column stays resident
  // and readable as if the eviction was never attempted.
  EXPECT_TRUE(c.resident());
  EXPECT_EQ(c.Get(0), "must never be dropped unsynced");

  failpoint::ClearAll();
  EXPECT_TRUE(c.Evict().ok());
  ASSERT_TRUE(c.EnsureResident().ok());
  EXPECT_EQ(c.Get(0), "must never be dropped unsynced");
}

TEST_F(FaultInjectionTest, BudgetEnforcementSkipsTablesWhoseSyncFails) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  // Two tables: enforcement always spares the newest-touched entry, so the
  // colder one ("cold") is the eviction candidate.
  const auto make_table = [](const std::string& name) {
    Table table(name);
    Column c("c");
    for (int i = 0; i < 200; ++i) c.Append("cell-" + std::to_string(i));
    TJ_CHECK(table.AddColumn(std::move(c)).ok());
    return table;
  };
  TableCatalog catalog(Storage(/*budget=*/1));
  const auto cold = catalog.AddTable(make_table("cold"));
  const auto hot = catalog.AddTable(make_table("hot"));
  ASSERT_TRUE(cold.ok() && hot.ok());
  // The 1-byte budget evicted both at registration; fault them back in
  // (cold first, so it has the older touch stamp).
  ASSERT_TRUE(catalog.EnsureTableResident(*cold).ok());
  ASSERT_TRUE(catalog.EnsureTableResident(*hot).ok());
  const size_t all_resident = catalog.ResidentCellBytes();
  ASSERT_GT(all_resident, 1u);

  failpoint::Configure("mmap/sync", FailpointConfig());
  // Every eviction sync fails: enforcement must skip the cold table
  // (resident, possibly-dirty pages are never dropped) and return without
  // aborting or dropping bytes.
  catalog.EnforceMemoryBudget();
  EXPECT_EQ(catalog.ResidentCellBytes(), all_resident);
  EXPECT_GE(GetStorageEventCounters().spill_errors_recovered, 1u);

  failpoint::ClearAll();
  catalog.EnforceMemoryBudget();
  // Now the cold table really evicts (the hot one is spared as newest) —
  // and its bytes stay perfectly readable through the fallible accessor,
  // which re-maps on access.
  EXPECT_LT(catalog.ResidentCellBytes(), all_resident);
  const auto resident = catalog.ResidentColumn(ColumnRef{*cold, 0});
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ((*resident)->Get(7), "cell-7");
}

TEST_F(FaultInjectionTest, SignatureSaveIsAtomicUnderFaults) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  Table left("left");
  ASSERT_TRUE(
      left.AddColumn(Column("a", {"alpha", "beta", "gamma"})).ok());
  Table right("right");
  ASSERT_TRUE(
      right.AddColumn(Column("b", {"alpha", "delta", "gamma"})).ok());
  TableCatalog catalog;
  ASSERT_TRUE(catalog.AddTable(std::move(left)).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(right)).ok());
  catalog.ComputeSignatures();

  const std::string path = (dir_ / "signatures.tj").string();
  ASSERT_TRUE(catalog.SaveSignaturesToFile(path).ok());
  const std::string baseline = ReadFileBytes(path);
  ASSERT_FALSE(baseline.empty());

  for (const char* site :
       {"catalog/save-write", "catalog/save-fsync", "catalog/save-rename"}) {
    SCOPED_TRACE(site);
    failpoint::Configure(site, FailpointConfig());
    EXPECT_FALSE(catalog.SaveSignaturesToFile(path).ok());
    failpoint::ClearAll();
    // The existing cache is byte-identical and no temp file survives.
    EXPECT_EQ(ReadFileBytes(path), baseline);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }

  // Post-heal the save works and the file round-trips into a fresh catalog.
  ASSERT_TRUE(catalog.SaveSignaturesToFile(path).ok());
  EXPECT_EQ(ReadFileBytes(path), baseline);
}

// ---------------------------------------------------------------------------
// The capstone: randomized fault sweep under discovery, then heal and
// verify the surviving catalog is byte-identical to a fault-free run.
// ---------------------------------------------------------------------------

void ExpectSameDiscovery(const CorpusDiscoveryResult& a,
                         const CorpusDiscoveryResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs) << label;
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs) << label;
  EXPECT_EQ(b.failed_pairs, 0u) << label;
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const CorpusPairResult& x = a.results[i];
    const CorpusPairResult& y = b.results[i];
    EXPECT_TRUE(x.source == y.source && x.target == y.target)
        << label << " rank " << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << label << " rank " << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << label << " rank " << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << label << " rank " << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << label << " rank " << i;
    EXPECT_EQ(x.transformations, y.transformations)
        << label << " rank " << i;
    EXPECT_TRUE(y.error.empty()) << label << " rank " << i;
  }
}

TEST_F(FaultInjectionTest, DiscoverySurvivesFaultSweepAndHealsIdentically) {
  TJ_REQUIRE_FAILPOINT_BUILD();
  // One corpus on disk; a fault-free heap run is the golden output.
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 3;
  corpus_options.num_noise_tables = 1;
  corpus_options.rows = 24;
  corpus_options.seed = 17;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  const std::filesystem::path csv_dir = dir_ / "corpus";
  std::filesystem::create_directories(csv_dir);
  size_t total_cells = 0;
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(
        WriteCsvFile(table, (csv_dir / (table.name() + ".csv")).string())
            .ok());
    total_cells += table.ArenaBytes();
  }

  CorpusDiscoveryOptions options;
  options.num_threads = 1;
  TableCatalog heap_catalog;
  ASSERT_TRUE(heap_catalog.AddCsvDirectory(csv_dir.string()).ok());
  const CorpusDiscoveryResult baseline =
      DiscoverJoinableColumns(&heap_catalog, options);
  ASSERT_FALSE(baseline.results.empty());

  // Sites the sweep arms: every recoverable mmap seam. mmap/read stays out
  // — armed together with mmap/map it manufactures the double failure,
  // which is a Status-surfacing path (covered above), not a degrade-and-
  // continue one.
  const std::vector<std::string> sweep_sites = {
      "mmap/ftruncate", "mmap/map", "mmap/sync", "mmap/release-sync",
      "mmap/madvise"};

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    failpoint::ClearAll();
    ResetStorageEventCounters();

    // Arm the sweep with a deterministic per-thread-count seed, then build
    // and mine the catalog entirely under fire: spilled ingest, budget
    // eviction churn, signatures, discovery.
    for (size_t s = 0; s < sweep_sites.size(); ++s) {
      FailpointConfig config;
      config.probability = 0.25;
      config.fail_errno = (s % 2 == 0) ? EIO : ENOSPC;
      config.seed = 1000u + static_cast<uint64_t>(threads) * 10u + s;
      failpoint::Configure(sweep_sites[s], config);
    }

    StorageOptions storage;
    storage.spill_dir =
        (dir_ / ("sweep_t" + std::to_string(threads))).string();
    storage.memory_budget_bytes = std::max<size_t>(total_cells / 4, 1);
    TableCatalog catalog(storage);
    const auto loaded = catalog.AddCsvDirectory(csv_dir.string());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->skipped, 0u);  // faults degrade, they don't drop data

    CorpusDiscoveryOptions threaded = options;
    threaded.num_threads = threads;
    const CorpusDiscoveryResult faulted =
        DiscoverJoinableColumns(&catalog, threaded);
    // The faulted run completes cleanly: one slot per shortlisted pair,
    // failures (if any) carried as per-pair errors, zero counts with them.
    EXPECT_EQ(faulted.failed_pairs,
              static_cast<size_t>(
                  std::count_if(faulted.results.begin(),
                                faulted.results.end(),
                                [](const CorpusPairResult& r) {
                                  return !r.error.empty();
                                })));
    for (const CorpusPairResult& r : faulted.results) {
      if (!r.error.empty()) {
        EXPECT_EQ(r.joined_rows, 0u);
        EXPECT_EQ(r.learning_pairs, 0u);
      }
    }

    // Heal and re-mine the SAME catalog — the one that just absorbed the
    // sweep. Byte-preserving degradation means its output must now be
    // byte-identical to the never-faulted baseline.
    failpoint::ClearAll();
    const CorpusDiscoveryResult healed =
        DiscoverJoinableColumns(&catalog, threaded);
    ExpectSameDiscovery(baseline, healed,
                        "healed t=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace tj
