// Tests for the corpus-scale discovery subsystem: signature math, catalog
// round-trips, pruner recall on synthetic corpora, and end-to-end
// determinism (bit-identical ranked output for every thread count, exactly
// one ThreadPool per run).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/csv.h"

namespace tj {
namespace {

Column MakeColumn(std::string name, std::vector<std::string> values) {
  return Column(std::move(name), std::move(values));
}

TEST(ColumnSignature, StatsAndCharset) {
  const Column column = MakeColumn(
      "c", {"Alpha Bravo", "charlie-42", "delta"});
  const ColumnSignature sig = ComputeColumnSignature(column);

  EXPECT_EQ(sig.num_rows, 3u);
  EXPECT_EQ(sig.min_length, 5u);
  EXPECT_EQ(sig.max_length, 11u);
  EXPECT_DOUBLE_EQ(sig.mean_length, (11.0 + 10.0 + 5.0) / 3.0);
  // Lowercased before classification: no upper bit.
  EXPECT_TRUE(sig.charset_mask & kCharsetLower);
  EXPECT_FALSE(sig.charset_mask & kCharsetUpper);
  EXPECT_TRUE(sig.charset_mask & kCharsetDigit);
  EXPECT_TRUE(sig.charset_mask & kCharsetSpace);
  EXPECT_TRUE(sig.charset_mask & kCharsetPunct);
  EXPECT_GT(sig.distinct_ngrams, 0u);
  EXPECT_EQ(sig.minhash.size(), kSketchSlots);
}

TEST(ColumnSignature, ContainmentSeparatesSharedFromDisjoint) {
  const Column shared_a = MakeColumn(
      "a", {"university of alberta", "university of toronto"});
  const Column shared_b = MakeColumn(
      "b", {"alberta university", "toronto university"});
  const Column disjoint = MakeColumn("d", {"0123456789", "9876543210"});
  const ColumnSignature sig_a = ComputeColumnSignature(shared_a);
  const ColumnSignature sig_b = ComputeColumnSignature(shared_b);
  const ColumnSignature sig_d = ComputeColumnSignature(disjoint);

  EXPECT_DOUBLE_EQ(EstimateNgramContainment(sig_a, sig_a), 1.0);
  EXPECT_GT(EstimateNgramContainment(sig_a, sig_b), 0.5);
  EXPECT_LT(EstimateNgramContainment(sig_a, sig_d), 0.05);
}

TEST(ColumnSignature, EmptyColumns) {
  const Column empty = MakeColumn("e", {});
  const Column tiny = MakeColumn("t", {"ab"});  // shorter than the gram size
  const ColumnSignature sig_e = ComputeColumnSignature(empty);
  const ColumnSignature sig_t = ComputeColumnSignature(tiny);
  EXPECT_EQ(sig_e.num_rows, 0u);
  EXPECT_EQ(sig_e.distinct_ngrams, 0u);
  EXPECT_EQ(sig_t.distinct_ngrams, 0u);
  EXPECT_DOUBLE_EQ(EstimateNgramContainment(sig_e, sig_t), 0.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard(sig_e, sig_e), 0.0);
}

SynthCorpusOptions SmallCorpus() {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 4;
  options.num_noise_tables = 2;
  options.rows = 30;
  options.seed = 7;
  return options;
}

TableCatalog BuildCatalog(const SynthCorpus& corpus) {
  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return catalog;
}

TEST(TableCatalog, RejectsDuplicateAndUnnamedTables) {
  TableCatalog catalog;
  Table unnamed;
  EXPECT_FALSE(catalog.AddTable(unnamed).ok());
  Table named("t");
  EXPECT_TRUE(catalog.AddTable(named).ok());
  EXPECT_EQ(catalog.AddTable(Table("t")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(TableCatalog, SignatureRoundTripThroughSerialization) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_EQ(reloaded.num_columns(), catalog.num_columns());
  const Status loaded = reloaded.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : catalog.AllColumns()) {
    ASSERT_TRUE(reloaded.HasSignature(ref));
    EXPECT_TRUE(reloaded.signature(ref) == catalog.signature(ref))
        << "table " << ref.table << " column " << ref.column;
  }
  // Reloading is idempotent and a second serialization is byte-identical.
  EXPECT_EQ(reloaded.SerializeSignatures(), dump);
}

TEST(TableCatalog, SignatureFileRoundTripAndParallelCompute) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog serial_catalog = BuildCatalog(corpus);
  serial_catalog.ComputeSignatures();

  TableCatalog parallel_catalog = BuildCatalog(corpus);
  ThreadPool pool(4);
  parallel_catalog.ComputeSignatures(&pool);
  for (const ColumnRef ref : serial_catalog.AllColumns()) {
    EXPECT_TRUE(parallel_catalog.signature(ref) ==
                serial_catalog.signature(ref));
  }

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "signatures.tj")
          .string();
  ASSERT_TRUE(serial_catalog.SaveSignaturesToFile(path).ok());
  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_TRUE(reloaded.LoadSignaturesFromFile(path).ok());
  for (const ColumnRef ref : serial_catalog.AllColumns()) {
    EXPECT_TRUE(reloaded.signature(ref) == serial_catalog.signature(ref));
  }
}

TEST(TableCatalog, LoadRejectsMalformedAndMismatchedDumps) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  TableCatalog target = BuildCatalog(corpus);
  EXPECT_FALSE(target.LoadSignatures("not a signature dump").ok());

  // A v2 block naming a table this catalog doesn't have is stale, not
  // fatal: the block is skipped, every other table's sketches install.
  std::string renamed = dump;
  const size_t table_pos = renamed.find("table '");
  ASSERT_NE(table_pos, std::string::npos);
  renamed.replace(table_pos, 7, "table 'zz");
  const Status skipped = target.LoadSignatures(renamed);
  ASSERT_TRUE(skipped.ok()) << skipped.ToString();
  size_t missing = 0;
  for (const ColumnRef ref : target.AllColumns()) {
    if (!target.HasSignature(ref)) ++missing;
  }
  // Exactly the renamed table's columns are missing.
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing, target.num_columns());
}

TEST(TableCatalog, AddCsvDirectoryLoadsInFilenameOrder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "corpus_csv_dir";
  fs::create_directories(dir);
  Table b("ignored-b");
  ASSERT_TRUE(b.AddColumn(MakeColumn("x", {"bravo", "beta"})).ok());
  Table a("ignored-a");
  ASSERT_TRUE(a.AddColumn(MakeColumn("x", {"alpha"})).ok());
  ASSERT_TRUE(WriteCsvFile(b, (dir / "b_table.csv").string()).ok());
  ASSERT_TRUE(WriteCsvFile(a, (dir / "a_table.csv").string()).ok());

  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->added, 2u);
  EXPECT_EQ(report->skipped, 0u);
  ASSERT_EQ(catalog.num_tables(), 2u);
  EXPECT_EQ(catalog.table(0).name(), "a_table");  // sorted by filename
  EXPECT_EQ(catalog.table(1).name(), "b_table");
  EXPECT_EQ(catalog.table(0).num_rows(), 1u);
  EXPECT_EQ(catalog.table(1).num_rows(), 2u);
}

TEST(PairPruner, GoldenRecallAndPruningOnLargeCorpus) {
  // The acceptance-criteria corpus: >= 20 tables, default thresholds.
  SynthCorpusOptions options;
  options.num_joinable_pairs = 10;  // 20 joinable tables
  options.num_noise_tables = 4;
  options.rows = 40;
  options.seed = 3;
  const SynthCorpus corpus = GenerateSynthCorpus(options);
  ASSERT_GE(corpus.tables.size(), 20u);

  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const PairPrunerResult result =
      ShortlistPairs(catalog, PairPrunerOptions());

  // Every golden joinable pair survives pruning at default thresholds.
  for (const SynthCorpus::GoldenPair& golden : corpus.golden) {
    bool found = false;
    for (const ColumnPairCandidate& candidate : result.shortlist) {
      const bool forward = candidate.a.table == golden.source_table &&
                           candidate.b.table == golden.target_table;
      const bool backward = candidate.a.table == golden.target_table &&
                            candidate.b.table == golden.source_table;
      if ((forward || backward) && candidate.a.column == 0 &&
          candidate.b.column == 0) {
        found = true;
        EXPECT_GT(candidate.score, PairPrunerOptions().min_containment);
      }
    }
    EXPECT_TRUE(found) << "golden pair " << golden.source_table << " x "
                       << golden.target_table << " was pruned";
  }

  // ... while pruning at least half of the column-pair space.
  EXPECT_GE(result.PruningRatio(), 0.5);
  EXPECT_EQ(result.total_pairs,
            result.pruned_pairs + result.shortlist.size());
}

TEST(PairPruner, DeterministicAcrossPoolSizes) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const PairPrunerResult serial =
      ShortlistPairs(catalog, PairPrunerOptions());
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const PairPrunerResult parallel =
        ShortlistPairs(catalog, PairPrunerOptions(), &pool);
    ASSERT_EQ(parallel.shortlist.size(), serial.shortlist.size()) << threads;
    EXPECT_EQ(parallel.total_pairs, serial.total_pairs);
    EXPECT_EQ(parallel.pruned_pairs, serial.pruned_pairs);
    for (size_t i = 0; i < serial.shortlist.size(); ++i) {
      EXPECT_TRUE(parallel.shortlist[i].a == serial.shortlist[i].a);
      EXPECT_TRUE(parallel.shortlist[i].b == serial.shortlist[i].b);
      EXPECT_EQ(parallel.shortlist[i].score, serial.shortlist[i].score);
    }
  }
}

TEST(PairPruner, BruteForceFloorKeepsEverything) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  PairPrunerOptions brute;
  brute.min_containment = 0.0;
  const PairPrunerResult result = ShortlistPairs(catalog, brute);
  EXPECT_EQ(result.pruned_pairs, 0u);
  EXPECT_EQ(result.shortlist.size(), result.total_pairs);
}

void ExpectIdenticalCorpusResults(const CorpusDiscoveryResult& a,
                                  const CorpusDiscoveryResult& b) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs);
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const CorpusPairResult& x = a.results[i];
    const CorpusPairResult& y = b.results[i];
    EXPECT_TRUE(x.candidate.a == y.candidate.a) << "pair " << i;
    EXPECT_TRUE(x.candidate.b == y.candidate.b) << "pair " << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << "pair " << i;
    EXPECT_TRUE(x.source == y.source) << "pair " << i;
    EXPECT_TRUE(x.target == y.target) << "pair " << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << "pair " << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << "pair " << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << "pair " << i;
    EXPECT_EQ(x.transformations, y.transformations) << "pair " << i;
  }
}

TEST(CorpusDiscovery, BitIdenticalAcrossThreadCountsWithOnePool) {
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 5;
  corpus_options.num_noise_tables = 3;
  corpus_options.rows = 30;
  corpus_options.seed = 11;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);

  CorpusDiscoveryOptions options;
  options.num_threads = 1;
  TableCatalog base_catalog = BuildCatalog(corpus);
  const CorpusDiscoveryResult base =
      DiscoverJoinableColumns(&base_catalog, options);
  ASSERT_FALSE(base.results.empty());

  for (int threads : {2, 4, 8}) {
    TableCatalog catalog = BuildCatalog(corpus);
    CorpusDiscoveryOptions parallel = options;
    parallel.num_threads = threads;
    const uint64_t pools_before = ThreadPool::TotalCreated();
    const CorpusDiscoveryResult result =
        DiscoverJoinableColumns(&catalog, parallel);
    // The whole run — signatures, pruning, pair fan-out, every per-pair
    // phase — constructed exactly one ThreadPool.
    EXPECT_EQ(ThreadPool::TotalCreated() - pools_before, 1u)
        << threads << " threads";
    ExpectIdenticalCorpusResults(base, result);
  }
}

TEST(CorpusDiscovery, FindsGoldenPairsWithTransformations) {
  // 4 joinable pairs + 2 noise tables, 30 rows: the pruner cuts above 90%
  // of the column pairs before the per-pair pipeline runs.
  for (const uint64_t seed : {21u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SynthCorpusOptions corpus_options;
    corpus_options.num_joinable_pairs = 4;
    corpus_options.num_noise_tables = 2;
    corpus_options.rows = 30;
    corpus_options.seed = seed;
    const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
    TableCatalog catalog = BuildCatalog(corpus);

    CorpusDiscoveryOptions options;
    options.num_threads = 2;
    const CorpusDiscoveryResult result =
        DiscoverJoinableColumns(&catalog, options);

    // Every golden table pair is evaluated and yields a non-trivial join.
    size_t golden_joined = 0;
    for (const SynthCorpus::GoldenPair& golden : corpus.golden) {
      for (const CorpusPairResult& pair : result.results) {
        const bool matches =
            (pair.source.table == golden.source_table &&
             pair.target.table == golden.target_table) ||
            (pair.source.table == golden.target_table &&
             pair.target.table == golden.source_table);
        if (matches && pair.joined_rows > 0 &&
            !pair.transformations.empty()) {
          ++golden_joined;
          break;
        }
      }
    }
    EXPECT_EQ(golden_joined, corpus.golden.size());
    EXPECT_GT(result.PruningRatio(), 0.9);
  }
}

}  // namespace
}  // namespace tj
