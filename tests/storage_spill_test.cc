// Out-of-core storage tests: the mmap spill arena must honor every
// view-lifetime rule the heap arena pins (tests/storage_view_test.cc),
// plus the spill-only contracts — eviction/re-map round trips, page
// release under live views, budget-driven catalog eviction with
// transparent re-map on access, block-streamed CSV ingest, and discovery
// output that is byte-identical to the in-memory backend at every thread
// count. Run under -DTJ_SANITIZE=ON too: dangling mapping reads are
// silent in a plain build.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/csv.h"
#include "table/spill_arena.h"
#include "table/table.h"

namespace tj {
namespace {

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid + object address: parallel ctest runs each test in its
    // own process, and bare `this` values can coincide across processes.
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("spill_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StorageOptions Storage(size_t budget = 0) const {
    StorageOptions storage;
    storage.spill_dir = dir_.string();
    storage.memory_budget_bytes = budget;
    return storage;
  }

  size_t SpillFileCount() const {
    size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.is_regular_file()) ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
};

TEST_F(SpillTest, AppendGetRoundTripAndFileBacked) {
  Column c = Column::WithStorage("c", Storage());
  EXPECT_TRUE(c.spilled());
  c.Append("alpha");
  c.Append("");
  c.Append("gamma-delta");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.Get(0), "alpha");
  EXPECT_EQ(c.Get(1), "");
  EXPECT_EQ(c.Get(2), "gamma-delta");
  EXPECT_GE(c.SpilledBytes(), c.CellBytes());
  EXPECT_GE(SpillFileCount(), 1u);  // the bytes really live in a file
}

TEST_F(SpillTest, SpillFileRemovedWithColumn) {
  {
    Column c = Column::WithStorage("c", Storage());
    c.Append("bytes on disk");
    EXPECT_GE(SpillFileCount(), 1u);
  }
  EXPECT_EQ(SpillFileCount(), 0u);
}

TEST_F(SpillTest, EnsureSpillDirSweepsOnlyFilesOfDeadPids) {
  const auto touch = [this](const std::string& name) {
    std::ofstream(dir_ / name) << "orphan";
    return dir_ / name;
  };
  // Linux pids stay below PID_MAX_LIMIT (4194304), so this pid is dead.
  const auto dead = touch("tj-spill-4194305-0.bytes");
  const auto own =
      touch("tj-spill-" + std::to_string(::getpid()) + "-999999.bytes");
  const auto off_pattern = touch("tj-spill-4194305.bytes");  // no sequence
  ASSERT_TRUE(EnsureSpillDir(dir_.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(dead));
  EXPECT_TRUE(std::filesystem::exists(own));
  EXPECT_TRUE(std::filesystem::exists(off_pattern));
  EXPECT_EQ(SpillFileCount(), 2u);  // the probe file is gone too
}

TEST_F(SpillTest, MoveKeepsViewsValid) {
  Column original = Column::WithStorage("c", Storage());
  original.Append("alpha");
  original.Append("beta");
  original.Freeze();
  const std::string_view before = original.Get(1);
  ASSERT_EQ(before, "beta");

  const Column moved = std::move(original);
  EXPECT_TRUE(moved.frozen());
  EXPECT_TRUE(moved.spilled());
  // Same bytes at the same address: the mapping migrated wholesale.
  EXPECT_EQ(moved.Get(1).data(), before.data());
  EXPECT_EQ(before, "beta");
}

TEST_F(SpillTest, CopyIsIndependentUnfrozenAndSpilled) {
  Column original = Column::WithStorage("c", Storage());
  original.Append("one");
  original.Append("two");
  original.Freeze();
  const std::string_view view = original.Get(0);

  Column copy = original;
  EXPECT_FALSE(copy.frozen());
  EXPECT_TRUE(copy.spilled());  // copies keep the backend kind
  EXPECT_NE(copy.Get(0).data(), view.data());  // own mapping
  copy.Set(0, "ONE");
  copy.Append("three");
  EXPECT_EQ(view, "one");
  EXPECT_EQ(original.Get(0), "one");
  EXPECT_EQ(copy.Get(0), "ONE");
  EXPECT_EQ(copy.size(), 3u);
}

TEST_F(SpillTest, SetRewritesInPlaceOrGrowsAndSelfAliases) {
  Column c = Column::WithStorage("c", Storage());
  c.Append("abcdef");
  c.Append("xyz");
  c.Set(0, "ab");
  EXPECT_EQ(c.Get(0), "ab");
  c.Set(1, "a much longer replacement that forces arena growth");
  EXPECT_EQ(c.Get(1), "a much longer replacement that forces arena growth");
  EXPECT_EQ(c.Get(0), "ab");

  c.Set(0, c.Get(1));  // self-aliasing growth across a possible remap
  EXPECT_EQ(c.Get(0), "a much longer replacement that forces arena growth");
  c.Append(c.Get(1));
  EXPECT_EQ(c.Get(2), "a much longer replacement that forces arena growth");
}

TEST_F(SpillTest, FrozenColumnRejectsMutation) {
  Column c = Column::WithStorage("c", Storage());
  c.Append("x");
  c.Freeze();
  EXPECT_DEATH(c.Append("y"), "frozen");
  EXPECT_DEATH(c.Set(0, "y"), "frozen");
}

TEST_F(SpillTest, EvictRemapRoundTripPreservesBytes) {
  Column c = Column::WithStorage("c", Storage());
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    expected.push_back("row-" + std::to_string(i * i) + "-payload");
    c.Append(expected.back());
  }
  c.Freeze();
  ASSERT_TRUE(c.resident());

  c.Evict();
  EXPECT_FALSE(c.resident());
  c.EnsureResident();
  EXPECT_TRUE(c.resident());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(c.Get(i), expected[i]) << i;
  }

  // A second round trip (pages now clean) works too.
  c.Evict();
  c.EnsureResident();
  EXPECT_EQ(c.Get(7), expected[7]);
}

TEST_F(SpillTest, GetOnEvictedColumnDies) {
  Column c = Column::WithStorage("c", Storage());
  c.Append("bytes");
  c.Freeze();
  c.Evict();
  EXPECT_DEATH(c.Get(0), "base");
}

TEST_F(SpillTest, ReleasePagesKeepsViewsValid) {
  Column c = Column::WithStorage("c", Storage());
  std::string big(1 << 15, 'q');
  c.Append(big);
  c.Append("tail-cell");
  c.Freeze();
  const std::string_view view = c.Get(0);
  const std::string_view tail = c.Get(1);

  c.ReleasePages();  // views survive; dropped pages fault back in
  EXPECT_TRUE(c.resident());
  EXPECT_EQ(view, big);
  EXPECT_EQ(tail, "tail-cell");
}

TEST_F(SpillTest, LowercaseShadowIsSpilledAndDroppedOnEvict) {
  Column c = Column::WithStorage("c", Storage());
  c.Append("MiXeD Case 42");
  c.Freeze();
  const Column& lowered = c.LowercasedAscii();
  EXPECT_EQ(lowered.Get(0), "mixed case 42");
  EXPECT_TRUE(lowered.spilled());  // shadow follows the backend kind
  EXPECT_EQ(&c.LowercasedAscii(), &lowered);

  c.Evict();  // drops the shadow with the mapping
  c.EnsureResident();
  const Column& rebuilt = c.LowercasedAscii();
  EXPECT_EQ(rebuilt.Get(0), "mixed case 42");
}

TEST_F(SpillTest, AdoptStorageRoundTripPreservesContentAndFreeze) {
  Column c("c", {"heap cell one", "heap cell two"});
  c.Set(0, "a replacement that leaves dead arena space behind it");
  c.Freeze();
  ASSERT_FALSE(c.spilled());

  c.AdoptStorage(Storage());
  EXPECT_TRUE(c.spilled());
  EXPECT_TRUE(c.frozen());  // adoption moves bytes, not the contract
  EXPECT_EQ(c.Get(0), "a replacement that leaves dead arena space behind it");
  EXPECT_EQ(c.Get(1), "heap cell two");
  EXPECT_EQ(c.ArenaBytes(), c.CellBytes());  // compacted like a copy

  c.AdoptStorage(StorageOptions());  // back to the heap
  EXPECT_FALSE(c.spilled());
  EXPECT_TRUE(c.frozen());
  EXPECT_EQ(c.Get(1), "heap cell two");
  EXPECT_EQ(SpillFileCount(), 0u);  // the spill file is gone
}

TEST_F(SpillTest, FingerprintAndSignatureAreBackendInvariant) {
  Table heap("t");
  ASSERT_TRUE(
      heap.AddColumn(Column("a", {"Alpha One", "beta TWO", "GAMMA 3"})).ok());
  heap.Freeze();
  Table spilled = heap;  // unfrozen copy
  spilled.AdoptStorage(Storage());
  spilled.Freeze();

  EXPECT_EQ(TableFingerprint(heap), TableFingerprint(spilled));
  EXPECT_TRUE(ComputeColumnSignature(heap.column(0)) ==
              ComputeColumnSignature(spilled.column(0)));
}

// ---------------------------------------------------------------------------
// Block-streamed CSV ingest.
// ---------------------------------------------------------------------------

class SpillCsvTest : public SpillTest {
 protected:
  std::string WriteCsv(const std::string& name, const std::string& bytes) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good());
    return path;
  }
};

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column(c).name(), b.column(c).name());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.column(c).Get(r), b.column(c).Get(r)) << c << "," << r;
    }
  }
}

TEST_F(SpillCsvTest, ChunkedReaderMatchesStringReaderAtEveryBlockSize) {
  // Quoted delimiters, escaped quotes, embedded newlines, CRLF, and a
  // missing trailing newline — all of which must survive records spanning
  // block boundaries at any block size.
  const std::string csv =
      "name,note\r\n"
      "\"Smith, John\",\"says \"\"hi\"\"\"\n"
      "plain,\"multi\nline\ncell\"\r\n"
      "last,\"tail, no newline\"";
  const std::string path = WriteCsv("edge.csv", csv);
  const auto expected = ReadCsvString(csv);
  ASSERT_TRUE(expected.ok());

  for (const size_t block : {1u, 2u, 3u, 7u, 16u, 64u, 4096u}) {
    CsvOptions options;
    options.io_block_bytes = block;
    const auto streamed = ReadCsvFile(path, options);
    ASSERT_TRUE(streamed.ok()) << "block=" << block << ": "
                               << streamed.status().ToString();
    ExpectSameTable(*expected, *streamed);
  }
}

TEST_F(SpillCsvTest, ChunkedReaderStreamsIntoSpillArenas) {
  std::string csv = "id,payload\n";
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + ",payload-cell-" + std::to_string(i * 7) +
           "\n";
  }
  const std::string path = WriteCsv("big.csv", csv);
  CsvOptions options;
  options.io_block_bytes = 64;  // force many blocks
  const auto table = ReadCsvFile(path, options, Storage());
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->spilled());
  EXPECT_TRUE(table->column(0).frozen());
  ASSERT_EQ(table->num_rows(), 500u);
  EXPECT_EQ(table->column(1).Get(499), "payload-cell-3493");

  const auto expected = ReadCsvString(csv);
  ASSERT_TRUE(expected.ok());
  ExpectSameTable(*expected, *table);
}

TEST_F(SpillCsvTest, StrayMidFieldQuoteStreamsAndMatchesStringReader) {
  // A lone unbalanced quote inside an unquoted field is literal data to
  // the parser; the streaming scanner must agree — and must NOT treat it
  // as an opened quote, which would buffer the rest of the file.
  const std::string csv =
      "height,id\n"
      "5\"4,1\n"
      "6\"1,2\n"
      "plain,3\n";
  const std::string path = WriteCsv("stray.csv", csv);
  const auto expected = ReadCsvString(csv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected->column(0).Get(0), "5\"4");

  for (const size_t block : {1u, 4u, 16u, 4096u}) {
    CsvOptions options;
    options.io_block_bytes = block;
    const auto streamed = ReadCsvFile(path, options);
    ASSERT_TRUE(streamed.ok()) << "block=" << block;
    ExpectSameTable(*expected, *streamed);
  }
}

TEST_F(SpillCsvTest, UnterminatedQuoteStillFails) {
  const std::string path = WriteCsv("broken.csv", "a,b\n\"open,2\n");
  const auto result = ReadCsvFile(path);
  EXPECT_FALSE(result.ok());
}

TEST_F(SpillCsvTest, ChunkedReaderStaysLinearOnOneHugeRecord) {
  // One 4 MiB quoted multi-line cell read 64 bytes at a time: a reader
  // that re-parses the carried record on every block would do ~65k passes
  // over up to 4 MiB (minutes); retrying only once the carry has doubled
  // keeps it to ~2x the record. ctest's TIMEOUT for this binary is the
  // gate.
  std::string cell;
  cell.reserve(4 << 20);
  while (cell.size() < (4u << 20)) {
    cell += "line with \"\"quotes\"\", commas and a newline\n";
  }
  const std::string csv = "id,blob,tail\n1,\"" + cell + "\",end\r\n2,x,y\n";
  const std::string path = WriteCsv("huge.csv", csv);
  const auto expected = ReadCsvString(csv);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->num_rows(), 2u);
  CsvOptions options;
  options.io_block_bytes = 64;
  const auto streamed = ReadCsvFile(path, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameTable(*expected, *streamed);
}

// ---------------------------------------------------------------------------
// Catalog-level eviction, budget enforcement, and the warn-skip scan.
// ---------------------------------------------------------------------------

TEST_F(SpillTest, CatalogEvictsColdTablesAndRemapsOnAccess) {
  // Each table carries ~40 KiB of cells; a 64 KiB budget can hold one or
  // two, so earlier tables must be evicted as later ones register.
  StorageOptions storage = Storage(/*budget=*/64 << 10);
  TableCatalog catalog(storage);
  std::vector<std::string> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back("cell-payload-" + std::to_string(i) +
                     std::string(80, 'x'));
  }
  for (int t = 0; t < 6; ++t) {
    Table table("t" + std::to_string(t));
    ASSERT_TRUE(table.AddColumn(Column("c", values)).ok());
    ASSERT_TRUE(catalog.AddTable(std::move(table)).ok());
  }
  // Most of the corpus must be out of RAM (note: the per-table residency
  // flag cannot be probed through catalog.table() — access re-maps).
  EXPECT_LE(catalog.ResidentCellBytes(), storage.memory_budget_bytes);
  EXPECT_GT(catalog.SpilledBytes(), storage.memory_budget_bytes);

  // Transparent re-map: reading an evicted table through the catalog works
  // and returns the original bytes.
  for (uint32_t t = 0; t < 6; ++t) {
    const Column& c = catalog.column(ColumnRef{t, 0});
    EXPECT_EQ(c.Get(123), values[123]) << t;
  }

  // Sketching an over-budget catalog completes and re-settles the budget.
  catalog.ComputeSignatures();
  EXPECT_LE(catalog.ResidentCellBytes(), storage.memory_budget_bytes);
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_TRUE(catalog.HasSignature(ref));
  }
}

TEST_F(SpillTest, IncrementalRebuildLeavesEvictedTablesEvicted) {
  // Folding a table into the live pruner needs only its column count and
  // sketches, so Rebuild over a budgeted spilled catalog (tjd start, the
  // CLI's --add/--remove/--update flow) must not re-map evicted tables.
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 20;
  corpus_options.num_noise_tables = 10;
  corpus_options.rows = 200;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  TableCatalog catalog(Storage(/*budget=*/8 << 10));
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  // Table::resident() on the shared handle reads residency without
  // re-mapping (catalog.table() would fault the table back in).
  const auto resident_tables = [&catalog] {
    size_t resident = 0;
    for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
      if (catalog.IsLive(t) && catalog.SharedTable(t)->resident()) {
        ++resident;
      }
    }
    return resident;
  };
  const size_t tables_before = resident_tables();
  const size_t bytes_before = catalog.ResidentCellBytes();
  ASSERT_LT(tables_before, catalog.num_tables());

  const PairPrunerOptions options;
  IncrementalPairPruner pruner(options);
  pruner.Rebuild(catalog);
  EXPECT_EQ(resident_tables(), tables_before);
  EXPECT_EQ(catalog.ResidentCellBytes(), bytes_before);

  const PairPrunerResult incremental = pruner.Snapshot();
  const PairPrunerResult scratch = ShortlistPairs(catalog, options);
  EXPECT_EQ(incremental.total_pairs, scratch.total_pairs);
  EXPECT_EQ(incremental.pruned_pairs, scratch.pruned_pairs);
  ASSERT_FALSE(scratch.shortlist.empty());
  EXPECT_TRUE(incremental.shortlist == scratch.shortlist);
}

TEST_F(SpillTest, LoadSignaturesLeavesEvictedTablesEvicted) {
  // Checking a cached column's row count needs only the slot count, so
  // loading a signature cache into a budgeted spilled catalog (tjd and the
  // CLI with --signatures) must not re-map evicted tables.
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 20;
  corpus_options.num_noise_tables = 10;
  corpus_options.rows = 200;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  TableCatalog source;
  TableCatalog catalog(Storage(/*budget=*/8 << 10));
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(source.AddTable(table).ok());
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  source.ComputeSignatures();
  const std::string dump = source.SerializeSignatures();
  const auto resident_tables = [&catalog] {
    size_t resident = 0;
    for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
      if (catalog.IsLive(t) && catalog.SharedTable(t)->resident()) {
        ++resident;
      }
    }
    return resident;
  };
  const size_t tables_before = resident_tables();
  const size_t bytes_before = catalog.ResidentCellBytes();
  ASSERT_LT(tables_before, catalog.num_tables());

  ASSERT_TRUE(catalog.LoadSignatures(dump).ok());
  EXPECT_EQ(resident_tables(), tables_before);
  EXPECT_EQ(catalog.ResidentCellBytes(), bytes_before);
  for (const ColumnRef ref : catalog.AllColumns()) {
    ASSERT_TRUE(catalog.HasSignature(ref));
    EXPECT_TRUE(catalog.signature(ref) == source.signature(ref));
  }
  EXPECT_EQ(catalog.SerializeSignatures(), dump);
}

TEST_F(SpillTest, AddCsvDirectorySkipsBadFilesWithWarning) {
  {
    std::ofstream good((dir_ / "good.csv").string(), std::ios::binary);
    good << "a,b\n1,2\n";
    std::ofstream bad((dir_ / "bad.csv").string(), std::ios::binary);
    bad << "a,b\n\"unterminated,2\n";
    std::ofstream ragged((dir_ / "ragged.csv").string(), std::ios::binary);
    ragged << "a,b\n1,2,3\n";
  }
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok())
      << report.status().ToString();  // scan survives bad files
  EXPECT_EQ(report->added, 1u);
  EXPECT_EQ(report->skipped, 2u);  // bad.csv + ragged.csv, counted not fatal
  EXPECT_EQ(catalog.num_tables(), 1u);
  EXPECT_TRUE(catalog.TableIndex("good").ok());
}

// ---------------------------------------------------------------------------
// End to end: spilled discovery output == in-memory output, all threads.
// ---------------------------------------------------------------------------

void ExpectSameDiscovery(const CorpusDiscoveryResult& a,
                         const CorpusDiscoveryResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs) << label;
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs) << label;
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
  }
}

TEST_F(SpillTest, SpilledDiscoveryMatchesInMemoryAtEveryThreadCount) {
  // One corpus written to CSV, loaded twice: heap catalog vs spilled
  // catalog under a budget far below the corpus size. Every thread count
  // must produce identical output on both backends (and identical to the
  // 1-thread heap baseline).
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

  for (const int threads : {1, 2, 4, 8}) {
    CorpusDiscoveryOptions threaded = options;
    threaded.num_threads = threads;

    TableCatalog heap_t;
    ASSERT_TRUE(heap_t.AddCsvDirectory(csv_dir.string()).ok());
    const CorpusDiscoveryResult heap_result =
        DiscoverJoinableColumns(&heap_t, threaded);
    ExpectSameDiscovery(baseline, heap_result,
                        "heap t=" + std::to_string(threads));

    StorageOptions storage;
    storage.spill_dir = (dir_ / ("spill_t" + std::to_string(threads)))
                            .string();
    // A budget of a quarter of the corpus forces eviction churn mid-run.
    storage.memory_budget_bytes = std::max<size_t>(total_cells / 4, 1);
    TableCatalog spilled(storage);
    ASSERT_TRUE(spilled.AddCsvDirectory(csv_dir.string()).ok());
    EXPECT_GT(spilled.SpilledBytes(), 0u);
    const CorpusDiscoveryResult spilled_result =
        DiscoverJoinableColumns(&spilled, threaded);
    ExpectSameDiscovery(baseline, spilled_result,
                        "spill t=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace tj
