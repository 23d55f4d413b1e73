// Robustness tests for the signature cache and the CSV ingestion path that
// feeds the catalog: malformed/truncated/v1-era cache files must fail
// closed (error out and install nothing — the caller rescans), v2 entries
// self-invalidate via per-table content fingerprints, and AddCsvDirectory
// survives the awkward corners of real CSV files.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/csv.h"

namespace tj {
namespace {

SynthCorpus SmallCorpus(uint64_t seed = 7) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 2;
  options.num_noise_tables = 1;
  options.rows = 20;
  options.seed = seed;
  return GenerateSynthCorpus(options);
}

TableCatalog BuildCatalog(const SynthCorpus& corpus) {
  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return catalog;
}

void ExpectNothingInstalled(const TableCatalog& catalog) {
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_FALSE(catalog.HasSignature(ref));
  }
}

/// Downgrades a v2 dump to the v1 wire format: v1 header, no fp= keys.
std::string DowngradeToV1(std::string dump) {
  const std::string v2_header = "# tj-signatures v2";
  const size_t header = dump.find(v2_header);
  EXPECT_NE(header, std::string::npos);
  dump.replace(header, v2_header.size(), "# tj-signatures v1");
  size_t pos = 0;
  while ((pos = dump.find(" fp=", pos)) != std::string::npos) {
    size_t end = pos + 4;
    while (end < dump.size() && dump[end] >= '0' && dump[end] <= '9') ++end;
    dump.erase(pos, end - pos);
  }
  return dump;
}

TEST(SignatureCache, SerializesAsV2WithFingerprints) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();
  EXPECT_EQ(dump.rfind("# tj-signatures v2", 0), 0u);
  EXPECT_NE(dump.find(" fp="), std::string::npos);
}

TEST(SignatureCache, MalformedDumpsFailClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  const std::vector<std::string> malformed = {
      "",                                     // empty
      "garbage",                              // no header
      "# tj-signatures v3\n",                 // unknown version
      "# tj-signatures v2\ngarbage\n",        // junk line
      "# tj-signatures v2\ntable 'x'\n",      // table before options
      // Options disagreeing with the catalog's sketch parameters.
      "# tj-signatures v2\noptions ngram=4 hashes=9 seed=1 lowercase=1\n",
  };
  for (const std::string& text : malformed) {
    TableCatalog target = BuildCatalog(corpus);
    EXPECT_FALSE(target.LoadSignatures(text).ok()) << text;
    ExpectNothingInstalled(target);
  }
}

TEST(SignatureCache, TruncatedDumpsFailClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // Cut inside the final minhash line: the dangling column must error.
  const size_t last_minhash = dump.rfind("minhash");
  ASSERT_NE(last_minhash, std::string::npos);
  {
    TableCatalog target = BuildCatalog(corpus);
    const std::string truncated = dump.substr(0, last_minhash);
    EXPECT_FALSE(target.LoadSignatures(truncated).ok());
    ExpectNothingInstalled(target);
  }
  // Cut mid-way through the minhash numbers: slot-count check trips.
  {
    TableCatalog target = BuildCatalog(corpus);
    const std::string truncated = dump.substr(0, last_minhash + 40);
    EXPECT_FALSE(target.LoadSignatures(truncated).ok());
    ExpectNothingInstalled(target);
  }
}

TEST(SignatureCache, MalformedFieldsFailClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();
  const size_t rows = dump.find(" rows=20 ");
  ASSERT_NE(rows, std::string::npos);
  const size_t meanlen = dump.find(" meanlen=");
  const size_t meanlen_end = dump.find(' ', meanlen + 1);
  ASSERT_NE(meanlen_end, std::string::npos);
  const auto replaced = [&dump](size_t at, size_t size,
                                const std::string& with) {
    std::string text = dump;
    return text.replace(at, size, with);
  };
  // rows=2^32+20 used to be cast down to the table's 20 rows and installed;
  // text after a line's last field used to be ignored.
  const std::vector<std::string> bad = {
      replaced(rows, 9, " rows=4294967316 "),
      replaced(meanlen, meanlen_end - meanlen, " meanlen=nan"),
      replaced(meanlen, meanlen_end - meanlen, " meanlen=inf"),
      replaced(meanlen, meanlen_end - meanlen, " meanlen=-0x1p+0"),
      replaced(dump.find("\ntable "), 0, " x"),
      replaced(dump.find("\ncolumn "), 0, " x"),
      replaced(dump.find("\nminhash "), 0, " x"),
  };
  for (const std::string& text : bad) {
    TableCatalog target = BuildCatalog(corpus);
    const Status loaded = target.LoadSignatures(text);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << text;
    ExpectNothingInstalled(target);
  }
  // The unedited dump still loads and re-serializes byte for byte.
  TableCatalog target = BuildCatalog(corpus);
  ASSERT_TRUE(target.LoadSignatures(dump).ok());
  EXPECT_EQ(target.SerializeSignatures(), dump);
}

TEST(SignatureCache, V1DumpFailsClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string v1_dump = DowngradeToV1(catalog.SerializeSignatures());
  ASSERT_EQ(v1_dump.rfind("# tj-signatures v1", 0), 0u);
  ASSERT_EQ(v1_dump.find(" fp="), std::string::npos);

  // v1 carries no fingerprints, so staleness is undetectable: even a clean
  // v1 dump fails like any unknown header and installs nothing (the caller
  // rescans and saves v2).
  TableCatalog target = BuildCatalog(corpus);
  const Status loaded = target.LoadSignatures(v1_dump);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();
  ExpectNothingInstalled(target);
}

TEST(SignatureCache, V2StaleFingerprintSelfInvalidates) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // Mutate one table's content; its block must be skipped on reload while
  // every other table's sketches install.
  TableCatalog stale = BuildCatalog(corpus);
  Table mutated = corpus.tables[0];
  mutated.mutable_column(0).Set(0, "content drifted since cache write");
  auto updated = stale.UpdateTable(std::move(mutated));
  ASSERT_TRUE(updated.ok());
  const Status loaded = stale.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : stale.AllColumns()) {
    if (ref.table == *updated) {
      EXPECT_FALSE(stale.HasSignature(ref)) << "stale sketch served";
    } else {
      EXPECT_TRUE(stale.HasSignature(ref));
    }
  }
  // The next compute pass re-sketches only the mutated table, after which
  // a new dump carries its fresh fingerprint.
  stale.ComputeSignatures();
  const std::string redump = stale.SerializeSignatures();
  TableCatalog verify = BuildCatalog(corpus);
  ASSERT_TRUE(verify.UpdateTable([&] {
                      Table again = corpus.tables[0];
                      again.mutable_column(0).Set(
                          0, "content drifted since cache write");
                      return again;
                    }())
                  .ok());
  ASSERT_TRUE(verify.LoadSignatures(redump).ok());
  for (const ColumnRef ref : verify.AllColumns()) {
    EXPECT_TRUE(verify.HasSignature(ref));
  }
}

TEST(SignatureCache, V2UnknownTableBlockIsSkipped) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // The catalog dropped a table since the cache was written: its block is
  // stale and skipped, the rest installs.
  TableCatalog shrunk = BuildCatalog(corpus);
  const std::string removed = corpus.tables[0].name();
  ASSERT_TRUE(shrunk.RemoveTable(removed).ok());
  const Status loaded = shrunk.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : shrunk.AllColumns()) {
    EXPECT_TRUE(shrunk.HasSignature(ref));
  }
}

TEST(SignatureCache, FileRoundTripAcrossCatalogMutation) {
  namespace fs = std::filesystem;
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string path =
      (fs::path(::testing::TempDir()) / "cache_v2.tj").string();
  ASSERT_TRUE(catalog.SaveSignaturesToFile(path).ok());

  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_TRUE(reloaded.LoadSignaturesFromFile(path).ok());
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_TRUE(reloaded.signature(ref) == catalog.signature(ref));
  }
}

// ---------------------------------------------------------------------------
// CSV edge cases feeding the catalog through AddCsvDirectory.
// ---------------------------------------------------------------------------

class CsvEdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("csv_edge_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void WriteFile(const std::string& name, const std::string& bytes) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::filesystem::path dir_;
};

TEST_F(CsvEdgeCaseTest, QuotedSeparatorsAndEscapedQuotes) {
  WriteFile("quoted.csv",
            "name,address\n"
            "\"Smith, John\",\"123 Main St, Apt 4\"\n"
            "\"says \"\"hi\"\"\",plain\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(catalog.num_tables(), 1u);
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_columns(), 2u);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).Get(0), "Smith, John");
  EXPECT_EQ(table.column(1).Get(0), "123 Main St, Apt 4");
  EXPECT_EQ(table.column(0).Get(1), "says \"hi\"");
}

TEST_F(CsvEdgeCaseTest, CrlfLineEndings) {
  WriteFile("crlf.csv", "a,b\r\nv1,v2\r\nv3,v4\r\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).name(), "a");
  EXPECT_EQ(table.column(1).Get(1), "v4");  // no trailing \r in cells
}

TEST_F(CsvEdgeCaseTest, EmptyTrailingColumns) {
  WriteFile("trailing.csv",
            "a,b,c\n"
            "1,,\n"
            ",,3\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_columns(), 3u);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).Get(0), "1");
  EXPECT_EQ(table.column(1).Get(0), "");
  EXPECT_EQ(table.column(2).Get(0), "");
  EXPECT_EQ(table.column(0).Get(1), "");
  EXPECT_EQ(table.column(2).Get(1), "3");
}

TEST_F(CsvEdgeCaseTest, NonUtf8BytesSurviveAndSketchCleanly) {
  std::string bytes = "id,blob\n";
  bytes += "r1,";
  bytes += '\xff';
  bytes += '\xfe';
  bytes += "latin1:";
  bytes += '\xe9';  // é in Latin-1, invalid UTF-8 lead byte position
  bytes += "\nr2,plain\n";
  WriteFile("binary.csv", bytes);
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_rows(), 2u);
  const std::string_view cell = table.column(1).Get(0);
  EXPECT_EQ(cell.size(), 10u);
  EXPECT_EQ(static_cast<unsigned char>(cell[0]), 0xffu);

  // The signature pass classifies the raw bytes as "other" and neither
  // crashes nor loses the row; the cache round-trips the stats exactly.
  catalog.ComputeSignatures();
  const ColumnSignature& sig = catalog.signature(ColumnRef{0, 1});
  EXPECT_EQ(sig.num_rows, 2u);
  EXPECT_TRUE(sig.charset_mask & kCharsetOther);
  TableCatalog reloaded;
  ASSERT_TRUE(reloaded.AddCsvDirectory(dir_.string()).ok());
  ASSERT_TRUE(reloaded.LoadSignatures(catalog.SerializeSignatures()).ok());
  EXPECT_TRUE(reloaded.signature(ColumnRef{0, 1}) == sig);
}

TEST_F(CsvEdgeCaseTest, MixedDirectoryLoadsEveryFile) {
  WriteFile("a_quoted.csv", "x\n\"a,b\"\n");
  WriteFile("b_crlf.csv", "x\r\nv\r\n");
  WriteFile("c_plain.csv", "x\nv\n");
  WriteFile("ignored.txt", "not,a,csv\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(catalog.num_tables(), 3u);
  EXPECT_EQ(catalog.table(0).name(), "a_quoted");
  EXPECT_EQ(catalog.table(1).name(), "b_crlf");
  EXPECT_EQ(catalog.table(2).name(), "c_plain");
}

}  // namespace
}  // namespace tj
