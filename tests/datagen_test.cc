// Tests for the dataset generators, including the central synthetic-data
// property: every generated row is covered by its ground-truth
// transformation.

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/hash.h"
#include "core/transformation.h"
#include "datagen/figure1.h"
#include "datagen/opendata.h"
#include "datagen/spreadsheet.h"
#include "datagen/synth.h"
#include "datagen/webtables.h"

namespace tj {
namespace {

TEST(SynthGen, GroundTruthCoversEveryRow) {
  const SynthDataset ds = GenerateSynth(SynthN(80, 7));
  ASSERT_EQ(ds.row_rule.size(), 80u);
  for (size_t r = 0; r < 80; ++r) {
    const Transformation t(ds.transformations[ds.row_rule[r]]);
    const auto source = ds.pair.SourceColumn().Get(r);
    const auto applied = t.Apply(source, ds.units);
    ASSERT_TRUE(applied.has_value());
    // The golden pair points at the shuffled target position.
    bool found = false;
    for (const RowPair& g : ds.pair.golden.pairs()) {
      if (g.source == r) {
        EXPECT_EQ(*applied, ds.pair.TargetColumn().Get(g.target));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(SynthGen, RespectsLengthRange) {
  const SynthDataset ds = GenerateSynth(SynthNL(50, 9));
  for (size_t r = 0; r < 50; ++r) {
    const size_t len = ds.pair.SourceColumn().Get(r).size();
    EXPECT_GE(len, 40u);
    EXPECT_LE(len, 70u);
  }
}

TEST(SynthGen, DeterministicForSeed) {
  const SynthDataset a = GenerateSynth(SynthN(30, 123));
  const SynthDataset b = GenerateSynth(SynthN(30, 123));
  for (size_t r = 0; r < 30; ++r) {
    EXPECT_EQ(a.pair.SourceColumn().Get(r), b.pair.SourceColumn().Get(r));
    EXPECT_EQ(a.pair.TargetColumn().Get(r), b.pair.TargetColumn().Get(r));
  }
}

TEST(SynthGen, DifferentSeedsDiffer) {
  const SynthDataset a = GenerateSynth(SynthN(30, 1));
  const SynthDataset b = GenerateSynth(SynthN(30, 2));
  bool any_diff = false;
  for (size_t r = 0; r < 30; ++r) {
    any_diff |=
        a.pair.SourceColumn().Get(r) != b.pair.SourceColumn().Get(r);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthGen, GoldenIsOneToOne) {
  const SynthDataset ds = GenerateSynth(SynthN(60, 17));
  std::unordered_set<uint32_t> sources;
  std::unordered_set<uint32_t> targets;
  for (const RowPair& g : ds.pair.golden.pairs()) {
    EXPECT_TRUE(sources.insert(g.source).second);
    EXPECT_TRUE(targets.insert(g.target).second);
  }
  EXPECT_EQ(ds.pair.golden.size(), 60u);
}

TEST(SynthGen, UsesConfiguredNumberOfRules) {
  SynthOptions options = SynthN(40, 3);
  options.num_transformations = 5;
  const SynthDataset ds = GenerateSynth(options);
  EXPECT_EQ(ds.transformations.size(), 5u);
  for (size_t rule : ds.row_rule) EXPECT_LT(rule, 5u);
}

TEST(WebTablesGen, ProducesRequestedPairCount) {
  WebTablesOptions options;
  options.num_pairs = 31;
  const auto tables = GenerateWebTables(options);
  EXPECT_EQ(tables.size(), 31u);
  EXPECT_GE(WebTablesTopicCount(), 17u);
}

TEST(WebTablesGen, TablesHaveGoldenAndBothSides) {
  WebTablesOptions options;
  options.num_pairs = 17;
  for (const TablePair& pair : GenerateWebTables(options)) {
    EXPECT_GT(pair.source.num_rows(), 0u) << pair.name;
    EXPECT_GT(pair.target.num_rows(), 0u) << pair.name;
    EXPECT_GT(pair.golden.size(), 0u) << pair.name;
    // Unmatched extras make the sides strictly larger than the golden set.
    EXPECT_GE(pair.source.num_rows(), pair.golden.size()) << pair.name;
    // Golden indices are in range.
    for (const RowPair& g : pair.golden.pairs()) {
      EXPECT_LT(g.source, pair.source.num_rows()) << pair.name;
      EXPECT_LT(g.target, pair.target.num_rows()) << pair.name;
    }
  }
}

TEST(WebTablesGen, SourceValuesAreUnique) {
  WebTablesOptions options;
  options.num_pairs = 17;
  for (const TablePair& pair : GenerateWebTables(options)) {
    std::unordered_set<std::string, StringHash, StringEq> seen;
    const auto& col = pair.SourceColumn();
    for (size_t r = 0; r < col.size(); ++r) {
      EXPECT_TRUE(seen.insert(std::string(col.Get(r))).second)
          << pair.name << " duplicate source " << col.Get(r);
    }
  }
}

TEST(SpreadsheetGen, ProducesRequestedTaskCount) {
  SpreadsheetOptions options;
  options.num_tasks = 108;
  const auto tasks = GenerateSpreadsheet(options);
  EXPECT_EQ(tasks.size(), 108u);
  EXPECT_GE(SpreadsheetArchetypeCount(), 18u);
}

TEST(SpreadsheetGen, GoldenMatchesRowCounts) {
  SpreadsheetOptions options;
  options.num_tasks = 18;
  for (const TablePair& pair : GenerateSpreadsheet(options)) {
    EXPECT_EQ(pair.golden.size(), pair.source.num_rows()) << pair.name;
    EXPECT_EQ(pair.source.num_rows(), pair.target.num_rows()) << pair.name;
  }
}

TEST(OpenDataGen, HasDuplicatesAndExtras) {
  OpenDataOptions options;
  options.num_rows = 300;
  const TablePair pair = GenerateOpenData(options);
  // Duplicates: more golden pairs than distinct target rows they map to.
  EXPECT_GT(pair.golden.size(), 300u * 95 / 100);
  // Extras: both sides strictly larger than the matched core.
  EXPECT_GT(pair.source.num_rows(), 300u);
  EXPECT_GT(pair.target.num_rows(), 300u);
  // The source column (directory style) is the longer, more descriptive one.
  EXPECT_GT(pair.SourceColumn().AverageLength(),
            pair.TargetColumn().AverageLength());
}

TEST(Figure1, PairsAreWellFormed) {
  const TablePair phones = Figure1NamePhonePair();
  EXPECT_EQ(phones.source.num_rows(), 6u);
  EXPECT_EQ(phones.golden.size(), 6u);
  const TablePair emails = Figure1NameEmailPair();
  EXPECT_EQ(emails.target.column(1).Get(0), "drafiei@ualberta.ca");
  EXPECT_EQ(emails.target_join_column, 1u);
}

}  // namespace
}  // namespace tj
