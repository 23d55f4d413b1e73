// Edge-case behaviour of DiscoveryOptions knobs: caps, ablation toggles, and
// degenerate inputs.

#include <gtest/gtest.h>

#include "core/discovery.h"

namespace tj {
namespace {

TEST(OptionCaps, PerRowTransformationCapIsHonored) {
  // A long repetitive row would generate far more than the cap.
  std::vector<ExamplePair> rows = {
      {"ab cd ef gh ij kl mn op qr st uv wx", "ab-cd-ef gh ij"},
  };
  DiscoveryOptions options;
  options.max_transformations_per_row = 16;
  const DiscoveryResult result = DiscoverTransformations(rows, options);
  EXPECT_LE(result.stats.generated_transformations, 16u);
  EXPECT_EQ(result.stats.rows_capped, 1u);
}

TEST(OptionCaps, TotalGenerationScalesWithCap) {
  // ExamplePairs are views: the cell strings must outlive the rows, so they
  // live in `storage` (filled completely before any view is taken).
  std::vector<std::string> storage;
  storage.reserve(10);
  for (int i = 0; i < 5; ++i) {
    storage.push_back("aa bb cc dd" + std::to_string(i));
    storage.push_back("dd" + std::to_string(i) + " bb");
  }
  std::vector<ExamplePair> rows;
  for (size_t i = 0; i < storage.size(); i += 2) {
    rows.push_back({storage[i], storage[i + 1]});
  }
  DiscoveryOptions small;
  small.max_transformations_per_row = 8;
  DiscoveryOptions large;
  large.max_transformations_per_row = 4096;
  const auto small_result = DiscoverTransformations(rows, small);
  const auto large_result = DiscoverTransformations(rows, large);
  EXPECT_LE(small_result.stats.generated_transformations, 5u * 8u);
  EXPECT_GT(large_result.stats.generated_transformations,
            small_result.stats.generated_transformations);
}

TEST(OptionCaps, TopKLimitsReportedList) {
  std::vector<ExamplePair> rows = {
      {"one,two", "one"}, {"three,four", "three"}, {"five,six", "five"}};
  DiscoveryOptions options;
  options.top_k = 2;
  const DiscoveryResult result = DiscoverTransformations(rows, options);
  EXPECT_LE(result.top.size(), 2u);
}

TEST(OptionCaps, ZeroPlaceholdersStillProducesLiterals) {
  DiscoveryOptions options;
  options.max_placeholders = 0;
  const std::vector<ExamplePair> rows = {{"abc", "xyz"}, {"def", "xyz"}};
  const DiscoveryResult result = DiscoverTransformations(rows, options);
  // Only the all-literal skeleton survives; Literal('xyz') covers both rows.
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].coverage, 2u);
}

TEST(AblationToggles, NoTokenizeLosesLemma4Case) {
  // The paper's "Victor R. Kasumba" case: without separator tokenization the
  // maximal placeholder "Victor R"/"Sandra K" is row-specific, so no single
  // rule covers both rows; with it, the general rule exists.
  const std::vector<ExamplePair> rows = {
      {"Victor Robbie Kasumba", "Victor R. Kasumba"},
      {"Sandra Kim Delgado", "Sandra K. Delgado"},
  };
  DiscoveryOptions with;
  DiscoveryOptions without;
  without.tokenize_placeholders = false;
  const auto a = DiscoverTransformations(rows, with);
  const auto b = DiscoverTransformations(rows, without);
  ASSERT_FALSE(a.top.empty());
  ASSERT_FALSE(b.top.empty());
  EXPECT_EQ(a.top[0].coverage, 2u);
  EXPECT_EQ(b.top[0].coverage, 1u);
}

TEST(AblationToggles, DedupOffInflatesGeneratedCount) {
  const std::vector<ExamplePair> rows = {
      {"aa,bb", "bb"}, {"cc,dd", "dd"}, {"ee,ff", "ff"}};
  DiscoveryOptions with;
  DiscoveryOptions without;
  without.enable_dedup = false;
  const auto a = DiscoverTransformations(rows, with);
  const auto b = DiscoverTransformations(rows, without);
  // Same generation attempts, but without dedup every attempt is stored.
  EXPECT_EQ(a.stats.generated_transformations,
            b.stats.generated_transformations);
  EXPECT_EQ(b.stats.generated_transformations,
            b.stats.unique_transformations);
  EXPECT_GT(b.stats.unique_transformations,
            a.stats.unique_transformations);
  // Quality is unchanged.
  EXPECT_EQ(a.top[0].coverage, b.top[0].coverage);
}

TEST(DegenerateInputs, EmptySourceRow) {
  const std::vector<ExamplePair> rows = {{"", "target"}, {"", "target"}};
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  // Only literals can produce the target from an empty source.
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].coverage, 2u);
}

TEST(DegenerateInputs, EmptyTargetRowGeneratesNothing) {
  const std::vector<ExamplePair> rows = {{"source", ""}};
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  EXPECT_EQ(result.stats.generated_transformations, 0u);
  EXPECT_TRUE(result.top.empty());
}

TEST(DegenerateInputs, SingleCharacterRows) {
  const std::vector<ExamplePair> rows = {{"a", "a"}, {"b", "b"}};
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  ASSERT_FALSE(result.top.empty());
  // Substr(0,1) covers both single-character identities.
  EXPECT_EQ(result.top[0].coverage, 2u);
}

TEST(DegenerateInputs, DuplicateRowsCountSeparately) {
  const std::vector<ExamplePair> rows = {
      {"x,y", "y"}, {"x,y", "y"}, {"x,y", "y"}};
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].coverage, 3u);
}

TEST(DegenerateInputs, VeryLongRowIsTruncatedSafely) {
  // Rows beyond LcpTable::kMaxLength are truncated for placeholder search
  // but must not crash or mis-cover.
  std::string long_source(5000, 'a');
  long_source += ",tail";
  const std::vector<ExamplePair> rows = {{long_source, "tail"}};
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].coverage, 1u);
}

}  // namespace
}  // namespace tj
