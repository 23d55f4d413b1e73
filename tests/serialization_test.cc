// Tests for the transformation rule-set serialization (save / load / apply —
// the paper's §8 "transfer" workflow).

#include "core/serialization.h"

#include <gtest/gtest.h>

#include "core/discovery.h"

namespace tj {
namespace {

TEST(ParseUnit, AllKindsRoundTrip) {
  const Unit units[] = {
      Unit::MakeLiteral("@ualberta.ca"),
      Unit::MakeLiteral("with 'quote' and \\slash\\"),
      Unit::MakeLiteral("tab\there"),
      Unit::MakeSubstr(0, 7),
      Unit::MakeSplit(',', 0),
      Unit::MakeSplit(' ', 3),
      Unit::MakeSplitSubstr(' ', 1, 0, 1),
      Unit::MakeTwoCharSplitSubstr('(', ')', 0, 0, 3),
  };
  for (const Unit& u : units) {
    const auto parsed = ParseUnit(u.ToString());
    ASSERT_TRUE(parsed.ok()) << u.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, u) << u.ToString();
  }
}

TEST(ParseUnit, NonPrintableLiteralRoundTrips) {
  const Unit u = Unit::MakeLiteral(std::string("\x01\x7f", 2));
  const auto parsed = ParseUnit(u.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, u);
}

TEST(ParseUnit, RejectsMalformedInput) {
  EXPECT_FALSE(ParseUnit("Frobnicate(1,2)").ok());
  EXPECT_FALSE(ParseUnit("Substr(1)").ok());
  EXPECT_FALSE(ParseUnit("Substr(1,2) trailing").ok());
  EXPECT_FALSE(ParseUnit("Split(',')").ok());
  EXPECT_FALSE(ParseUnit("Literal('unterminated)").ok());
  EXPECT_FALSE(ParseUnit("Split('ab',1)").ok());  // multi-char delimiter
}

TEST(ParseTransformation, RoundTripsPrettyForm) {
  UnitInterner interner;
  const std::string text =
      "<SplitSubstr(' ',1,0,1), Literal(' '), Split(',',0)>";
  const auto t = ParseTransformation(text, &interner);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(Transformation(*t).ToString(interner), text);
  EXPECT_EQ(Transformation(*t).Apply("bowling, michael", interner),
            std::optional<std::string>("m bowling"));
}

TEST(ParseTransformation, EmptyTransformation) {
  UnitInterner interner;
  const auto t = ParseTransformation("<>", &interner);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->empty());
}

TEST(ParseTransformation, RejectsMalformed) {
  UnitInterner interner;
  EXPECT_FALSE(ParseTransformation("Substr(0,1)", &interner).ok());  // no <>
  EXPECT_FALSE(ParseTransformation("<Substr(0,1)", &interner).ok());
  EXPECT_FALSE(ParseTransformation("<Substr(0,1),>", &interner).ok());
  EXPECT_FALSE(ParseTransformation("<Substr(0,1)> x", &interner).ok());
}

TEST(TransformationSet, SerializeParseRoundTrip) {
  // Learn real rules, serialize, parse back, and verify behaviour.
  const std::vector<ExamplePair> rows = {
      {"prus-czarnecki, andrzej", "a prus-czarnecki"},
      {"bowling, michael", "m bowling"},
      {"gosgnach, simon", "s gosgnach"},
  };
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  std::vector<TransformationId> ids;
  for (const auto& ranked : result.cover.selected) ids.push_back(ranked.id);

  const std::string text =
      SerializeTransformations(result.store, result.units, ids);
  const auto parsed = ParseTransformationSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ids.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const Transformation& original = result.store.Get(ids[i]);
    const Transformation& reloaded = parsed->store.Get(parsed->ids[i]);
    for (const auto& row : rows) {
      EXPECT_EQ(original.Apply(row.source, result.units),
                reloaded.Apply(row.source, parsed->units));
    }
  }
}

TEST(TransformationSet, SkipsCommentsAndBlankLines) {
  const auto parsed = ParseTransformationSet(
      "# header\n\n<Split(',',0)>\n   \n# tail comment\n<Substr(0,2)>\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ids.size(), 2u);
}

TEST(TransformationSet, NormalizesAdjacentLiteralsBeforeInterning) {
  // Two spellings of one rule: the learner fuses adjacent literals, so a
  // parsed rule must too, or the set keeps both as distinct rules.
  const auto parsed = ParseTransformationSet(
      "<Literal('a'), Literal('b'), Substr(0,1)>\n"
      "<Literal('ab'), Substr(0,1)>\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ids.size(), 1u);
  EXPECT_EQ(parsed->store.Get(parsed->ids[0]).ToString(parsed->units),
            "<Literal('ab'), Substr(0,1)>");
}

TEST(TransformationSet, ReportsLineNumberOnError) {
  const auto parsed =
      ParseTransformationSet("<Split(',',0)>\n<Bogus(1)>\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

// Each of these aborted the process (an uncaught std::out_of_range or
// std::invalid_argument from std::stol/std::stoi) or loaded a wrapped
// number; a rule file is user-editable input and must fail cleanly.
TEST(TransformationSet, OverflowingIntegerIsInvalidArgument) {
  const auto parsed =
      ParseTransformationSet("<Substr(99999999999999999999, 1)>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransformationSet, BadHexEscapeIsInvalidArgument) {
  const auto parsed = ParseTransformationSet("<Literal('\\xZZ')>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransformationSet, IntegerBeyondInt32IsInvalidArgumentNotWrapped) {
  const auto parsed = ParseTransformationSet("<Substr(4294967296, 1)>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // The int32 bounds themselves still load.
  const auto bounds =
      ParseTransformationSet("<Substr(-2147483648, 2147483647)>");
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  EXPECT_EQ(bounds->store.Get(bounds->ids[0]).ToString(bounds->units),
            "<Substr(-2147483648,2147483647)>");
}

TEST(TransformationSet, FileRoundTrip) {
  UnitInterner units;
  TransformationStore store;
  std::vector<TransformationId> ids;
  ids.push_back(
      store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeSplit('|', 1))})
          .first);
  const std::string path = ::testing::TempDir() + "/rules.tj";
  ASSERT_TRUE(SaveTransformationsToFile(path, store, units, ids).ok());
  const auto loaded = LoadTransformationsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->ids.size(), 1u);
  EXPECT_EQ(loaded->store.Get(loaded->ids[0])
                .Apply("a|b", loaded->units),
            std::optional<std::string>("b"));
}

TEST(TransformationSet, MissingFileIsIOError) {
  const auto loaded = LoadTransformationsFromFile("/no/such/file.tj");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace tj
