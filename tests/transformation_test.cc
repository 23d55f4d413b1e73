// Tests for Transformation: apply/covers semantics, normalization,
// hash-consing in the store (plus a seeded property test against a map
// oracle), and the unit interner.
//
// A Transformation is a view: one taken from TransformationStore::Get() is
// invalidated by the next Intern() on the same store, so the tests below
// never hold a view across an Intern.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/transformation.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {
namespace {

class TransformationTest : public ::testing::Test {
 protected:
  UnitId Lit(const std::string& s) {
    return units_.Intern(Unit::MakeLiteral(s));
  }
  UnitId Sub(int32_t s, int32_t e) {
    return units_.Intern(Unit::MakeSubstr(s, e));
  }
  UnitId Split(char c, int32_t i) {
    return units_.Intern(Unit::MakeSplit(c, i));
  }
  std::vector<UnitId> Normalize(const std::vector<UnitId>& units) {
    std::vector<UnitId> out;
    std::string fused;
    Transformation::NormalizeInto(units, &units_, &out, &fused);
    return out;
  }

  UnitInterner units_;
};

TEST_F(TransformationTest, ApplyConcatenatesUnitOutputs) {
  // The paper's §3.2 result in our 0-based convention:
  // <SplitSubstr(' ',1,0,1), Literal(' '), Split(',',0)>.
  const std::vector<UnitId> units = {
      units_.Intern(Unit::MakeSplitSubstr(' ', 1, 0, 1)),
      Lit(" "),
      Split(',', 0),
  };
  const Transformation t(units);
  EXPECT_EQ(t.Apply("bowling, michael", units_),
            std::optional<std::string>("m bowling"));
  EXPECT_EQ(t.Apply("gosgnach, simon", units_),
            std::optional<std::string>("s gosgnach"));
}

TEST_F(TransformationTest, ApplyFailsWhenAnyUnitFails) {
  const std::vector<UnitId> units = {Sub(0, 3), Split('|', 1)};
  const Transformation t(units);
  EXPECT_EQ(t.Apply("abcdef", units_), std::nullopt);  // no '|' piece 1
  EXPECT_EQ(t.Apply("ab", units_), std::nullopt);      // substr too long
}

TEST_F(TransformationTest, CoversMatchesApplyEquality) {
  const std::vector<UnitId> units = {Split(',', 0), Lit("!")};
  const Transformation t(units);
  EXPECT_TRUE(t.Covers("abc,def", "abc!", units_));
  EXPECT_FALSE(t.Covers("abc,def", "abc", units_));   // prefix only
  EXPECT_FALSE(t.Covers("abc,def", "abc!x", units_)); // target longer
  EXPECT_FALSE(t.Covers("abc,def", "abX!", units_));  // mismatch
}

TEST_F(TransformationTest, CoversEmptyTargetOnlyWithEmptyOutput) {
  const Transformation empty;
  EXPECT_TRUE(empty.Covers("src", "", units_));
  EXPECT_FALSE(empty.Covers("src", "x", units_));
}

TEST_F(TransformationTest, NormalizedMergesAdjacentLiterals) {
  const std::vector<UnitId> t =
      Normalize({Lit("a"), Lit("b"), Sub(0, 1), Lit("c"), Lit("d"), Lit("e")});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(units_.Get(t[0]).literal, "ab");
  EXPECT_EQ(units_.Get(t[2]).literal, "cde");
}

TEST_F(TransformationTest, NormalizedEqualsForDifferentLiteralSplits) {
  const std::vector<UnitId> a = Normalize({Lit("ab"), Sub(0, 1)});
  const std::vector<UnitId> b = Normalize({Lit("a"), Lit("b"), Sub(0, 1)});
  EXPECT_TRUE(Transformation(a) == Transformation(b));
  EXPECT_EQ(Transformation(a).Hash(), Transformation(b).Hash());
}

TEST_F(TransformationTest, NumPlaceholderUnitsCountsNonConstants) {
  const std::vector<UnitId> units = {Sub(0, 1), Lit("x"), Split(',', 0)};
  const Transformation t(units);
  EXPECT_EQ(t.NumPlaceholderUnits(units_), 2u);
}

TEST_F(TransformationTest, ToStringListsUnits) {
  const std::vector<UnitId> units = {Sub(0, 7), Lit(". ")};
  const Transformation t(units);
  EXPECT_EQ(t.ToString(units_), "<Substr(0,7), Literal('. ')>");
}

TEST_F(TransformationTest, StoreDeduplicates) {
  TransformationStore store;
  const std::vector<UnitId> t1 = {Sub(0, 1), Lit("x")};
  const std::vector<UnitId> t2 = {Sub(0, 1), Lit("x")};
  const std::vector<UnitId> t3 = {Sub(0, 2)};
  const auto [id1, fresh1] = store.Intern(t1);
  const auto [id2, fresh2] = store.Intern(t2);
  const auto [id3, fresh3] = store.Intern(t3);
  EXPECT_TRUE(fresh1);
  EXPECT_FALSE(fresh2);
  EXPECT_TRUE(fresh3);
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(TransformationTest, StoreDedupDisabledKeepsDuplicates) {
  TransformationStore store;
  const std::vector<UnitId> t = {Sub(0, 1)};
  store.Intern(t, /*dedup=*/false);
  store.Intern(t, /*dedup=*/false);
  EXPECT_EQ(store.size(), 2u);
}

// Property: the arena store agrees with a std::map oracle on ids (dense, in
// first-seen order) and on every stored sequence, across slot-table growth,
// empty and length-1 sequences, repeats, and both dedup settings.
TEST(TransformationStoreProperty, MatchesMapOracle) {
  for (const bool dedup : {true, false}) {
    SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
    Rng rng(dedup ? 11 : 12);
    TransformationStore store;
    std::map<std::vector<UnitId>, TransformationId> oracle;
    std::vector<std::vector<UnitId>> by_id;  // expected Get(id)
    // 6000 inserts of length 0-5 over 8 unit ids: ~2400 distinct sequences
    // (the 64-slot table doubles 6 times, 7 without dedup) while the short
    // lengths repeat constantly.
    for (int i = 0; i < 6000; ++i) {
      std::vector<UnitId> seq(static_cast<size_t>(rng.Uniform(6)));
      for (UnitId& id : seq) id = static_cast<UnitId>(rng.Uniform(8));
      const auto [id, fresh] = store.Intern(seq, dedup);
      const auto it = oracle.find(seq);
      if (dedup && it != oracle.end()) {
        EXPECT_FALSE(fresh);
        EXPECT_EQ(id, it->second);
        continue;
      }
      EXPECT_TRUE(fresh);
      EXPECT_EQ(id, by_id.size());  // next id in first-seen order
      oracle.emplace(seq, id);      // keeps the first id when dedup is off
      by_id.push_back(seq);
    }
    ASSERT_EQ(store.size(), by_id.size());
    if (dedup) EXPECT_EQ(store.size(), oracle.size());
    EXPECT_GT(store.size(), 1500u);
    EXPECT_EQ(oracle.count(std::vector<UnitId>{}), 1u);
    EXPECT_EQ(oracle.count(std::vector<UnitId>{7}), 1u);
    for (TransformationId id = 0; id < by_id.size(); ++id) {
      const Transformation t = store.Get(id);
      ASSERT_EQ(std::vector<UnitId>(t.units().begin(), t.units().end()),
                by_id[id]);
      EXPECT_EQ(t.Hash(), Transformation(by_id[id]).Hash());
    }
  }
}

TEST(UnitInterner, InterningIsIdempotent) {
  UnitInterner units;
  const UnitId a = units.Intern(Unit::MakeSplit(',', 1));
  const UnitId b = units.Intern(Unit::MakeSplit(',', 1));
  const UnitId c = units.Intern(Unit::MakeSplit(',', 2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(units.size(), 2u);
  EXPECT_EQ(units.Get(a), Unit::MakeSplit(',', 1));
}

TEST(UnitInterner, ReferencesStableAcrossGrowth) {
  UnitInterner units;
  const UnitId first = units.Intern(Unit::MakeLiteral("stable"));
  const Unit* ptr = &units.Get(first);
  for (int i = 0; i < 1000; ++i) {
    units.Intern(Unit::MakeSubstr(i, i + 1));
  }
  EXPECT_EQ(ptr, &units.Get(first));  // deque storage: no reallocation
  EXPECT_EQ(ptr->literal, "stable");
}

}  // namespace
}  // namespace tj
