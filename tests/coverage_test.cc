// Tests for the coverage engine (the suffix-trie walk and its negative-unit
// cache counters, §4.1.5) and the greedy set-cover solver (§4.1.6).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/coverage.h"
#include "core/set_cover.h"

namespace tj {
namespace {

/// Fixture building a tiny controlled transformation store.
class CoverageTest : public ::testing::Test {
 protected:
  TransformationId Add(std::vector<Unit> units) {
    std::vector<UnitId> ids;
    for (const auto& u : units) ids.push_back(units_.Intern(u));
    return store_.Intern(ids).first;
  }

  CoverageIndex Compute(const std::vector<ExamplePair>& rows,
                        bool neg_cache = true) {
    DiscoveryOptions options;
    options.enable_neg_cache = neg_cache;
    stats_ = DiscoveryStats();
    return ComputeCoverage(store_, units_, rows, options, &stats_);
  }

  UnitInterner units_;
  TransformationStore store_;
  DiscoveryStats stats_;
};

TEST_F(CoverageTest, CountsExactCoverage) {
  const TransformationId split = Add({Unit::MakeSplit(',', 0)});
  const TransformationId lit = Add({Unit::MakeLiteral("beta")});
  const std::vector<ExamplePair> rows = {
      {"alpha,1", "alpha"}, {"beta,2", "beta"}, {"gamma,3", "gamma"}};
  const CoverageIndex index = Compute(rows);
  EXPECT_EQ(index.Count(split), 3u);
  EXPECT_EQ(index.Count(lit), 1u);
  EXPECT_EQ(index.RowsOf(lit)[0], 1u);
}

TEST_F(CoverageTest, RowsAreAscendingWithinTransformation) {
  const TransformationId split = Add({Unit::MakeSplit('|', 1)});
  const std::vector<ExamplePair> rows = {
      {"a|x", "x"}, {"b|y", "y"}, {"c|z", "z"}};
  const CoverageIndex index = Compute(rows);
  const auto covered = index.RowsOf(split);
  ASSERT_EQ(covered.size(), 3u);
  EXPECT_TRUE(covered[0] < covered[1] && covered[1] < covered[2]);
}

TEST_F(CoverageTest, CacheOnAndOffAgree) {
  // Property: the negative-unit cache is a pure optimization. The last two
  // transformations share a failing unit so the cache actually fires.
  Add({Unit::MakeSplit(',', 0)});
  Add({Unit::MakeSubstr(0, 3)});
  Add({Unit::MakeLiteral("xy"), Unit::MakeSplit(',', 1)});
  Add({Unit::MakeSplitSubstr(',', 1, 0, 2)});
  Add({Unit::MakeSplit('#', 7)});
  Add({Unit::MakeSplit('#', 7), Unit::MakeLiteral("z")});
  const std::vector<ExamplePair> rows = {
      {"abc,de", "abc"}, {"xy,zw", "xyzw"}, {"q,r", "q"}, {"zzz", "zzz"}};
  const CoverageIndex with_cache = Compute(rows, true);
  const uint64_t hits = stats_.cache_hits;
  const CoverageIndex without_cache = Compute(rows, false);
  EXPECT_EQ(stats_.cache_hits, 0u);
  ASSERT_EQ(with_cache.num_transformations(),
            without_cache.num_transformations());
  for (TransformationId t = 0; t < with_cache.num_transformations(); ++t) {
    EXPECT_EQ(with_cache.Count(t), without_cache.Count(t));
  }
  EXPECT_GT(hits, 0u);  // the cache actually fired on this workload
}

TEST_F(CoverageTest, CacheHitsSkipKnownBadUnits) {
  // Two transformations sharing a failing unit: the second try must be a
  // cache hit.
  const UnitId bad = units_.Intern(Unit::MakeSplit('#', 5));
  store_.Intern(std::vector<UnitId>{bad});
  store_.Intern(
      std::vector<UnitId>{bad, units_.Intern(Unit::MakeLiteral("x"))});
  const std::vector<ExamplePair> rows = {{"abc", "abc"}};
  Compute(rows);
  EXPECT_EQ(stats_.cache_hits, 1u);
  EXPECT_EQ(stats_.full_evaluations, 1u);
}

TEST_F(CoverageTest, UnitOutputMustMatchAtOffsetNotJustAnywhere) {
  // Both unit outputs occur in the target, but in the wrong order.
  Add({Unit::MakeSplit(',', 1), Unit::MakeSplit(',', 0)});
  const std::vector<ExamplePair> rows = {{"ab,cd", "abcd"}};
  const CoverageIndex index = Compute(rows);
  EXPECT_EQ(index.Count(0), 0u);
}

TEST_F(CoverageTest, EmptyStoreYieldsEmptyIndex) {
  const CoverageIndex index = Compute({{"a", "a"}});
  EXPECT_EQ(index.num_transformations(), 0u);
  EXPECT_EQ(index.TotalPairs(), 0u);
}

TEST_F(CoverageTest, RejectedNodeChargesItsOwnTerminalsAsEvaluations) {
  // Reversed, <x, bad> hangs below <bad>: rejecting `bad` fully evaluates
  // transformation 0 (its terminal is the rejected node) and skips 1.
  const UnitId bad = units_.Intern(Unit::MakeSplit('#', 5));
  store_.Intern(std::vector<UnitId>{bad});
  store_.Intern(
      std::vector<UnitId>{units_.Intern(Unit::MakeLiteral("x")), bad});
  const std::vector<ExamplePair> rows = {{"abc", "abc"}};
  Compute(rows);
  EXPECT_EQ(stats_.full_evaluations, 1u);
  EXPECT_EQ(stats_.cache_hits, 1u);
  EXPECT_EQ(stats_.unit_evals, 1u);
  Compute(rows, /*neg_cache=*/false);
  EXPECT_EQ(stats_.full_evaluations, 2u);
  EXPECT_EQ(stats_.cache_hits, 0u);
}

// ---- The suffix-trie walk against the per-transformation scan ----

/// Coverage oracle: a per-transformation scan. Every transformation is
/// tried against every row, units left to right, each unit's output matched
/// at the running target offset; with `neg_cache` a per-row memo of unit
/// outcomes skips transformations holding a unit already known not to occur
/// in the target. Returns each transformation's covered rows, ascending.
std::vector<std::vector<uint32_t>> ScanOracle(
    const TransformationStore& store, const UnitInterner& interner,
    const std::vector<ExamplePair>& rows, bool neg_cache) {
  std::vector<std::vector<uint32_t>> covered(store.size());
  for (uint32_t row = 0; row < rows.size(); ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    // Unit id -> its output, nullopt when it fails or is not in the target.
    std::unordered_map<UnitId, std::optional<std::string_view>> memo;
    auto evaluate = [&](UnitId id) -> std::optional<std::string_view> {
      if (auto it = memo.find(id); it != memo.end()) return it->second;
      auto out = interner.Get(id).Eval(src);
      if (out && !out->empty() && tgt.find(*out) == std::string_view::npos) {
        out.reset();
      }
      if (neg_cache) memo.emplace(id, out);
      return out;
    };
    for (TransformationId t = 0; t < store.size(); ++t) {
      const std::span<const UnitId> units = store.Get(t).units();
      if (neg_cache && std::ranges::any_of(units, [&](UnitId id) {
            const auto it = memo.find(id);
            return it != memo.end() && !it->second;
          })) {
        continue;
      }
      size_t offset = 0;
      bool covers = true;
      for (UnitId id : units) {
        const auto out = evaluate(id);
        if (!out || tgt.substr(offset, out->size()) != *out) {
          covers = false;
          break;
        }
        offset += out->size();
      }
      if (covers && offset == tgt.size()) covered[t].push_back(row);
    }
  }
  return covered;
}

Unit RandomUnit(Rng* rng) {
  static const char* const kLiterals[] = {"", "a", "b", "ab", ",", "-", "ba"};
  const auto small = [&](int64_t hi) {
    return static_cast<int32_t>(rng->UniformInt(0, hi));
  };
  const char delim = rng->PickChar(",-");
  switch (rng->Uniform(5)) {
    case 0:
      return Unit::MakeLiteral(kLiterals[rng->Uniform(std::size(kLiterals))]);
    case 1: {
      const int32_t s = small(3);
      return Unit::MakeSubstr(s, s + small(3));
    }
    case 2:
      return Unit::MakeSplit(delim, small(2));
    case 3: {
      const int32_t s = small(2);
      return Unit::MakeSplitSubstr(delim, small(2), s, s + small(2));
    }
    default: {
      const int32_t s = small(1);
      return Unit::MakeTwoCharSplitSubstr(',', '-', small(1), s,
                                          s + small(2));
    }
  }
}

/// A random store mixing the shapes the trie build must handle: odometer
/// runs (consecutive ids sharing tails), random sequences, prefixes and
/// suffixes of earlier sequences, literal-only and empty sequences, and —
/// without dedup — exact duplicates; optionally in shuffled order.
void FillRandomStore(Rng* rng, bool dedup, UnitInterner* interner,
                     TransformationStore* store) {
  std::vector<UnitId> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(interner->Intern(RandomUnit(rng)));
  }
  const auto pick = [&] { return pool[rng->Uniform(pool.size())]; };
  std::vector<std::vector<UnitId>> seqs;
  for (int run = 0; run < 4; ++run) {
    // Odometer over 1-3 slots, slot 0 varying fastest like the generator.
    std::vector<std::vector<UnitId>> slots(rng->UniformInt(1, 3));
    for (auto& slot : slots) {
      slot.resize(rng->UniformInt(1, 3));
      for (UnitId& id : slot) id = pick();
    }
    std::vector<size_t> cursor(slots.size(), 0);
    for (size_t i = 0; i < slots.size();) {
      std::vector<UnitId> seq;
      for (size_t s = 0; s < slots.size(); ++s) {
        seq.push_back(slots[s][cursor[s]]);
      }
      seqs.push_back(std::move(seq));
      for (i = 0; i < slots.size(); ++i) {
        if (++cursor[i] < slots[i].size()) break;
        cursor[i] = 0;
      }
    }
  }
  for (int i = 0; i < 12; ++i) {
    std::vector<UnitId> seq(rng->UniformInt(0, 4));
    for (UnitId& id : seq) id = pick();
    seqs.push_back(std::move(seq));
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<UnitId> seq = seqs[rng->Uniform(seqs.size())];
    const size_t keep = rng->Uniform(seq.size() + 1);
    if (rng->Bernoulli(0.5)) {
      seq.resize(keep);  // a prefix
    } else {
      seq.erase(seq.begin(), seq.end() - keep);  // a suffix
    }
    seqs.push_back(std::move(seq));
  }
  seqs.push_back({interner->Intern(Unit::MakeLiteral("ab"))});
  seqs.push_back({interner->Intern(Unit::MakeLiteral("a")),
                  interner->Intern(Unit::MakeLiteral("b"))});
  seqs.push_back({});
  if (!dedup) {
    for (int i = 0; i < 6; ++i) seqs.push_back(seqs[rng->Uniform(seqs.size())]);
  }
  if (rng->Bernoulli(0.5)) rng->Shuffle(&seqs);
  for (const auto& seq : seqs) store->Intern(seq, dedup);
}

/// Rows over the units' alphabet. Targets are a stored transformation's
/// output (so coverage is dense), a random string, or empty.
std::vector<ExamplePair> RandomRows(Rng* rng, const TransformationStore& store,
                                    const UnitInterner& interner,
                                    std::vector<std::string>* arena) {
  arena->clear();
  arena->reserve(32);
  for (int i = 0; i < 16; ++i) {
    arena->push_back(rng->RandomString(rng->UniformInt(0, 8), "ab,-"));
    std::string target;
    const double kind = rng->NextDouble();
    if (kind < 0.6) {
      const auto t = static_cast<TransformationId>(rng->Uniform(store.size()));
      target = store.Get(t).Apply(arena->back(), interner).value_or("");
    } else if (kind < 0.85) {
      target = rng->RandomString(rng->UniformInt(1, 5), "ab,-");
    }
    arena->push_back(std::move(target));
  }
  std::vector<ExamplePair> rows;
  for (size_t i = 0; i < arena->size(); i += 2) {
    rows.push_back({(*arena)[i], (*arena)[i + 1]});
  }
  return rows;
}

TEST(CoverageTrie, MatchesScanOracleAtEveryThreadCount) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4, &pool8};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const bool dedup = seed % 3 != 0;
    UnitInterner interner;
    TransformationStore store;
    FillRandomStore(&rng, dedup, &interner, &store);
    std::vector<std::string> arena;
    const std::vector<ExamplePair> rows =
        RandomRows(&rng, store, interner, &arena);
    const uint64_t pairs = store.size() * rows.size();
    for (bool neg_cache : {true, false}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " dedup " << dedup
                                      << " neg_cache " << neg_cache);
      const auto oracle = ScanOracle(store, interner, rows, neg_cache);
      DiscoveryStats serial_stats;
      for (ThreadPool* pool : pools) {
        DiscoveryOptions options;
        options.enable_neg_cache = neg_cache;
        options.pool = pool;
        DiscoveryStats stats;
        const CoverageIndex index =
            ComputeCoverage(store, interner, rows, options, &stats);
        ASSERT_EQ(index.num_transformations(), store.size());
        size_t total = 0;
        for (TransformationId t = 0; t < store.size(); ++t) {
          const auto got = index.RowsOf(t);
          ASSERT_TRUE(std::ranges::equal(got, oracle[t])) << "t " << t;
          total += oracle[t].size();
        }
        EXPECT_EQ(index.TotalPairs(), total);
        EXPECT_EQ(stats.covering_pairs, total);
        EXPECT_EQ(stats.cache_hits + stats.full_evaluations, pairs);
        if (!neg_cache) {
          EXPECT_EQ(stats.cache_hits, 0u);
        }
        if (pool == nullptr) {
          serial_stats = stats;
        } else {
          EXPECT_EQ(stats.cache_hits, serial_stats.cache_hits);
          EXPECT_EQ(stats.full_evaluations, serial_stats.full_evaluations);
          EXPECT_EQ(stats.unit_evals, serial_stats.unit_evals);
        }
      }
    }
  }
}

// ---- Set cover (indexes built through ComputeCoverage over crafted rows:
// a Literal transformation covers exactly the rows with that target) ----

TEST(SetCover, GreedyPicksLargestFirst) {
  UnitInterner units;
  TransformationStore store;
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeSplit('-', 1))});
  const std::vector<ExamplePair> rows = {
      {"x-A", "A"}, {"y-A", "A"}, {"z-A", "A"}, {"w-B", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  // t2 (Split) covers all 4; t0 covers 3; t1 covers 1.
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), SetCoverOptions{});
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].id, 2u);
  EXPECT_EQ(result.covered_rows, 4u);
}

TEST(SetCover, SelectsMultipleSetsWhenNeeded) {
  UnitInterner units;
  TransformationStore store;
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  const std::vector<ExamplePair> rows = {
      {"1", "A"}, {"2", "A"}, {"3", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), SetCoverOptions{});
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].id, 0u);  // larger set first
  EXPECT_EQ(result.marginal_gains[0], 2u);
  EXPECT_EQ(result.marginal_gains[1], 1u);
  EXPECT_EQ(result.covered_rows, 3u);
}

TEST(SetCover, MinSupportExcludesRareSets) {
  UnitInterner units;
  TransformationStore store;
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  const std::vector<ExamplePair> rows = {
      {"1", "A"}, {"2", "A"}, {"3", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  SetCoverOptions cover_options;
  cover_options.min_support = 2;
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), cover_options);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].id, 0u);
  EXPECT_EQ(result.covered_rows, 2u);  // row 2 stays uncovered
}

TEST(SetCover, MaxSetsBoundsSelection) {
  UnitInterner units;
  TransformationStore store;
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("C"))});
  const std::vector<ExamplePair> rows = {{"1", "A"}, {"2", "B"}, {"3", "C"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  SetCoverOptions cover_options;
  cover_options.max_sets = 2;
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), cover_options);
  EXPECT_EQ(result.selected.size(), 2u);
}

TEST(TopK, OrderedByCoverageThenId) {
  UnitInterner units;
  TransformationStore store;
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Intern(std::vector<UnitId>{units.Intern(Unit::MakeSplit('-', 0))});
  const std::vector<ExamplePair> rows = {
      {"A-1", "A"}, {"A-2", "A"}, {"B-1", "B"}, {"B-2", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  const auto top = TopKByCoverage(index, 10, 1);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 2u);  // Split covers 4
  EXPECT_EQ(top[0].coverage, 4u);
  // Literal('B') and Literal('A') both cover 2: lower id first.
  EXPECT_EQ(top[1].id, 0u);
  EXPECT_EQ(top[2].id, 1u);
}

}  // namespace
}  // namespace tj
