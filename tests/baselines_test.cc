// Tests for the three baselines: naive enumeration (§3.1), Auto-Join
// (§3.2), and the Auto-FuzzyJoin simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/autojoin.h"
#include "baselines/fuzzyjoin.h"
#include "core/coverage.h"
#include "core/discovery.h"
#include "core/example.h"
#include "core/options.h"
#include "core/set_cover.h"
#include "core/stats.h"
#include "match/metrics.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

// ---- Naive ----
//
// Naive brute-force baseline (paper §3.1): exhaustively enumerate every
// transformation (sequences of units with every parameter assignment) that
// maps each source to its target, then compute coverage and compile
// solutions. Exponential in the row length — usable only on tiny inputs,
// where it serves as a ground-truth oracle for the main algorithm's tests.

struct NaiveOptions {
  /// Maximum units per transformation.
  int max_units = 4;
  /// Global cap on enumerated transformations (sets `truncated` when hit).
  size_t max_transformations = 200000;
  bool enable_twochar_split_substr = false;
};

struct NaiveResult {
  UnitInterner units;
  TransformationStore store;
  CoverageIndex coverage;
  std::vector<RankedTransformation> top;
  SetCoverResult cover;
  size_t num_rows = 0;
  bool truncated = false;

  double TopCoverageFraction() const {
    if (num_rows == 0 || top.empty()) return 0.0;
    return static_cast<double>(top[0].coverage) /
           static_cast<double>(num_rows);
  }
};

/// Longest common prefix of a and b.
size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Exhaustive per-row DFS: at each target offset, try every unit whose
/// output is a non-empty prefix of the remaining target.
class RowEnumerator {
 public:
  RowEnumerator(std::string_view source, std::string_view target,
                const NaiveOptions& options, UnitInterner* interner,
                TransformationStore* store, bool* truncated)
      : source_(source),
        target_(target),
        options_(options),
        interner_(interner),
        store_(store),
        truncated_(truncated) {}

  void Run() { Dfs(0); }

 private:
  void EmitCandidate(Unit unit, size_t produced_len, size_t offset) {
    if (*truncated_) return;
    current_.push_back(interner_->Intern(unit));
    Dfs(offset + produced_len);
    current_.pop_back();
  }

  void Dfs(size_t offset) {
    if (*truncated_) return;
    if (offset == target_.size()) {
      if (store_->size() >= options_.max_transformations) {
        *truncated_ = true;
        return;
      }
      Transformation::NormalizeInto(current_, interner_, &normalized_,
                                    &fused_);
      store_->Intern(normalized_);
      return;
    }
    if (current_.size() >= static_cast<size_t>(options_.max_units)) return;
    const std::string_view rest = target_.substr(offset);

    // Literal: every non-empty prefix of the remaining target.
    for (size_t len = 1; len <= rest.size(); ++len) {
      EmitCandidate(Unit::MakeLiteral(std::string(rest.substr(0, len))), len,
                    offset);
    }

    // Substr(s, e): every source start with every matching extension.
    for (size_t s = 0; s < source_.size(); ++s) {
      const size_t max_len = CommonPrefix(source_.substr(s), rest);
      for (size_t len = 1; len <= max_len; ++len) {
        EmitCandidate(Unit::MakeSubstr(static_cast<int32_t>(s),
                                       static_cast<int32_t>(s + len)),
                      len, offset);
      }
    }

    // Split(c, i) and SplitSubstr(c, i, s, e) over every distinct source
    // character and every piece.
    bool seen[256] = {false};
    for (char c : source_) {
      auto& flag = seen[static_cast<unsigned char>(c)];
      if (flag) continue;
      flag = true;
      const std::vector<std::string_view> pieces = SplitByChar(source_, c);
      for (size_t i = 0; i < pieces.size(); ++i) {
        const std::string_view piece = pieces[i];
        if (!piece.empty() && rest.substr(0, piece.size()) == piece) {
          EmitCandidate(Unit::MakeSplit(c, static_cast<int32_t>(i)),
                        piece.size(), offset);
        }
        for (size_t s = 0; s < piece.size(); ++s) {
          const size_t max_len = CommonPrefix(piece.substr(s), rest);
          for (size_t len = 1; len <= max_len; ++len) {
            // Skip the full-piece case already emitted as Split.
            if (s == 0 && len == piece.size()) continue;
            EmitCandidate(
                Unit::MakeSplitSubstr(c, static_cast<int32_t>(i),
                                      static_cast<int32_t>(s),
                                      static_cast<int32_t>(s + len)),
                len, offset);
          }
        }
      }
    }

    // TwoCharSplitSubstr over every delimiter pair (optional; very costly).
    if (options_.enable_twochar_split_substr) {
      for (int a = 0; a < 256 && !*truncated_; ++a) {
        if (!seen[a]) continue;
        for (int b = 0; b < 256; ++b) {
          if (!seen[b] || a == b) continue;
          const char c1 = static_cast<char>(a);
          const char c2 = static_cast<char>(b);
          int32_t qualifying = 0;
          for (const BoundedToken& tok :
               TokenizeOnTwoChars(source_, c1, c2)) {
            if (tok.prev != c1 || tok.next != c2) continue;
            for (size_t s = 0; s < tok.text.size(); ++s) {
              const size_t max_len = CommonPrefix(tok.text.substr(s), rest);
              for (size_t len = 1; len <= max_len; ++len) {
                EmitCandidate(Unit::MakeTwoCharSplitSubstr(
                                  c1, c2, qualifying, static_cast<int32_t>(s),
                                  static_cast<int32_t>(s + len)),
                              len, offset);
              }
            }
            ++qualifying;
          }
        }
      }
    }
  }

  const std::string_view source_;
  const std::string_view target_;
  const NaiveOptions& options_;
  UnitInterner* interner_;
  TransformationStore* store_;
  bool* truncated_;
  std::vector<UnitId> current_;
  std::vector<UnitId> normalized_;  // NormalizeInto scratch
  std::string fused_;
};

/// Stage 1+2 of the naive approach: enumerate-and-cover.
NaiveResult NaiveEnumerate(const std::vector<ExamplePair>& rows,
                           const NaiveOptions& options) {
  NaiveResult result;
  result.num_rows = rows.size();
  for (const ExamplePair& row : rows) {
    RowEnumerator enumerator(row.source, row.target, options, &result.units,
                             &result.store, &result.truncated);
    enumerator.Run();
    if (result.truncated) break;
  }
  DiscoveryOptions coverage_options;  // defaults: neg cache on
  DiscoveryStats stats;
  result.coverage = ComputeCoverage(result.store, result.units, rows,
                                    coverage_options, &stats);
  result.top = TopKByCoverage(result.coverage, 10, 1);
  result.cover = GreedySetCover(result.coverage, rows.size(), SetCoverOptions{});
  return result;
}


TEST(Naive, FindsCoveringTransformationOnTinyInput) {
  const std::vector<ExamplePair> rows = {
      {"ab,cd", "cd"}, {"xy,zw", "zw"}, {"qq,rr", "rr"}};
  NaiveOptions options;
  options.max_units = 2;
  const NaiveResult result = NaiveEnumerate(rows, options);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].coverage, 3u);
  EXPECT_FALSE(result.truncated);
}

TEST(Naive, AgreesWithOurApproachOnMaxCoverage) {
  // Oracle test: on tiny inputs the efficient algorithm must reach the same
  // maximum coverage as exhaustive enumeration.
  const std::vector<std::vector<ExamplePair>> cases = {
      {{"ab,cd", "cd"}, {"xy,zw", "zw"}},
      {{"a-b", "b/a"}, {"c-d", "d/c"}},
      {{"one two", "two"}, {"uno dos", "dos"}, {"en to", "to"}},
  };
  for (const auto& rows : cases) {
    NaiveOptions naive_options;
    naive_options.max_units = 3;
    const NaiveResult naive = NaiveEnumerate(rows, naive_options);
    const DiscoveryResult ours =
        DiscoverTransformations(rows, DiscoveryOptions());
    ASSERT_FALSE(naive.top.empty());
    ASSERT_FALSE(ours.top.empty());
    EXPECT_EQ(ours.top[0].coverage, naive.top[0].coverage)
        << "rows[0]=" << rows[0].source << " -> " << rows[0].target;
  }
}

TEST(Naive, TruncatesAtTransformationCap) {
  NaiveOptions options;
  options.max_transformations = 50;
  const NaiveResult result =
      NaiveEnumerate({{"abcabcabc", "abcabc"}}, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.store.size(), 51u);
}

// ---- Auto-Join ----

TEST(AutoJoin, FindsTransformationOnCleanInput) {
  const std::vector<ExamplePair> rows = {
      {"prus-czarnecki, andrzej", "a prus-czarnecki"},
      {"bowling, michael", "m bowling"},
      {"gosgnach, simon", "s gosgnach"},
      {"rafiei, davood", "d rafiei"},
  };
  const AutoJoinResult result = RunAutoJoin(rows, AutoJoinOptions());
  ASSERT_FALSE(result.found.empty());
  EXPECT_DOUBLE_EQ(result.union_coverage, 1.0);
  // The found transformation really maps the rows.
  const Transformation& t = result.store.Get(result.ranked[0].id);
  EXPECT_EQ(t.Apply("rafiei, davood", result.units),
            std::optional<std::string>("d rafiei"));
}

TEST(AutoJoin, SingleRuleSubsetAssumptionBreaksOnMixedInput) {
  // Half the rows follow rule A, half rule B. With subsets as large as the
  // input, every subset mixes the rules and no single transformation covers
  // it — Auto-Join finds nothing (the motivation for our approach, §3.2).
  // Varying-length names with pairwise-disjoint letters defeat positional
  // and shared-literal tricks; rule A needs Split(',',0), rule B needs
  // Split(',',1), and no unit sequence yields both on every row.
  const std::vector<ExamplePair> rows = {
      {"alpha,x", "alpha"}, {"y,bceg", "bceg"},   {"uvw,x", "uvw"},
      {"y,dfhi", "dfhi"},   {"qjkz,x", "qjkz"},   {"y,mnrs", "mnrs"},
  };
  AutoJoinOptions options;
  options.num_subsets = 2;
  options.subset_size = rows.size();  // forcibly mixed
  const AutoJoinResult result = RunAutoJoin(rows, options);
  EXPECT_TRUE(result.found.empty());
  EXPECT_DOUBLE_EQ(result.union_coverage, 0.0);
}

TEST(AutoJoin, WorkBudgetStopsAtTheSameCount) {
  // Long noisy rows make the exhaustive enumeration explode; the run stops
  // once it has enumerated its budget of units, so two runs stop at the
  // same count with the same result, however fast each one ran.
  // ExamplePairs are views: the generated strings live in `storage`,
  // filled completely before any view is taken.
  std::vector<std::string> storage;
  storage.reserve(16);
  for (int i = 0; i < 8; ++i) {
    std::string src;
    std::string tgt;
    for (int j = 0; j < 60; ++j) {
      src.push_back(static_cast<char>('a' + ((i * 31 + j * 7) % 26)));
      tgt.push_back(static_cast<char>('a' + ((i * 17 + j * 11) % 26)));
    }
    storage.push_back(std::move(src));
    storage.push_back(std::move(tgt));
  }
  std::vector<ExamplePair> rows;
  for (size_t i = 0; i < storage.size(); i += 2) {
    rows.push_back({storage[i], storage[i + 1]});
  }
  AutoJoinOptions options;
  options.unit_budget = 200'000;
  options.num_subsets = 50;
  const AutoJoinResult first = RunAutoJoin(rows, options);
  const AutoJoinResult second = RunAutoJoin(rows, options);
  EXPECT_TRUE(first.capped);
  EXPECT_GE(first.units_enumerated, options.unit_budget);
  EXPECT_EQ(first.units_enumerated, second.units_enumerated);
  EXPECT_EQ(first.found, second.found);
  EXPECT_EQ(first.union_coverage, second.union_coverage);
}

TEST(AutoJoin, EmptyInputIsSafe) {
  const AutoJoinResult result = RunAutoJoin({}, AutoJoinOptions());
  EXPECT_TRUE(result.found.empty());
  EXPECT_DOUBLE_EQ(result.union_coverage, 0.0);
}

// ---- Auto-FuzzyJoin ----

TEST(FuzzyJoin, JoinsNearIdenticalColumns) {
  Column source("s", {"united airlines", "delta airways", "air canada",
                      "west jet", "lufthansa group"});
  Column target("t", {"United Airlines", "Delta Airways", "Air Canada",
                      "West Jet", "Lufthansa Group"});
  const FuzzyJoinResult result =
      RunAutoFuzzyJoin(source, target, FuzzyJoinOptions());
  PairSet golden;
  for (uint32_t i = 0; i < 5; ++i) golden.Add({i, i});
  const PrfMetrics m = EvaluatePairs(result.joined, golden);
  EXPECT_GE(m.recall, 0.99);
  EXPECT_GE(m.precision, 0.99);
}

TEST(FuzzyJoin, CannotBridgeStructuralTransformations) {
  // Email-style targets share almost no tokens with the names: similarity
  // joins miss what transformation joins recover (Table 3's story).
  Column source("s", {"bowling, michael", "gosgnach, simon"});
  Column target("t", {"mb1@uni.ca", "sg2@uni.ca"});
  const FuzzyJoinResult result =
      RunAutoFuzzyJoin(source, target, FuzzyJoinOptions());
  PairSet golden;
  golden.Add({0, 0});
  golden.Add({1, 1});
  const PrfMetrics m = EvaluatePairs(result.joined, golden);
  EXPECT_LE(m.recall, 0.5);
}

TEST(FuzzyJoin, EmptyColumnsAreSafe) {
  Column source("s");
  Column target("t");
  const FuzzyJoinResult result =
      RunAutoFuzzyJoin(source, target, FuzzyJoinOptions());
  EXPECT_TRUE(result.joined.empty());
}

}  // namespace
}  // namespace tj
