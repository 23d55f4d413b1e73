#include "join/join_engine.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/example.h"

namespace tj {
namespace {

/// Uniform sample without replacement of `k` of the `n` pairs (keeps input
/// order); identity when k >= n or k == 0.
std::vector<RowPair> SamplePairs(const std::vector<RowPair>& pairs, size_t k,
                                 uint64_t seed) {
  if (k == 0 || pairs.size() <= k) return pairs;
  // Reservoir-free approach: shuffle index array, take the first k, restore
  // input order for determinism of downstream row iteration.
  std::vector<uint32_t> idx(pairs.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(seed);
  rng.Shuffle(&idx);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  std::vector<RowPair> out;
  out.reserve(k);
  for (uint32_t i : idx) out.push_back(pairs[i]);
  return out;
}

}  // namespace

JoinResult TransformJoin(const TablePair& pair, const JoinOptions& options) {
  return TransformJoinColumns(pair.SourceColumn(), pair.TargetColumn(),
                              &pair.golden, options);
}

JoinResult TransformJoinColumns(const Column& source, const Column& target,
                                const PairSet* golden,
                                const JoinOptions& options) {
  JoinResult result;

  // Step 1: candidate row pairs for learning.
  std::vector<RowPair> candidates;
  if (options.matching == MatchingMode::kGolden) {
    if (golden != nullptr) candidates = golden->pairs();
  } else {
    candidates =
        FindJoinablePairs(source, target, options.match_options).pairs;
  }
  candidates =
      SamplePairs(candidates, options.sample_pairs, options.sample_seed);
  result.learning_pairs = candidates.size();
  if (candidates.size() < options.min_learning_pairs) return result;

  // Step 2: discover transformations on the learning pairs.
  const std::vector<ExamplePair> examples =
      MakeExamplePairs(source, target, candidates);
  Stopwatch discovery_watch;
  result.discovery = DiscoverTransformations(examples, options.discovery);
  result.discovery_seconds = discovery_watch.ElapsedSeconds();

  // Step 3: keep covering-set transformations above the join support.
  const auto min_support = static_cast<uint32_t>(std::ceil(
      options.min_join_support * static_cast<double>(examples.size())));
  std::vector<TransformationId> applied;
  for (const RankedTransformation& ranked : result.discovery.cover.selected) {
    if (ranked.coverage >= min_support && ranked.coverage >= 1) {
      applied.push_back(ranked.id);
      result.applied_transformations.push_back(
          result.discovery.store.Get(ranked.id).ToString(
              result.discovery.units));
    }
  }

  // Step 4: hash the target column, transform every source row, equi-join.
  result.joined = ApplyAndEquiJoin(source, target, result.discovery.store,
                                   result.discovery.units, applied);
  if (golden != nullptr) {
    result.metrics = EvaluatePairs(result.joined, *golden);
  }
  return result;
}

std::vector<RowPair> ApplyAndEquiJoin(
    const Column& source, const Column& target,
    const TransformationStore& store, const UnitInterner& units,
    const std::vector<TransformationId>& ids) {
  std::unordered_map<std::string, std::vector<uint32_t>, StringHash, StringEq>
      target_rows;
  for (uint32_t row = 0; row < target.size(); ++row) {
    target_rows[std::string(target.Get(row))].push_back(row);
  }
  PairSet joined;
  for (uint32_t row = 0; row < source.size(); ++row) {
    const std::string_view value = source.Get(row);
    for (TransformationId id : ids) {
      const auto transformed = store.Get(id).Apply(value, units);
      if (!transformed.has_value()) continue;
      auto it = target_rows.find(*transformed);
      if (it == target_rows.end()) continue;
      for (uint32_t target_row : it->second) {
        joined.Add(RowPair{row, target_row});
      }
    }
  }
  return joined.pairs();
}

Status ValidateOptions(const JoinOptions& options) {
  TJ_RETURN_IF_ERROR(ValidateOptions(options.match_options));
  TJ_RETURN_IF_ERROR(ValidateOptions(options.discovery));
  if (!(options.min_join_support >= 0.0) ||
      !(options.min_join_support <= 1.0)) {
    return Status::InvalidArgument(
        "JoinOptions::min_join_support must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace tj
