#include "match/row_matcher.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "text/ngram.h"

namespace tj {
namespace {

using RscoreMap =
    std::unordered_map<std::string_view, double, StringHash, StringEq>;

/// Appends the raw candidate occurrence sequence of one source row, in the
/// exact order the serial Algorithm 1 scan visits it: for each n-gram size
/// ascending, the representative gram's target posting list. Occurrences are
/// NOT deduplicated here — duplicates (the same target reached through
/// several n-gram sizes) must survive so the max_pairs budget check fires at
/// the same raw occurrence it would in a fused serial scan.
///
/// `source` is already in query case (the caller indexes and scans the same
/// lowered column), so the row view is read straight from the arena — the
/// scan allocates nothing per row.
void CollectRowOccurrences(const Column& source, uint32_t row,
                           const NgramInvertedIndex& target_index,
                           const RscoreMap& rscore,
                           const RowMatchOptions& options,
                           std::vector<uint32_t>* occurrences) {
  const std::string_view text = source.Get(row);
  for (size_t n = options.n0; n <= options.nmax && n <= text.size(); ++n) {
    // Representative n-gram of this size: argmax Rscore with a positive
    // target-side IRF. First occurrence wins ties (deterministic).
    std::string_view rep;
    double best = 0.0;
    ForEachNgram(text, n, [&](std::string_view gram) {
      const auto it = rscore.find(gram);
      if (it != rscore.end() && it->second > best) {
        best = it->second;
        rep = gram;
      }
    });
    if (rep.empty()) continue;
    const std::span<const uint32_t> targets = target_index.Lookup(rep);
    occurrences->insert(occurrences->end(), targets.begin(), targets.end());
  }
}

/// Index for `scan_column` (already in query case: lowered when the options
/// say lowercase) — from the cache when engaged, privately built otherwise.
/// The cache key carries the options' logical parameters (including the
/// original `lowercase` flag), while the physical build always runs with
/// lowercase=false on the pre-lowered column; both spellings produce
/// bit-identical buffers, so cache hits are indistinguishable from builds.
std::shared_ptr<const NgramInvertedIndex> AcquireScanIndex(
    const Column& scan_column, const RowMatchOptions& options,
    IndexCacheKey key, ThreadPool* pool) {
  key.n0 = static_cast<uint32_t>(options.n0);
  key.nmax = static_cast<uint32_t>(options.nmax);
  key.lowercase = options.lowercase;
  const auto build = [&] {
    return NgramInvertedIndex::Build(scan_column, options.n0, options.nmax,
                                     /*lowercase=*/false, pool);
  };
  if (options.index_cache != nullptr && key.engaged()) {
    return options.index_cache->GetOrBuild(key, build);
  }
  return std::make_shared<const NgramInvertedIndex>(build());
}

}  // namespace

std::shared_ptr<const NgramInvertedIndex> AcquireColumnIndex(
    const Column& column, const RowMatchOptions& options, IndexCacheKey key,
    ThreadPool* pool) {
  if (!options.lowercase) {
    return AcquireScanIndex(column, options, key, pool);
  }
  if (column.frozen()) {
    return AcquireScanIndex(column.LowercasedAscii(), options, key, pool);
  }
  const Column lowered = column.LowercasedAsciiCopy();
  return AcquireScanIndex(lowered, options, key, pool);
}

double InverseRowFrequency(const NgramInvertedIndex& index,
                           std::string_view gram) {
  const size_t df = index.Df(gram);
  if (df == 0) return 0.0;
  return 1.0 / static_cast<double>(df);
}

double Rscore(const NgramInvertedIndex& source_index,
              const NgramInvertedIndex& target_index, std::string_view gram) {
  return InverseRowFrequency(source_index, gram) *
         InverseRowFrequency(target_index, gram);
}

RowMatchResult FindJoinablePairs(const Column& source, const Column& target,
                                 const RowMatchOptions& options) {
  RowMatchResult result;

  // Lowercase at the column grain instead of per row: both index builds and
  // the row scan then read lowered views with zero per-row allocation
  // (indexing the lowered column with lowercase off is byte-identical to
  // lowering each row during the build). FROZEN columns — catalog entries,
  // loaded CSVs, datagen output — cache the lowered shadow on the column
  // (built once *ever* for columns matched repeatedly, e.g. across a corpus
  // run's pairs); unfrozen columns get a transient copy scoped to this
  // call, so a one-shot match does not retain a second arena.
  std::optional<Column> lowered_source;
  std::optional<Column> lowered_target;
  const Column* scan_source = &source;
  const Column* scan_target = &target;
  if (options.lowercase) {
    if (source.frozen()) {
      scan_source = &source.LowercasedAscii();
    } else {
      lowered_source.emplace(source.LowercasedAsciiCopy());
      scan_source = &*lowered_source;
    }
    if (target.frozen()) {
      scan_target = &target.LowercasedAscii();
    } else {
      lowered_target.emplace(target.LowercasedAsciiCopy());
      scan_target = &*lowered_target;
    }
  }

  // Cross-pair memoization: with an engaged key the index comes from (or
  // lands in) options.index_cache — shared across every pair and served
  // query touching this column. Cached or not, both sides hold a
  // shared_ptr for the scope, so an eviction mid-scan cannot free them.
  const std::shared_ptr<const NgramInvertedIndex> source_index_ptr =
      AcquireScanIndex(*scan_source, options, options.source_cache_key,
                       options.pool);
  const std::shared_ptr<const NgramInvertedIndex> target_index_ptr =
      AcquireScanIndex(*scan_target, options, options.target_cache_key,
                       options.pool);
  const NgramInvertedIndex& source_index = *source_index_ptr;
  const NgramInvertedIndex& target_index = *target_index_ptr;

  // Precomputed Rscore per distinct source-side gram: one target-index probe
  // per distinct gram, instead of two index probes per gram occurrence in
  // the per-row scans below. Every gram of every source row is in the
  // source index by construction, and grams with a zero target-side IRF
  // score 0 (they can never become representatives), so only positive
  // scores are stored and a lookup miss below means score 0. Keys are views
  // into source_index's own gram strings (stable for this scope), and the
  // score is the same IRF product Rscore() computes — not an algebraically
  // equivalent division, which could differ in the last ulp and flip the
  // first-occurrence tie-break.
  RscoreMap rscore;
  rscore.reserve(source_index.num_grams());
  source_index.ForEachGram(
      [&](std::string_view gram, std::span<const uint32_t> rows) {
        const double target_irf = InverseRowFrequency(target_index, gram);
        if (target_irf == 0.0) return;
        rscore.emplace(gram, (1.0 / static_cast<double>(rows.size())) *
                                 target_irf);
      });

  // Row scan. The expensive part — finding each row's representative grams —
  // is embarrassingly parallel: row shards on options.pool (one shard = the
  // serial case) collect their rows' raw occurrences into one flat buffer
  // with per-row end offsets. The cheap budget/dedup bookkeeping below is a
  // serial merge in row order, so the emitted pair list (including where a
  // max_pairs budget cuts it off) is identical at every shard count. Every
  // row's occurrences are computed even when a budget stops the merge early.
  struct ScanShard {
    std::vector<uint32_t> occurrences;
    std::vector<size_t> row_end;  // per row: end offset into occurrences
  };
  const std::vector<ScanShard> shards = ParallelShards(
      options.pool, source.size(), 4,
      [&](int /*worker*/, size_t begin, size_t end) {
        ScanShard shard;
        shard.row_end.reserve(end - begin);
        for (size_t row = begin; row < end; ++row) {
          CollectRowOccurrences(*scan_source, static_cast<uint32_t>(row),
                                target_index, rscore, options,
                                &shard.occurrences);
          shard.row_end.push_back(shard.occurrences.size());
        }
        return shard;
      });

  // Merge in row order, replaying the serial scan's emission semantics:
  // budget check before every raw occurrence (duplicates included), per-row
  // dedup (cross-row duplicates are impossible — the source row is part of
  // the pair), rows never scanned after exhaustion are not counted as
  // unmatched.
  //
  // Per-row dedup through a row-stamped flat table instead of a hashed
  // set: one uint32 slot per target row, "cleared" by the advancing stamp,
  // so the merge's inner loop does no hashing, no allocation, and no
  // per-row clear. Stamps are row+1 so row 0 differs from the
  // zero-initialized slots.
  std::vector<uint32_t> seen_stamp(scan_target->size(), 0);
  uint32_t row = 0;
  for (const ScanShard& shard : shards) {
    size_t begin = 0;
    for (const size_t end : shard.row_end) {
      bool any = false;
      const uint32_t stamp = row + 1;
      for (size_t i = begin; i < end; ++i) {
        if (options.max_pairs != 0 &&
            result.pairs.size() >= options.max_pairs) {
          return result;  // budget exhausted
        }
        const uint32_t target_row = shard.occurrences[i];
        if (seen_stamp[target_row] != stamp) {
          seen_stamp[target_row] = stamp;
          result.pairs.push_back(RowPair{row, target_row});
          any = true;
        }
      }
      if (!any) ++result.unmatched_source_rows;
      begin = end;
      ++row;
    }
  }
  return result;
}

bool PickSourceColumn(const Column& a, const Column& b) {
  return a.AverageLength() >= b.AverageLength();
}

Status ValidateOptions(const RowMatchOptions& options) {
  if (options.n0 == 0) {
    return Status::InvalidArgument("RowMatchOptions::n0 must be >= 1");
  }
  if (options.nmax < options.n0) {
    return Status::InvalidArgument(
        "RowMatchOptions::nmax must be >= n0");
  }
  if (options.nmax > 256) {
    // Grams longer than any realistic cell: an nmax this large is a typo
    // and would make the per-row representative scan quadratic in it.
    return Status::InvalidArgument("RowMatchOptions::nmax must be <= 256");
  }
  if (options.index_cache == nullptr &&
      (options.source_cache_key.engaged() ||
       options.target_cache_key.engaged())) {
    return Status::InvalidArgument(
        "RowMatchOptions carries engaged index-cache keys but no "
        "index_cache");
  }
  return Status::OK();
}

}  // namespace tj
