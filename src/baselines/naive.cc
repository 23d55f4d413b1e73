#include "baselines/naive.h"

#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "core/stats.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

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

}  // namespace

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

}  // namespace tj
