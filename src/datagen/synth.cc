#include "datagen/synth.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/transformation.h"

namespace tj {
namespace {

constexpr std::string_view kRowAlphabet =
    "abcdefghijklmnopqrstuvwxyz0123456789";
constexpr std::string_view kLiteralAlphabet =
    "abcdefghijklmnopqrstuvwxyz0123456789-._ /";

/// Draws one placeholder unit with parameters valid for any row of at least
/// `min_len` characters and output length >= 4 (so row matching has n-grams
/// to work with, mirroring the paper's joinable-row assumption).
Unit DrawPlaceholderUnit(Rng* rng, int min_len) {
  switch (rng->Uniform(3)) {
    case 0: {  // Substr(s, e), 4 <= e - s <= 10, e <= min_len
      const int max_start = std::max(0, min_len - 4);
      const int s = static_cast<int>(rng->UniformInt(0, max_start));
      const int max_len = std::min(10, min_len - s);
      const int len = static_cast<int>(rng->UniformInt(4, std::max(4, max_len)));
      return Unit::MakeSubstr(s, std::min(s + len, min_len));
    }
    case 1: {  // Split(c, i), i in {0, 1}
      const char c = rng->PickChar(kRowAlphabet);
      return Unit::MakeSplit(c, static_cast<int32_t>(rng->Uniform(2)));
    }
    default: {  // SplitSubstr(c, i, s, e), short slice of a piece
      const char c = rng->PickChar(kRowAlphabet);
      const auto i = static_cast<int32_t>(rng->Uniform(2));
      const auto s = static_cast<int32_t>(rng->Uniform(3));
      const auto len = static_cast<int32_t>(rng->UniformInt(4, 6));
      return Unit::MakeSplitSubstr(c, i, s, s + len);
    }
  }
}

/// True when every unit of `t` succeeds on `row` and every placeholder unit
/// yields a non-empty output.
bool Applies(const Transformation& t, std::string_view row,
             const UnitInterner& units) {
  for (UnitId id : t.units()) {
    const Unit& u = units.Get(id);
    const auto out = u.Eval(row);
    if (!out.has_value()) return false;
    if (!u.IsConstant() && out->empty()) return false;
  }
  return true;
}

/// Mutates `row` (length unchanged) so every split-based unit of `t` has
/// enough delimiter occurrences with long-enough pieces. Requirements are
/// grouped per delimiter character so units sharing a delimiter compose.
void ForceApplicability(const Transformation& t, std::string* row, Rng* rng,
                        const UnitInterner& units) {
  struct Requirement {
    std::vector<int32_t> min_piece_len;  // indexed by piece
  };
  std::vector<std::pair<char, Requirement>> reqs;
  auto req_for = [&](char c) -> Requirement& {
    for (auto& [rc, r] : reqs) {
      if (rc == c) return r;
    }
    reqs.emplace_back(c, Requirement{});
    return reqs.back().second;
  };
  bool is_delim[256] = {false};
  for (UnitId id : t.units()) {
    const Unit& u = units.Get(id);
    if (u.kind != UnitKind::kSplit && u.kind != UnitKind::kSplitSubstr) {
      continue;
    }
    Requirement& r = req_for(u.c1);
    is_delim[static_cast<unsigned char>(u.c1)] = true;
    if (r.min_piece_len.size() <= static_cast<size_t>(u.index)) {
      r.min_piece_len.resize(static_cast<size_t>(u.index) + 1, 1);
    }
    const int32_t need = (u.kind == UnitKind::kSplitSubstr) ? u.end : 1;
    r.min_piece_len[static_cast<size_t>(u.index)] =
        std::max(r.min_piece_len[static_cast<size_t>(u.index)], need);
  }
  if (reqs.empty()) return;

  // Replace every existing delimiter occurrence with a non-delimiter filler
  // so the piece layout is fully controlled below.
  std::string filler;
  for (char c : kRowAlphabet) {
    if (!is_delim[static_cast<unsigned char>(c)]) filler.push_back(c);
  }
  for (char& c : *row) {
    if (is_delim[static_cast<unsigned char>(c)]) c = rng->PickChar(filler);
  }

  // Place each delimiter char so its pieces 0..k-1 meet their minimum
  // lengths; the final piece is the (long) tail. Positions already used by
  // another delimiter are skipped forward.
  std::vector<bool> used(row->size(), false);
  for (const auto& [c, r] : reqs) {
    size_t pos = 0;
    // All pieces except the last need a terminating delimiter.
    for (size_t k = 0; k + 1 < r.min_piece_len.size() || k == 0; ++k) {
      if (k >= r.min_piece_len.size()) break;
      const bool is_last = (k + 1 == r.min_piece_len.size());
      pos += static_cast<size_t>(r.min_piece_len[k]);
      if (is_last) break;  // tail piece: no delimiter after it
      while (pos < row->size() && used[pos]) ++pos;
      if (pos >= row->size()) break;  // row too short; caller retries
      (*row)[pos] = c;
      used[pos] = true;
      ++pos;
    }
  }
}

}  // namespace

SynthOptions SynthN(size_t rows, uint64_t seed) {
  SynthOptions o;
  o.num_rows = rows;
  o.min_len = 20;
  o.max_len = 35;
  o.seed = seed;
  return o;
}

SynthOptions SynthNL(size_t rows, uint64_t seed) {
  SynthOptions o;
  o.num_rows = rows;
  o.min_len = 40;
  o.max_len = 70;
  o.seed = seed;
  return o;
}

SynthDataset GenerateSynth(const SynthOptions& options) {
  SynthDataset ds;
  Rng rng(options.seed);

  // Ground-truth transformations: p placeholders + l literals, shuffled.
  std::string fused;
  for (int t = 0; t < options.num_transformations; ++t) {
    std::vector<UnitId> ids;
    for (int p = 0; p < options.placeholders_per_transformation; ++p) {
      ids.push_back(ds.units.Intern(DrawPlaceholderUnit(&rng, options.min_len)));
    }
    const auto num_literals = static_cast<int>(rng.UniformInt(
        options.min_literal_units, options.max_literal_units));
    for (int l = 0; l < num_literals; ++l) {
      const auto len = static_cast<size_t>(rng.UniformInt(
          options.literal_min_len, options.literal_max_len));
      ids.push_back(ds.units.Intern(
          Unit::MakeLiteral(rng.RandomString(len, kLiteralAlphabet))));
    }
    rng.Shuffle(&ids);
    Transformation::NormalizeInto(ids, &ds.units,
                                  &ds.transformations.emplace_back(), &fused);
  }

  // Source rows + targets.
  std::vector<std::string> sources;
  std::vector<std::string> targets;
  sources.reserve(options.num_rows);
  targets.reserve(options.num_rows);
  for (size_t r = 0; r < options.num_rows; ++r) {
    const auto rule = static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(options.num_transformations)));
    const Transformation t(ds.transformations[rule]);
    std::string row;
    bool ok = false;
    for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
      const auto len = static_cast<size_t>(
          rng.UniformInt(options.min_len, options.max_len));
      row = rng.RandomString(len, kRowAlphabet);
      ok = Applies(t, row, ds.units);
      if (!ok && attempt >= 8) {
        ForceApplicability(t, &row, &rng, ds.units);
        ok = Applies(t, row, ds.units);
      }
    }
    TJ_CHECK(ok);
    const auto target = t.Apply(row, ds.units);
    TJ_CHECK(target.has_value() && !target->empty());
    sources.push_back(std::move(row));
    targets.push_back(*target);
    ds.row_rule.push_back(rule);
  }

  // Assemble the pair; shuffle target order and record golden pairs.
  std::vector<uint32_t> order(options.num_rows);
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);  // order[j] = source row whose target lands at j

  // Cells are appended straight into the column arenas (no intermediate
  // per-cell strings for the shuffled target order), and the finished tables
  // are frozen: every ExamplePair view handed out downstream stays valid for
  // the dataset's lifetime.
  size_t source_bytes = 0;
  for (const std::string& s : sources) source_bytes += s.size();
  size_t target_bytes = 0;
  for (const std::string& t : targets) target_bytes += t.size();

  Column source_column("value");
  source_column.Reserve(options.num_rows);
  source_column.ReserveChars(source_bytes);
  for (const std::string& s : sources) source_column.Append(s);
  Column target_column("value");
  target_column.Reserve(options.num_rows);
  target_column.ReserveChars(target_bytes);
  for (uint32_t j = 0; j < order.size(); ++j) {
    target_column.Append(targets[order[j]]);
  }

  Table source_table("synth-source");
  TJ_CHECK(source_table.AddColumn(std::move(source_column)).ok());
  source_table.Freeze();
  Table target_table("synth-target");
  TJ_CHECK(target_table.AddColumn(std::move(target_column)).ok());
  target_table.Freeze();

  ds.pair.name = StrPrintf("Synth-%zu%s", options.num_rows,
                           options.min_len >= 40 ? "L" : "");
  ds.pair.source = std::move(source_table);
  ds.pair.target = std::move(target_table);
  ds.pair.source_join_column = 0;
  ds.pair.target_join_column = 0;
  for (uint32_t j = 0; j < order.size(); ++j) {
    ds.pair.golden.Add(RowPair{order[j], j});
  }
  return ds;
}

}  // namespace tj
