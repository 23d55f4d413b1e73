#include "core/serialization.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace tj {
namespace {

/// Reads a field separator or the closing parenthesis of a unit.
Status Expect(TextScanner* in, std::string_view token) {
  if (in->Consume(token)) return Status::OK();
  return Status::InvalidArgument("expected '" + std::string(token) +
                                 "' at offset " + std::to_string(in->pos()));
}

/// One int32 unit argument, then the separator after it.
Result<int32_t> Int(TextScanner* in, std::string_view then) {
  TJ_ASSIGN_OR_RETURN(const int32_t value,
                      in->Number<int32_t>(INT32_MIN, INT32_MAX));
  TJ_RETURN_IF_ERROR(Expect(in, then));
  return value;
}

/// A quoted string that must hold exactly one character, then the
/// separator after it.
Result<char> Char(TextScanner* in, std::string_view then) {
  TJ_ASSIGN_OR_RETURN(const std::string s, in->ParseQuoted());
  if (s.size() != 1) {
    return Status::InvalidArgument("expected single-character delimiter");
  }
  TJ_RETURN_IF_ERROR(Expect(in, then));
  return s[0];
}

Result<Unit> ReadUnit(TextScanner* in) {
  in->SkipSpace();
  if (in->Consume("Literal(")) {
    TJ_ASSIGN_OR_RETURN(std::string str, in->ParseQuoted());
    TJ_RETURN_IF_ERROR(Expect(in, ")"));
    return Unit::MakeLiteral(std::move(str));
  }
  // Note: "SplitSubstr(" must be tried before "Split(".
  if (in->Consume("SplitSubstr(")) {
    TJ_ASSIGN_OR_RETURN(const char c, Char(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t i, Int(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t s, Int(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t e, Int(in, ")"));
    return Unit::MakeSplitSubstr(c, i, s, e);
  }
  if (in->Consume("Split(")) {
    TJ_ASSIGN_OR_RETURN(const char c, Char(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t i, Int(in, ")"));
    return Unit::MakeSplit(c, i);
  }
  if (in->Consume("Substr(")) {
    TJ_ASSIGN_OR_RETURN(const int32_t s, Int(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t e, Int(in, ")"));
    return Unit::MakeSubstr(s, e);
  }
  if (in->Consume("TwoCharSplitSubstr(")) {
    TJ_ASSIGN_OR_RETURN(const char c1, Char(in, ","));
    TJ_ASSIGN_OR_RETURN(const char c2, Char(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t i, Int(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t s, Int(in, ","));
    TJ_ASSIGN_OR_RETURN(const int32_t e, Int(in, ")"));
    return Unit::MakeTwoCharSplitSubstr(c1, c2, i, s, e);
  }
  return Status::InvalidArgument("unknown unit at offset " +
                                 std::to_string(in->pos()));
}

}  // namespace

Result<Unit> ParseUnit(std::string_view text) {
  TextScanner in(text);
  TJ_ASSIGN_OR_RETURN(Unit unit, ReadUnit(&in));
  in.SkipSpace();
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing characters after unit");
  }
  return unit;
}

Result<std::vector<UnitId>> ParseTransformation(std::string_view text,
                                                UnitInterner* interner) {
  TextScanner in(text);
  in.SkipSpace();
  if (!in.Consume("<")) {
    return Status::InvalidArgument("transformation must start with '<'");
  }
  std::vector<UnitId> ids;
  in.SkipSpace();
  if (!in.Consume(">")) {
    for (;;) {
      TJ_ASSIGN_OR_RETURN(const Unit unit, ReadUnit(&in));
      ids.push_back(interner->Intern(unit));
      in.SkipSpace();
      if (in.Consume(">")) break;
      if (!in.Consume(",")) {
        return Status::InvalidArgument("expected ',' or '>'");
      }
    }
  }
  in.SkipSpace();
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing characters after '>'");
  }
  std::vector<UnitId> normalized;
  std::string fused;
  Transformation::NormalizeInto(ids, interner, &normalized, &fused);
  return normalized;
}

std::string SerializeTransformations(
    const TransformationStore& store, const UnitInterner& units,
    const std::vector<TransformationId>& ids) {
  std::string out = "# transform-join rule set\n";
  for (TransformationId id : ids) {
    out += store.Get(id).ToString(units);
    out += "\n";
  }
  return out;
}

Result<TransformationSet> ParseTransformationSet(std::string_view text) {
  TransformationSet set;
  size_t begin = 0;
  size_t line_number = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = TrimAscii(text.substr(begin, end - begin));
    ++line_number;
    begin = end + 1;
    if (line.empty() || line[0] == '#') {
      if (end == text.size()) break;
      continue;
    }
    auto t = ParseTransformation(line, &set.units);
    if (!t.ok()) {
      return Status::InvalidArgument(
          StrPrintf("line %zu: %s", line_number, t.status().message().c_str()));
    }
    const auto [id, fresh] = set.store.Intern(*t);
    if (fresh) set.ids.push_back(id);
    if (end == text.size()) break;
  }
  return set;
}

Status SaveTransformationsToFile(const std::string& path,
                                 const TransformationStore& store,
                                 const UnitInterner& units,
                                 const std::vector<TransformationId>& ids) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << SerializeTransformations(store, units, ids);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<TransformationSet> LoadTransformationsFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseTransformationSet(buf.str());
}

}  // namespace tj
