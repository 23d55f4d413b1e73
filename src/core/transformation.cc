#include "core/transformation.h"

#include <algorithm>

#include "common/hash.h"

namespace tj {

void Transformation::NormalizeInto(std::span<const UnitId> units,
                                   UnitInterner* interner,
                                   std::vector<UnitId>* out,
                                   std::string* fused) {
  out->clear();
  const size_t n = units.size();
  // Literal runs are tracked as [run_begin, i) over the input so the common
  // single-literal run keeps its id with no string work at all.
  size_t run_begin = 0;
  size_t run_len = 0;
  auto flush = [&](size_t end) {
    if (run_len == 0) return;
    if (run_len == 1) {
      out->push_back(units[run_begin]);
    } else {
      fused->clear();
      for (size_t j = run_begin; j < end; ++j) {
        *fused += interner->Get(units[j]).literal;
      }
      out->push_back(interner->Intern(Unit::MakeLiteral(*fused)));
    }
    run_len = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    if (interner->Get(units[i]).kind == UnitKind::kLiteral) {
      if (run_len == 0) run_begin = i;
      ++run_len;
    } else {
      flush(i);
      out->push_back(units[i]);
    }
  }
  flush(n);
}

std::optional<std::string> Transformation::Apply(
    std::string_view source, const UnitInterner& interner) const {
  std::string out;
  for (UnitId id : units_) {
    auto piece = interner.Get(id).Eval(source);
    if (!piece.has_value()) return std::nullopt;
    out.append(*piece);
  }
  return out;
}

bool Transformation::Covers(std::string_view source, std::string_view target,
                            const UnitInterner& interner) const {
  size_t offset = 0;
  for (UnitId id : units_) {
    auto piece = interner.Get(id).Eval(source);
    if (!piece.has_value()) return false;
    if (piece->size() > target.size() - offset) return false;
    if (target.compare(offset, piece->size(), *piece) != 0) return false;
    offset += piece->size();
  }
  return offset == target.size();
}

size_t Transformation::NumPlaceholderUnits(const UnitInterner& interner) const {
  size_t n = 0;
  for (UnitId id : units_) {
    if (!interner.Get(id).IsConstant()) ++n;
  }
  return n;
}

std::string Transformation::ToString(const UnitInterner& interner) const {
  std::string out = "<";
  for (size_t i = 0; i < units_.size(); ++i) {
    if (i > 0) out += ", ";
    out += interner.Get(units_[i]).ToString();
  }
  out += ">";
  return out;
}

uint64_t Transformation::Hash() const {
  uint64_t h = Mix64(0x7472616e73ULL);  // "trans"
  for (UnitId id : units_) h = HashCombine(h, id);
  return h;
}

bool Transformation::operator==(const Transformation& other) const {
  return std::ranges::equal(units_, other.units_);
}

}  // namespace tj
