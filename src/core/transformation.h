// Transformation (paper §2, Definition 2): a sequence of transformation
// units; applying it concatenates each unit's output on the same input.

#ifndef TJ_CORE_TRANSFORMATION_H_
#define TJ_CORE_TRANSFORMATION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/unit_interner.h"

namespace tj {

/// A non-owning view of a sequence of interned units. The units live either
/// in a TransformationStore (Get() hands out views into its arena) or in a
/// caller's std::vector<UnitId>; the view must not outlive them. Sequences
/// meant for dedup are normalized first (NormalizeInto), so structurally
/// identical transformations compare and hash equal.
class Transformation {
 public:
  Transformation() = default;
  explicit Transformation(std::span<const UnitId> units) : units_(units) {}

  /// Allocation-free normalization into caller-owned scratch: `out` receives
  /// `units` with adjacent Literal units fused into one (<L'.', L' '>
  /// becomes <L'. '>), `fused` is string scratch for literal runs. A run of
  /// a single literal keeps its id without re-interning (the fused text IS
  /// that unit's text, so interning could only return the same id); only
  /// genuine multi-literal fusions intern.
  static void NormalizeInto(std::span<const UnitId> units,
                            UnitInterner* interner, std::vector<UnitId>* out,
                            std::string* fused);

  std::span<const UnitId> units() const { return units_; }
  size_t size() const { return units_.size(); }
  bool empty() const { return units_.empty(); }

  /// Applies every unit to `source` and concatenates the outputs; nullopt if
  /// any unit fails.
  std::optional<std::string> Apply(std::string_view source,
                                   const UnitInterner& interner) const;

  /// True iff Apply(source) == target, computed as a streaming prefix match
  /// without allocating the output.
  bool Covers(std::string_view source, std::string_view target,
              const UnitInterner& interner) const;

  /// Number of non-constant units — the transformation "length" used by the
  /// paper's fitness discussion (§4.1.2).
  size_t NumPlaceholderUnits(const UnitInterner& interner) const;

  /// `<Substr(0,7), Literal('. '), Substr(14,21)>`
  std::string ToString(const UnitInterner& interner) const;

  uint64_t Hash() const;

  /// Element-wise: two views are equal when their unit sequences are.
  bool operator==(const Transformation& other) const;

 private:
  std::span<const UnitId> units_;
};

}  // namespace tj

#endif  // TJ_CORE_TRANSFORMATION_H_
