// Synthetic dataset generator (paper §6.1): tables of random alphanumeric
// source rows where each target row is produced by applying one of a small
// set of randomly-drawn ground-truth transformations (p placeholders, 1-2
// literal blocks). Synth-N uses row lengths in [20,35]; Synth-NL in [40,70].

#ifndef TJ_DATAGEN_SYNTH_H_
#define TJ_DATAGEN_SYNTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/unit_interner.h"
#include "table/table_pair.h"

namespace tj {

struct SynthOptions {
  size_t num_rows = 50;
  /// Source row length range (inclusive): [20,35] for Synth-N, [40,70] for
  /// Synth-NL.
  int min_len = 20;
  int max_len = 35;
  /// Transformations covering a source table (3 in the paper).
  int num_transformations = 3;
  /// Placeholder units per transformation (p = 2 in the paper).
  int placeholders_per_transformation = 2;
  /// Literal units per transformation, chosen uniformly in this range.
  int min_literal_units = 1;
  int max_literal_units = 2;
  /// Literal block length range ([1,5] in the paper).
  int literal_min_len = 1;
  int literal_max_len = 5;
  uint64_t seed = 1;
};

/// Convenience constructors for the paper's named configurations.
SynthOptions SynthN(size_t rows, uint64_t seed);
SynthOptions SynthNL(size_t rows, uint64_t seed);

struct SynthDataset {
  TablePair pair;
  /// Ground-truth transformations as normalized unit sequences (units
  /// interned in `units`).
  UnitInterner units;
  std::vector<std::vector<UnitId>> transformations;
  /// transformations index used to produce each source row's target.
  std::vector<size_t> row_rule;
};

/// Generates a source table, ground-truth transformations, and the target
/// table (target row order shuffled; golden pairs recorded).
SynthDataset GenerateSynth(const SynthOptions& options);

}  // namespace tj

#endif  // TJ_DATAGEN_SYNTH_H_
