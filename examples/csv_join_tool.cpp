// csv_join_tool: a command-line front end for the whole pipeline — join two
// CSV files whose join columns are formatted differently.
//
//   csv_join_tool <left.csv> <left-column> <right.csv> <right-column>
//                 [flags]   (run without arguments for the flag list)
//
// The tool matches candidate rows with the n-gram matcher, discovers
// transformations, applies those above the support threshold, equi-joins,
// and writes the joined rows (all columns from both tables) as CSV. With
// --rules, the applied transformations are also saved in the textual rule
// format (reloadable via LoadTransformationsFromFile — the paper's §8
// transfer workflow). With --golden (a two-column CSV of 0-based
// left-row,right-row index pairs), the join is scored with P/R/F1.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "corpus/lsh_index.h"
#include "corpus/signature.h"
#include "join/join_engine.h"
#include "table/csv.h"
#include "table/spill_arena.h"

namespace {

const std::vector<std::string_view> kSynopsis = {
    "<left.csv> <left-column> <right.csv> <right-column> [flags]"};

struct Args {
  tj::JoinOptions join;
  tj::StorageOptions storage;
  int threads = 0;  // 0 = hardware concurrency
  std::string rules_path;
  std::string out_path;
  std::string golden_path;
  bool precheck = false;
};

std::vector<tj::flags::Flag> Flags(Args* a) {
  namespace flags = tj::flags;
  return {
      flags::Support(&a->join.min_join_support),
      flags::Number("--sample", "N",
                    "learn from at most N sampled candidate pairs (0 = all)",
                    &a->join.sample_pairs, 0, SIZE_MAX),
      flags::Threads(&a->threads),
      flags::Text("--rules", "FILE",
                  "save the applied transformations to FILE (rule format)",
                  &a->rules_path),
      flags::Out(&a->out_path),
      flags::Text("--golden", "FILE",
                  "score the join against FILE's 0-based left-row,right-row "
                  "pairs",
                  &a->golden_path),
      flags::SpillDir(&a->storage.spill_dir),
      flags::MemoryBudget(&a->storage.memory_budget_bytes),
      flags::Switch("--precheck",
                    "only report the join columns' sketch containment and "
                    "LSH collision; exit 0 if they collide, 3 if not",
                    &a->precheck),
      flags::Simd(),
      flags::Failpoints(),
  };
}

/// Reads the golden left-row,right-row index pairs, oriented as `pair`.
tj::Status ReadGolden(const std::string& path, bool left_is_source,
                      tj::TablePair* pair) {
  using namespace tj;
  TJ_ASSIGN_OR_RETURN(const Table golden, ReadCsvFile(path));
  if (golden.num_columns() < 2) {
    return Status::InvalidArgument(path + ": golden pairs need two columns");
  }
  for (size_t r = 0; r < golden.num_rows(); ++r) {
    uint32_t left_row = 0;
    uint32_t right_row = 0;
    if (!flags::ParseNumber(golden.column(0).Get(r), 0, UINT32_MAX,
                            &left_row) ||
        !flags::ParseNumber(golden.column(1).Get(r), 0, UINT32_MAX,
                            &right_row)) {
      return Status::InvalidArgument(StrPrintf(
          "%s: golden row %zu is not two row indexes", path.c_str(), r + 1));
    }
    pair->golden.Add(left_is_source ? RowPair{left_row, right_row}
                                    : RowPair{right_row, left_row});
  }
  return Status::OK();
}

/// The whole run after flag parsing; the value is the exit code.
tj::Result<int> Run(const Args& args, const std::vector<std::string>& names) {
  using namespace tj;
  const StorageOptions& storage = args.storage;
  if (storage.spill_enabled()) {
    TJ_RETURN_IF_ERROR(EnsureSpillDir(storage.spill_dir));
  }
  TJ_ASSIGN_OR_RETURN(Table left,
                      ReadCsvFile(names[0], CsvOptions(), storage));
  TJ_ASSIGN_OR_RETURN(Table right,
                      ReadCsvFile(names[2], CsvOptions(), storage));
  if (storage.memory_budget_bytes > 0) {
    // Drop ingest-dirtied pages: the join faults cells back in on demand,
    // so steady-state RSS tracks the matcher's working set, not the files.
    left.ReleasePages();
    right.ReleasePages();
  }
  TJ_ASSIGN_OR_RETURN(const size_t left_idx, left.ColumnIndex(names[1]));
  TJ_ASSIGN_OR_RETURN(const size_t right_idx, right.ColumnIndex(names[3]));

  if (args.precheck) {
    // The corpus pruning view of this pair, without running the join: the
    // same sketches TableCatalog::ComputeSignatures builds and the same
    // banded-collision test the LSH probe path uses to shortlist partners.
    const SignatureOptions sig_options;
    const ColumnSignature sig_left =
        ComputeColumnSignature(left.column(left_idx), sig_options);
    const ColumnSignature sig_right =
        ComputeColumnSignature(right.column(right_idx), sig_options);
    const double containment = EstimateNgramContainment(sig_left, sig_right);
    const bool collide =
        LshIndex::BandsCollide(LshOptions(), sig_left, sig_right);
    std::printf("precheck %s.%s vs %s.%s\n", names[0].c_str(),
                names[1].c_str(), names[2].c_str(), names[3].c_str());
    std::printf("  distinct 4-grams: %zu vs %zu\n",
                sig_left.distinct_ngrams, sig_right.distinct_ngrams);
    std::printf("  estimated jaccard: %.4f\n",
                EstimateJaccard(sig_left, sig_right));
    std::printf("  estimated containment: %.4f\n", containment);
    std::printf("  lsh bands collide (128x1): %s\n",
                collide ? "yes" : "no");
    std::printf("  verdict: %s\n",
                collide ? "worth joining (a corpus probe would surface "
                          "this pair)"
                        : "unpromising (a corpus probe would never score "
                          "this pair)");
    return collide ? 0 : 3;
  }

  // The more descriptive column becomes the transformation source (§4.2.1).
  TablePair pair;
  const bool left_is_source = PickSourceColumn(left.column(left_idx),
                                               right.column(right_idx));
  pair.source = std::move(left_is_source ? left : right);
  pair.target = std::move(left_is_source ? right : left);
  pair.source_join_column = left_is_source ? left_idx : right_idx;
  pair.target_join_column = left_is_source ? right_idx : left_idx;

  if (!args.golden_path.empty()) {
    TJ_RETURN_IF_ERROR(ReadGolden(args.golden_path, left_is_source, &pair));
  }

  // The run's one pool, shared by every phase of the join.
  ThreadPool pool(args.threads);
  JoinOptions join = args.join;
  join.discovery.pool = &pool;
  join.match_options.pool = &pool;
  const JoinResult result = TransformJoin(pair, join);

  std::printf("learning pairs: %zu, discovery: %.2fs\n",
              result.learning_pairs, result.discovery_seconds);
  std::printf("transformations applied (%zu):\n",
              result.applied_transformations.size());
  for (const auto& t : result.applied_transformations) {
    std::printf("  %s\n", t.c_str());
  }
  std::printf("joined rows: %zu\n", result.joined.size());
  if (!pair.golden.empty()) {
    std::printf("quality vs golden: %s\n",
                FormatPrf(result.metrics).c_str());
  }

  if (!args.rules_path.empty()) {
    std::vector<TransformationId> ids;
    for (const auto& ranked : result.discovery.cover.selected) {
      ids.push_back(ranked.id);
    }
    TJ_RETURN_IF_ERROR(SaveTransformationsToFile(
        args.rules_path, result.discovery.store, result.discovery.units, ids));
    std::printf("rules written to %s\n", args.rules_path.c_str());
  }

  if (!args.out_path.empty()) {
    Table joined("joined");
    // All source columns, then all target columns (prefixed on clash).
    for (const bool source_side : {true, false}) {
      const Table& side = source_side ? pair.source : pair.target;
      for (const Column& c : side.columns()) {
        std::string name = c.name();
        if (!source_side && joined.FindColumn(name) != nullptr) {
          name = "right." + name;
        }
        Column out(name);
        for (const RowPair& p : result.joined) {
          out.Append(c.Get(source_side ? p.source : p.target));
        }
        TJ_RETURN_IF_ERROR(joined.AddColumn(std::move(out)));
      }
    }
    TJ_RETURN_IF_ERROR(WriteCsvFile(joined, args.out_path));
    std::printf("joined table written to %s\n", args.out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tj;
  Args args;
  flags::FlagTable table(Flags(&args));
  std::vector<std::string> positional;
  Status parsed = table.Parse(argc, argv, &positional);
  if (parsed.ok() && positional.size() != 4) parsed = flags::Accept(false);
  if (parsed.ok()) parsed = ValidateOptions(args.join);
  if (parsed.ok()) parsed = ValidateOptions(args.storage);
  if (!parsed.ok()) return table.UsageError(argv[0], kSynopsis, parsed);
  const Result<int> exit_code = Run(args, positional);
  if (!exit_code.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 exit_code.status().ToString().c_str());
    return 1;
  }
  return *exit_code;
}
