// corpus_ingest: live maintenance of a large catalog of small tables.
//
// Set-up builds the catalog, sketches it and builds an
// IncrementalPairPruner (the shipped full-scan path; LSH off). The timed
// part repeats a seeded cycle of single-table operations, mostly adds and
// some updates; each one is AddTable/UpdateTable + ComputeSignatures +
// OnTableAdded/OnTableUpdated + Snapshot(), the steps that make one change
// visible in the shortlist. Between cycles the cycle's added tables are
// removed again (untimed), so every cycle starts from a catalog of the
// same size and an operation costs the same however many cycles a run gets
// through. No pair is evaluated, so core, match and index do no work here.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tj;

/// Catalog size at the start of the timed part, and the shape of its
/// tables: single-purpose noise tables plus joinable pairs, all small.
constexpr size_t kInitialNoiseTables = 1100;
constexpr size_t kInitialJoinablePairs = 50;
constexpr size_t kRows = 12;
/// Operations per cycle, and how many of them update an existing noise
/// table (the rest add one of kAddNoiseTables + 2 * kAddJoinablePairs new
/// tables).
constexpr size_t kCycleOps = 60;
constexpr size_t kCycleUpdates = 9;
constexpr size_t kAddNoiseTables = 50;
constexpr size_t kAddJoinablePairs = 5;

struct Op {
  bool update = false;
  Table table;  // added table, or the new contents of the updated one
};

struct Workload {
  std::vector<Table> initial;
  std::vector<Op> ops;
};

SynthCorpus Generate(size_t pairs, size_t noise, uint64_t seed,
                     const char* prefix) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = pairs;
  options.num_noise_tables = noise;
  options.rows = kRows;
  options.seed = seed;
  options.name_prefix = prefix;
  options.keep_row_ground_truth = false;
  return GenerateSynthCorpus(options);
}

Workload GenerateWorkload(uint64_t seed) {
  Workload w;
  SynthCorpus initial =
      Generate(kInitialJoinablePairs, kInitialNoiseTables, seed * 31 + 1, "i");
  SynthCorpus adds =
      Generate(kAddJoinablePairs, kAddNoiseTables, seed * 31 + 2, "a");
  SynthCorpus updates = Generate(0, kCycleOps, seed * 31 + 3, "u");
  std::vector<std::string> noise_names;
  for (const Table& t : initial.tables) {
    if (t.name().find("noise") != std::string::npos) {
      noise_names.push_back(t.name());
    }
  }
  w.initial = std::move(initial.tables);

  // Exactly kCycleUpdates updates per cycle, at seeded positions: updates
  // cost more than adds, so a varying count would move p90.
  Rng rng(seed * 31 + 4);
  std::vector<int> is_update(kCycleOps, 0);
  std::fill(is_update.begin(), is_update.begin() + kCycleUpdates, 1);
  rng.Shuffle(&is_update);
  size_t next_add = 0, next_update = 0;
  for (const int update : is_update) {
    Op op;
    op.update = update != 0;
    if (op.update) {
      op.table = std::move(updates.tables[next_update++]);
      op.table.set_name(noise_names[rng.Uniform(noise_names.size())]);
    } else {
      op.table = std::move(adds.tables[next_add++]);
    }
    w.ops.push_back(std::move(op));
  }
  return w;
}

bool SameShortlist(const PairPrunerResult& x, const PairPrunerResult& y) {
  if (x.total_pairs != y.total_pairs || x.pruned_pairs != y.pruned_pairs ||
      x.shortlist.size() != y.shortlist.size()) {
    return false;
  }
  for (size_t i = 0; i < x.shortlist.size(); ++i) {
    const ColumnPairCandidate& a = x.shortlist[i];
    const ColumnPairCandidate& b = y.shortlist[i];
    if (!(a.a == b.a) || !(a.b == b.b) || a.a_is_source != b.a_is_source ||
        std::memcmp(&a.score, &b.score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Golden pairs (value columns of NN-src / NN-tgt tables, both live) the
/// shortlist holds, and how many there are.
std::pair<double, double> GoldenShortlisted(const TableCatalog& catalog,
                                            const PairPrunerResult& shortlist) {
  double found = 0, total = 0;
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    if (!catalog.IsLive(t)) continue;
    const std::string& name = catalog.table_name(t);
    if (name.size() < 4 || name.compare(name.size() - 4, 4, "-src") != 0) {
      continue;
    }
    const auto target =
        catalog.TableIndex(name.substr(0, name.size() - 4) + "-tgt");
    if (!target.ok()) continue;
    total += 1;
    const ColumnRef a{std::min(t, *target), 0};
    const ColumnRef b{std::max(t, *target), 0};
    for (const ColumnPairCandidate& c : shortlist.shortlist) {
      if (c.a == a && c.b == b) {
        found += 1;
        break;
      }
    }
  }
  return {found, total};
}

}  // namespace

Outcome RunCorpusIngest(const Args& args, double seconds, bool traced) {
  Outcome out;
  SetTracing(traced);
  ThreadPool pool(kThreads);
  const PairPrunerOptions pruner_options;  // shipped defaults, LSH off

  // Set-up: generate, fill, sketch and build the pruner, repeated; the
  // last repetition's catalog and pruner are the ones maintained.
  std::vector<double> setup_s, fill_ms;
  Workload workload;
  TableCatalog catalog;
  IncrementalPairPruner pruner(pruner_options);
  for (int r = 0; r < kSetupRepeats; ++r) {
    catalog = TableCatalog();
    pruner = IncrementalPairPruner(pruner_options);
    const int64_t start = NowNs();
    workload = GenerateWorkload(args.seed);
    const int64_t fill_start = NowNs();
    {
      Span span("table.fill", 0);
      for (const Table& table : workload.initial) {
        TJ_CHECK(catalog.AddTable(table).ok());
      }
    }
    fill_ms.push_back(static_cast<double>(NowNs() - fill_start) / 1e6);
    {
      Span span("corpus.sketch", 0);
      catalog.ComputeSignatures(&pool);
    }
    {
      Span span("corpus.prune", 0);
      pruner.Rebuild(catalog, &pool);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  ClearSpans();

  // One cycle of operations; first removes the previous cycle's adds.
  std::vector<double> op_ms;
  PairPrunerResult snapshot;
  std::vector<std::string> added;
  uint64_t cycle_scored = 0;
  const auto run_cycle = [&](size_t cycle) {
    for (const std::string& name : added) {
      const Result<uint32_t> id = catalog.TableIndex(name);
      TJ_CHECK(id.ok() && catalog.RemoveTable(name).ok());
      pruner.OnTableRemoved(*id);
    }
    added.clear();
    cycle_scored = 0;
    for (size_t i = 0; i < workload.ops.size(); ++i) {
      const Op& op = workload.ops[i];
      const uint64_t request = cycle * kCycleOps + i + 1;
      Table table = op.table;
      const int64_t start = NowNs();
      Span op_span("ingest.op", request);
      Result<uint32_t> id = 0u;
      {
        Span span("table.add", request);
        id = op.update ? catalog.UpdateTable(std::move(table))
                       : catalog.AddTable(std::move(table));
      }
      ++out.attempted;
      if (!id.ok()) {
        ++out.failed;
        continue;
      }
      {
        Span span("corpus.sketch", request);
        catalog.ComputeSignatures(&pool);
      }
      {
        Span span("corpus.prune", request);
        if (op.update) {
          pruner.OnTableUpdated(catalog, *id, &pool);
        } else {
          pruner.OnTableAdded(catalog, *id, &pool);
        }
      }
      {
        Span span("corpus.snapshot", request);
        snapshot = pruner.Snapshot();
      }
      op_span.End();
      op_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      if (!op.update) added.push_back(op.table.name());
      cycle_scored += pruner.last_scored_pairs();
    }
  };

  // One untimed warm-up cycle: the first cycle after a fresh Rebuild runs
  // ~10% faster than every later one (the pruner's pair map has not yet
  // been churned by removals).
  SetTracing(false);
  run_cycle(0);
  const uint64_t counted_scored = cycle_scored;
  const uint64_t counted_shortlist = snapshot.shortlist.size();
  op_ms.clear();
  out.attempted = out.failed = 0;
  SetTracing(traced);

  // Whole cycles until the deadline, at least enough for p90.
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t cycle = 1; NowNs() < deadline || op_ms.size() < kMinTailRun;
       ++cycle) {
    run_cycle(cycle);
    if (out.failed > 0) break;
  }
  const std::vector<SpanRecord> spans = CollectSpans();
  SetTracing(false);

  // The incrementally maintained shortlist must equal a from-scratch one.
  const PairPrunerResult scratch =
      ShortlistPairs(catalog, pruner_options, &pool);
  if (!SameShortlist(snapshot, scratch) ||
      !SameShortlist(pruner.Snapshot(), scratch)) {
    out.gate_failures.push_back(
        "corpus_ingest: incremental snapshot differs from a from-scratch "
        "ShortlistPairs");
  }

  double total_ms = 0;
  for (double ms : op_ms) total_ms += ms;
  const auto [golden_found, golden_total] =
      GoldenShortlisted(catalog, snapshot);
  Metrics& e = out.end_to_end;
  e["throughput_per_s"] = {
      total_ms > 0 ? static_cast<double>(op_ms.size()) / (total_ms / 1e3) : 0.0,
      "1/s"};
  e["p50_ms"] = {Median(op_ms), "ms"};
  e["p90_ms"] = {Percentile(op_ms, kTailPercentile), "ms"};
  e["slo_share"] = {ShareWithin(op_ms, kIngestOpLimitMs, out.failed), "share"};
  e["golden_recall"] = {golden_total > 0 ? golden_found / golden_total : 0.0,
                        "share"};
  // Every operation here is a mutation; it is visible once Snapshot()
  // returns.
  e["mutation_p50_ms"] = e["p50_ms"];
  e["setup_s"] = {Median(setup_s), "s"};

  out.counters["core.generated"] = 0;
  out.counters["core.unit_evals"] = 0;
  out.counters["core.full_evaluations"] = 0;
  out.counters["corpus.scored_pairs"] = counted_scored;
  out.counters["index.postings"] = 0;
  out.counters["match.candidate_pairs"] = 0;
  out.counters["corpus.shortlist_pairs"] = counted_shortlist;

  Metrics& l = out.layers;
  for (const auto& [name, value] : out.counters) {
    l[name] = {static_cast<double>(value), "count"};
  }
  if (traced) {
    AddSelfTimeMetrics(spans,
                       {"table.add", "corpus.sketch", "corpus.prune",
                        "corpus.snapshot"},
                       static_cast<double>(op_ms.size()), &l);
  }
  l["table.fill_ms"] = {Median(fill_ms), "ms"};
  out.spans = spans;
  return out;
}

}  // namespace perfbench
