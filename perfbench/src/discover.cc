// corpus_discover: batch repository discovery, what one CLI run pays.
//
// Library pass: fill a fresh catalog, ComputeSignatures, then
// DiscoverJoinableColumns (which prunes and evaluates the shortlist) with a
// fresh index cache. Replay pass: the same fill, then the calls
// DiscoverJoinableColumns makes, one span each: ComputeSignatures,
// ShortlistPairs, AcquireColumnIndex on every distinct shortlisted column
// (the cache pre-warm), and per shortlisted pair the calls EvaluateCandidate
// makes (FindJoinablePairs, MakeExamplePairs, DiscoverTransformations, the
// support filter, ApplyAndEquiJoin) with the pool in the inner options.
// --trace 0 times library passes; both phases of --trace 1 time replay
// passes, spans off and on, so their difference is the cost of the spans.
// Each phase also runs the other path once, untimed, and requires identical
// per-pair results.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/corpus_discovery.h"
#include "datagen/corpus.h"
#include "harness.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tj;

/// Corpus shape: fixed across seeds so every seed asks for the same amount
/// of work; the seed changes only the generated values. Synth-N and
/// Synth-NL joinable pairs from ~40 into the low hundreds of rows, plus
/// unrelated noise tables.
struct Shape {
  size_t pairs;
  size_t rows;
  bool long_rows;
  size_t noise;
  const char* prefix;
};
/// Corpus variants per run; pass i runs variant i % kVariants, so a run's
/// medians average over many generated corpora instead of hinging on one.
/// A run makes at least kMinPasses passes, so the first kRepeatedVariants
/// variants run twice (the second pass must repeat the first's output).
constexpr size_t kVariants = 110;
constexpr size_t kRepeatedVariants = 10;
constexpr size_t kMinPasses =
    std::max(kMinTailRun, kVariants + kRepeatedVariants);

constexpr Shape kShapes[] = {
    {3, 40, false, 3, "dn40-"},
    {2, 50, true, 2, "dl50-"},
    {1, 100, false, 1, "dn100-"},
};

struct Corpus {
  std::vector<Table> tables;
  /// Golden joinable pairs as (source, target) indexes into `tables`.
  std::vector<std::pair<size_t, size_t>> golden;
};

Corpus GenerateCorpus(uint64_t seed) {
  Corpus corpus;
  std::vector<std::string> golden_names;
  uint64_t shape_seed = seed * 7919 + 17;
  for (const Shape& shape : kShapes) {
    SynthCorpusOptions options;
    options.num_joinable_pairs = shape.pairs;
    options.num_noise_tables = shape.noise;
    options.rows = shape.rows;
    options.long_rows = shape.long_rows;
    options.seed = ++shape_seed;
    options.name_prefix = shape.prefix;
    options.keep_row_ground_truth = false;
    SynthCorpus part = GenerateSynthCorpus(options);
    for (const auto& g : part.golden) {
      golden_names.push_back(part.tables[g.source_table].name());
      golden_names.push_back(part.tables[g.target_table].name());
    }
    for (Table& table : part.tables) corpus.tables.push_back(std::move(table));
  }
  // Interleave the parts so golden pairs are not adjacent in catalog order.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  rng.Shuffle(&corpus.tables);
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < corpus.tables.size(); ++i) {
    index[corpus.tables[i].name()] = i;
  }
  for (size_t i = 0; i + 1 < golden_names.size(); i += 2) {
    corpus.golden.push_back(
        {index.at(golden_names[i]), index.at(golden_names[i + 1])});
  }
  return corpus;
}

CorpusDiscoveryOptions DiscoverOptions(IndexCache* cache) {
  CorpusDiscoveryOptions options;
  options.num_threads = kThreads;
  options.index_cache = cache;
  return options;
}

/// Fills a fresh catalog (table ids = corpus order).
TableCatalog Fill(const Corpus& corpus) {
  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    TJ_CHECK(added.ok());
  }
  return catalog;
}

uint64_t Digest(const TableCatalog& catalog, const CorpusDiscoveryResult& r) {
  uint64_t h = kFnvBasis;
  h = Fnv(h, &r.total_column_pairs, sizeof r.total_column_pairs);
  h = Fnv(h, &r.pruned_pairs, sizeof r.pruned_pairs);
  for (const CorpusPairResult& p : r.results) {
    h = FnvString(h, catalog.table_name(p.source.table));
    h = FnvString(h, catalog.column_name(p.source));
    h = FnvString(h, catalog.table_name(p.target.table));
    h = FnvString(h, catalog.column_name(p.target));
    h = Fnv(h, &p.candidate.score, sizeof p.candidate.score);
    h = Fnv(h, &p.learning_pairs, sizeof p.learning_pairs);
    h = Fnv(h, &p.joined_rows, sizeof p.joined_rows);
    h = Fnv(h, &p.top_coverage, sizeof p.top_coverage);
    for (const std::string& t : p.transformations) h = FnvString(h, t);
    h = FnvString(h, p.error);
  }
  return h;
}

/// Empty when equal, else a description of the first difference.
std::string ComparePairs(const CorpusPairResult& x, const CorpusPairResult& y) {
  if (!(x.source == y.source) || !(x.target == y.target)) return "orientation";
  if (x.learning_pairs != y.learning_pairs) return "learning_pairs";
  if (x.joined_rows != y.joined_rows) return "joined_rows";
  if (std::memcmp(&x.top_coverage, &y.top_coverage, sizeof(double)) != 0) {
    return "top_coverage";
  }
  if (x.transformations != y.transformations) return "transformations";
  if (x.error != y.error) return "error";
  return "";
}

/// Golden rows joined: over the corpus' golden pairs, the rows of each
/// pair the shortlisted result joined (capped at the pair's row count; a
/// pair that was not shortlisted joins none), and the rows in total.
std::pair<double, double> GoldenRows(const Corpus& corpus,
                                     const CorpusDiscoveryResult& r) {
  double joined = 0, rows = 0;
  for (const auto& [src, tgt] : corpus.golden) {
    const size_t n = std::min(corpus.tables[src].num_rows(),
                              corpus.tables[tgt].num_rows());
    rows += static_cast<double>(n);
    for (const CorpusPairResult& p : r.results) {
      const bool same = (p.source.table == src && p.target.table == tgt) ||
                        (p.source.table == tgt && p.target.table == src);
      if (same && p.source.column == 0 && p.target.column == 0) {
        joined += static_cast<double>(std::min(p.joined_rows, n));
        break;
      }
    }
  }
  return {joined, rows};
}

/// What the per-pair replay adds up over one pass.
struct ReplayTotals {
  uint64_t generated = 0;
  uint64_t unique = 0;
  uint64_t unit_evals = 0;
  uint64_t full_evaluations = 0;
  uint64_t covering = 0;
  uint64_t candidate_pairs = 0;
  uint64_t unmatched_rows = 0;
  uint64_t joined_rows = 0;
  uint64_t useful_pairs = 0;
  uint64_t postings = 0;
  uint64_t builds = 0;
  uint64_t hits = 0;
  uint64_t index_bytes = 0;
  double placeholder_ms = 0, unit_extraction_ms = 0, dedup_ms = 0,
         coverage_ms = 0, set_cover_ms = 0;
  std::vector<double> pair_core_ms;  // DiscoverTransformations per pair

  void Add(const ReplayTotals& o) {
    generated += o.generated;
    unique += o.unique;
    unit_evals += o.unit_evals;
    full_evaluations += o.full_evaluations;
    covering += o.covering;
    candidate_pairs += o.candidate_pairs;
    unmatched_rows += o.unmatched_rows;
    joined_rows += o.joined_rows;
    useful_pairs += o.useful_pairs;
    postings += o.postings;
    builds += o.builds;
    hits += o.hits;
    index_bytes += o.index_bytes;
    placeholder_ms += o.placeholder_ms;
    unit_extraction_ms += o.unit_extraction_ms;
    dedup_ms += o.dedup_ms;
    coverage_ms += o.coverage_ms;
    set_cover_ms += o.set_cover_ms;
    pair_core_ms.insert(pair_core_ms.end(), o.pair_core_ms.begin(),
                        o.pair_core_ms.end());
  }
};

/// Evaluates the shortlist through the public calls DiscoverJoinableColumns
/// makes, one span per call: first every distinct shortlisted column's
/// index into a fresh cache, in shortlist order and fanned out over `pool`;
/// then the pairs in parallel on `pool`, with `pool` in the inner options
/// (a pair running inside the fan-out runs its inner phases serially, a
/// lone pair gets the whole pool), as the library does.
CorpusDiscoveryResult Replay(const TableCatalog& catalog,
                             const PairPrunerResult& shortlist,
                             ThreadPool* pool, uint64_t parent_span,
                             ReplayTotals* totals) {
  IndexCache cache(serve::kDefaultIndexCacheBudgetBytes);
  const CorpusDiscoveryOptions options = DiscoverOptions(&cache);
  JoinOptions join = options.join;
  join.discovery.pool = pool;
  join.match_options.pool = pool;
  join.match_options.index_cache = &cache;
  join.min_learning_pairs =
      std::max(join.min_learning_pairs, options.min_learning_pairs);
  TJ_CHECK(join.matching == MatchingMode::kNgram && join.sample_pairs == 0);

  CorpusDiscoveryResult result;
  result.total_column_pairs = shortlist.total_pairs;
  result.pruned_pairs = shortlist.pruned_pairs;
  result.results.resize(shortlist.shortlist.size());
  if (shortlist.shortlist.empty()) return result;

  {
    Span span("index.build", 0, parent_span);
    std::vector<ColumnRef> warm;
    std::unordered_set<uint64_t> seen;
    for (const ColumnPairCandidate& candidate : shortlist.shortlist) {
      for (const ColumnRef ref : {candidate.a, candidate.b}) {
        if (seen.insert((uint64_t{ref.table} << 32) | ref.column).second) {
          warm.push_back(ref);
        }
      }
    }
    std::vector<uint64_t> postings(warm.size(), 0);
    pool->ParallelFor(
        warm.size(), warm.size(), [&](int, size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const auto column = catalog.ResidentColumn(warm[i]);
            if (!column.ok()) continue;
            IndexCacheKey key;
            key.fingerprint = catalog.table_fingerprint(warm[i].table);
            key.column = warm[i].column;
            postings[i] = AcquireColumnIndex(**column, join.match_options,
                                             key, nullptr)
                              ->TotalPostings();
          }
        });
    for (uint64_t n : postings) totals->postings += n;
  }

  std::vector<ReplayTotals> per_pair(shortlist.shortlist.size());
  pool->ParallelFor(
      shortlist.shortlist.size(), shortlist.shortlist.size(),
      [&](int, size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const ColumnPairCandidate& candidate = shortlist.shortlist[i];
          ReplayTotals& t = per_pair[i];
          CorpusPairResult& out = result.results[i];
          Span pair_span("discover.pair", i + 1, parent_span);
          out.candidate = candidate;
          out.source = candidate.a_is_source ? candidate.a : candidate.b;
          out.target = candidate.a_is_source ? candidate.b : candidate.a;
          const auto source = catalog.ResidentColumn(out.source);
          const auto target = catalog.ResidentColumn(out.target);
          if (!source.ok() || !target.ok()) {
            out.error = (!source.ok() ? source.status() : target.status())
                            .ToString();
            continue;
          }
          JoinOptions local = join;
          local.match_options.source_cache_key.fingerprint =
              catalog.table_fingerprint(out.source.table);
          local.match_options.source_cache_key.column = out.source.column;
          local.match_options.target_cache_key.fingerprint =
              catalog.table_fingerprint(out.target.table);
          local.match_options.target_cache_key.column = out.target.column;
          RowMatchResult matched;
          {
            Span span("match.scan", i + 1);
            matched =
                FindJoinablePairs(**source, **target, local.match_options);
          }
          t.candidate_pairs = matched.pairs.size();
          t.unmatched_rows = matched.unmatched_source_rows;
          out.learning_pairs = matched.pairs.size();
          if (matched.pairs.size() < local.min_learning_pairs) continue;

          std::vector<ExamplePair> examples;
          {
            Span span("core.examples", i + 1);
            examples = MakeExamplePairs(**source, **target, matched.pairs);
          }
          const int64_t core_start = NowNs();
          DiscoveryResult discovery;
          {
            Span span("core.discover", i + 1);
            discovery = DiscoverTransformations(examples, local.discovery);
          }
          t.pair_core_ms.push_back(static_cast<double>(NowNs() - core_start) /
                                   1e6);
          const DiscoveryStats& st = discovery.stats;
          t.generated = st.generated_transformations;
          t.unique = st.unique_transformations;
          t.unit_evals = st.unit_evals;
          t.full_evaluations = st.full_evaluations;
          t.covering = st.covering_pairs;
          t.placeholder_ms = st.time_placeholder_gen * 1e3;
          t.unit_extraction_ms = st.time_unit_extraction * 1e3;
          t.dedup_ms = st.time_duplicate_removal * 1e3;
          t.coverage_ms = st.time_apply * 1e3;
          t.set_cover_ms = st.time_solution * 1e3;
          out.top_coverage = discovery.TopCoverageFraction();

          std::vector<TransformationId> applied;
          {
            Span span("join.filter", i + 1);
            const auto min_support = static_cast<uint32_t>(
                std::ceil(local.min_join_support *
                          static_cast<double>(examples.size())));
            for (const RankedTransformation& ranked :
                 discovery.cover.selected) {
              if (ranked.coverage >= min_support && ranked.coverage >= 1) {
                applied.push_back(ranked.id);
                out.transformations.push_back(
                    discovery.store.Get(ranked.id).ToString(discovery.units));
              }
            }
          }
          {
            Span span("join.apply", i + 1);
            out.joined_rows = ApplyAndEquiJoin(**source, **target,
                                               discovery.store, discovery.units,
                                               applied)
                                  .size();
          }
          t.joined_rows = out.joined_rows;
          t.useful_pairs = out.joined_rows > 0 ? 1 : 0;
        }
      });

  for (const ReplayTotals& t : per_pair) totals->Add(t);
  const IndexCacheStats stats = cache.GetStats();
  totals->builds += stats.misses;
  totals->hits += stats.hits;
  totals->index_bytes += stats.bytes;
  for (const CorpusPairResult& p : result.results) {
    if (!p.error.empty()) ++result.failed_pairs;
  }
  return result;
}

/// The replay pass: DiscoverJoinableColumns' steps as separate spans.
/// `sketched_ns` receives the time the signatures were done.
CorpusDiscoveryResult ReplayPass(TableCatalog* catalog, uint64_t pass_id,
                                 ReplayTotals* totals, int64_t* sketched_ns) {
  Span pass("discover.pass", pass_id);
  ThreadPool pool(kThreads);
  {
    Span span("corpus.sketch", pass_id);
    catalog->ComputeSignatures(&pool);
  }
  *sketched_ns = NowNs();
  PairPrunerResult shortlist;
  {
    Span span("corpus.prune", pass_id);
    shortlist = ShortlistPairs(*catalog, CorpusDiscoveryOptions().pruner,
                               &pool);
  }
  return Replay(*catalog, shortlist, &pool, pass.id(), totals);
}

}  // namespace

Outcome RunCorpusDiscover(const Args& args, double seconds, bool traced) {
  Outcome out;
  SetTracing(traced);
  // --trace 1 times replay passes in both of its phases.
  const bool replay = args.trace;

  // Set-up: generate the corpus variants and run one warm-up pass (lazy
  // initialisation, allocator growth), repeated; setup_s is the median.
  std::vector<double> setup_s;
  std::vector<Corpus> variants;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t start = NowNs();
    variants.clear();
    for (size_t v = 0; v < kVariants; ++v) {
      variants.push_back(GenerateCorpus(args.seed * kVariants + v));
    }
    TableCatalog catalog = Fill(variants[0]);
    IndexCache cache(serve::kDefaultIndexCacheBudgetBytes);
    DiscoverJoinableColumns(&catalog, DiscoverOptions(&cache));
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  std::vector<double> pass_ms, fill_ms;
  double total_pairs = 0;
  std::vector<uint64_t> digests(kVariants, 0);
  double golden_joined = 0, golden_rows = 0;
  ReplayTotals totals;        // every replay pass
  ReplayTotals exact_totals;  // variant 0 only: the exact counters
  CorpusDiscoveryResult first;  // variant 0's first pass
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || pass_ms.size() < kMinPasses) {
    const size_t pass = pass_ms.size();
    const size_t variant = pass % kVariants;
    const Corpus& corpus = variants[variant];
    const int64_t fill_start = NowNs();
    TableCatalog catalog;
    {
      Span span("table.fill", pass + 1);
      catalog = Fill(corpus);
    }

    // The pass: ComputeSignatures + DiscoverJoinableColumns (which finds
    // the signatures cached), or its replay.
    CorpusDiscoveryResult result;
    const int64_t start = NowNs();
    int64_t sketched = 0;
    if (replay) {
      result = ReplayPass(&catalog, pass + 1,
                          pass == 0 ? &exact_totals : &totals, &sketched);
    } else {
      {
        ThreadPool pool(kThreads);
        catalog.ComputeSignatures(&pool);
      }
      sketched = NowNs();
      IndexCache cache(serve::kDefaultIndexCacheBudgetBytes);
      result = DiscoverJoinableColumns(&catalog, DiscoverOptions(&cache));
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    // A fresh catalog is queryable once filled and sketched.
    fill_ms.push_back(static_cast<double>(sketched - fill_start) / 1e6);
    pass_ms.push_back(ms);
    total_pairs += static_cast<double>(result.results.size());
    out.attempted += result.results.size();
    out.failed += result.failed_pairs;

    const uint64_t digest = Digest(catalog, result);
    if (pass < kVariants) {
      digests[variant] = digest;
      const auto [joined, rows] = GoldenRows(corpus, result);
      golden_joined += joined;
      golden_rows += rows;
    } else if (digest != digests[variant]) {
      out.gate_failures.push_back(
          "corpus_discover: pass " + std::to_string(pass + 1) +
          " output digest differs from the variant's first pass");
    }
    if (pass == 0) first = std::move(result);
  }
  const std::vector<SpanRecord> spans = CollectSpans();
  SetTracing(false);
  if (replay) {
    // Variant 0's replay was kept apart for the exact counters; fold it
    // into the per-pass averages too.
    totals.Add(exact_totals);
  }

  // The other path, once and untimed, pair by pair against variant 0's
  // first pass.
  {
    TableCatalog catalog = Fill(variants[0]);
    CorpusDiscoveryResult other;
    if (replay) {
      IndexCache cache(serve::kDefaultIndexCacheBudgetBytes);
      other = DiscoverJoinableColumns(&catalog, DiscoverOptions(&cache));
    } else {
      ThreadPool pool(kThreads);
      catalog.ComputeSignatures(&pool);
      const PairPrunerResult shortlist =
          ShortlistPairs(catalog, CorpusDiscoveryOptions().pruner, &pool);
      other = Replay(catalog, shortlist, &pool, 0, &exact_totals);
    }
    if (other.results.size() != first.results.size() ||
        other.total_column_pairs != first.total_column_pairs ||
        other.pruned_pairs != first.pruned_pairs) {
      out.gate_failures.push_back(
          "corpus_discover: replay and DiscoverJoinableColumns shortlists "
          "differ");
    } else {
      for (size_t i = 0; i < first.results.size(); ++i) {
        const std::string diff =
            ComparePairs(first.results[i], other.results[i]);
        if (!diff.empty()) {
          out.gate_failures.push_back(
              "corpus_discover: replay differs from DiscoverJoinableColumns "
              "at pair " + std::to_string(i + 1) + " (" + diff + ")");
          break;
        }
      }
    }
  }

  const double passes = static_cast<double>(pass_ms.size());
  Metrics& e = out.end_to_end;
  // Pairs over pass time, both summed over the run: the median of per-pass
  // rates moved with the mix of variants around the middle and spread 20%
  // between runs.
  double total_ms = 0;
  for (double ms : pass_ms) total_ms += ms;
  e["throughput_per_s"] = {total_pairs / (total_ms / 1e3), "1/s"};
  e["p50_ms"] = {Median(pass_ms), "ms"};
  e["p90_ms"] = {Percentile(pass_ms, kTailPercentile), "ms"};
  e["slo_share"] = {ShareWithin(pass_ms, kDiscoverPassLimitMs, 0), "share"};
  e["golden_recall"] = {golden_rows > 0 ? golden_joined / golden_rows : 0.0,
                        "share"};
  e["mutation_p50_ms"] = {Median(fill_ms), "ms"};
  e["setup_s"] = {Median(setup_s), "s"};

  // Exact work counters and the per-layer counts: variant 0, one pass.
  const ReplayTotals& x = exact_totals;
  uint64_t variants_digest = kFnvBasis;
  for (uint64_t d : digests) {
    variants_digest = Fnv(variants_digest, &d, sizeof d);
  }
  out.counters["output_digest"] = variants_digest;
  out.counters["core.generated"] = x.generated;
  out.counters["core.unit_evals"] = x.unit_evals;
  out.counters["core.full_evaluations"] = x.full_evaluations;
  out.counters["corpus.scored_pairs"] = first.total_column_pairs;
  out.counters["index.postings"] = x.postings;
  out.counters["match.candidate_pairs"] = x.candidate_pairs;

  Metrics& l = out.layers;
  for (const auto& [name, value] : out.counters) {
    if (name != "output_digest") {
      l[name] = {static_cast<double>(value), "count"};
    }
  }
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  l["corpus.shortlist_pairs"] = {static_cast<double>(first.results.size()),
                                 "count"};
  l["corpus.useful_pair_ratio"] = {ratio(x.useful_pairs, first.results.size()),
                                   "ratio"};
  l["index.builds"] = {static_cast<double>(x.builds), "count"};
  l["index.cache_hit_ratio"] = {ratio(x.hits, x.hits + x.builds), "ratio"};
  l["index.bytes"] = {static_cast<double>(x.index_bytes), "bytes"};
  l["match.unmatched_rows"] = {static_cast<double>(x.unmatched_rows), "count"};
  l["core.unique"] = {static_cast<double>(x.unique), "count"};
  l["core.covering_ratio"] = {ratio(x.covering, x.full_evaluations), "ratio"};
  l["join.joined_rows"] = {static_cast<double>(x.joined_rows), "count"};
  if (traced) {
    // Times: per pass, averaged over every traced pass (all variants).
    AddSelfTimeMetrics(spans,
                       {"table.fill", "corpus.sketch", "corpus.prune",
                        "index.build", "match.scan", "core.examples",
                        "core.discover", "join.filter", "join.apply"},
                       passes, &l);
    // The learner's phases, from DiscoveryStats.
    l["core.placeholder_ms"] = {totals.placeholder_ms / passes, "ms"};
    l["core.unit_extraction_ms"] = {totals.unit_extraction_ms / passes, "ms"};
    l["core.dedup_ms"] = {totals.dedup_ms / passes, "ms"};
    l["core.coverage_ms"] = {totals.coverage_ms / passes, "ms"};
    l["core.set_cover_ms"] = {totals.set_cover_ms / passes, "ms"};
    l["core.pair_p50_ms"] = {Median(totals.pair_core_ms), "ms"};
    l["core.pair_p90_ms"] = {Percentile(totals.pair_core_ms, kTailPercentile),
                             "ms"};
    // Share of pair time (discover.pair spans, children included) that
    // the core spans account for.
    const auto self = SelfTimesNs(spans);
    double pair_ns = 0, core_ns = 0;
    for (const SpanRecord& span : spans) {
      const std::string name = span.name;
      if (name == "discover.pair") {
        pair_ns += static_cast<double>(span.end_ns - span.start_ns);
      } else if (name.rfind("core.", 0) == 0) {
        core_ns += static_cast<double>(self.at(span.id));
      }
    }
    l["core.time_share"] = {pair_ns > 0 ? core_ns / pair_ns : 0.0, "ratio"};
  }
  out.spans = spans;
  return out;
}

}  // namespace perfbench
