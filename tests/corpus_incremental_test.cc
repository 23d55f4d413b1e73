// Property tests for incremental corpus maintenance: random
// add/remove/update sequences over synthetic corpora, maintained through
// TableCatalog + IncrementalPairPruner at thread counts 1/2/4/8, must at
// every step yield a shortlist bit-identical to a from-scratch
// ShortlistPairs over the live catalog AND (by name) to a completely fresh
// catalog built from only the surviving tables — and, at the end of the
// sequence, a discovery ranking identical to a fresh end-to-end run.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"

namespace tj {
namespace {

/// (table name, column name) of a ref — the identity that survives the id
/// renumbering of a fresh catalog rebuild.
std::pair<std::string, std::string> NameOf(const TableCatalog& catalog,
                                           ColumnRef ref) {
  return {catalog.table(ref.table).name(),
          catalog.column(ref).name()};
}

/// True when the two sketches share a non-empty slot: a collision in the
/// LSH probe's one-slot bands, checked slot by slot without an index.
bool SketchesCollide(const ColumnSignature& a, const ColumnSignature& b) {
  if (a.distinct_ngrams == 0 || b.distinct_ngrams == 0) return false;
  for (size_t i = 0; i < a.minhash.size(); ++i) {
    if (a.minhash[i] == b.minhash[i] && a.minhash[i] != kEmptyMinhashSlot) {
      return true;
    }
  }
  return false;
}

/// Rebuilds a brand-new catalog holding only the live tables, in id order
/// (which is registration order — ids are never reused).
TableCatalog FreshCatalog(const TableCatalog& live) {
  TableCatalog fresh;
  for (uint32_t t = 0; t < live.num_slots(); ++t) {
    if (!live.IsLive(t)) continue;
    auto added = fresh.AddTable(live.table(t));
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  fresh.ComputeSignatures();
  return fresh;
}

void ExpectShortlistsIdentical(const TableCatalog& catalog,
                               const PairPrunerResult& incremental,
                               const PairPrunerResult& scratch,
                               const std::string& context) {
  EXPECT_EQ(incremental.total_pairs, scratch.total_pairs) << context;
  EXPECT_EQ(incremental.pruned_pairs, scratch.pruned_pairs) << context;
  ASSERT_EQ(incremental.shortlist.size(), scratch.shortlist.size())
      << context;
  for (size_t i = 0; i < scratch.shortlist.size(); ++i) {
    const ColumnPairCandidate& x = incremental.shortlist[i];
    const ColumnPairCandidate& y = scratch.shortlist[i];
    EXPECT_TRUE(x.a == y.a) << context << " rank " << i;
    EXPECT_TRUE(x.b == y.b) << context << " rank " << i;
    EXPECT_EQ(x.score, y.score) << context << " rank " << i;
    EXPECT_EQ(x.a_is_source, y.a_is_source) << context << " rank " << i;
  }
  (void)catalog;
}

/// Same comparison across two catalogs whose ids differ (live/tombstoned vs
/// freshly rebuilt): candidates must agree by name, score, and orientation
/// at every rank.
void ExpectShortlistsIdenticalByName(const TableCatalog& live_catalog,
                                     const PairPrunerResult& incremental,
                                     const TableCatalog& fresh_catalog,
                                     const PairPrunerResult& fresh,
                                     const std::string& context) {
  EXPECT_EQ(incremental.total_pairs, fresh.total_pairs) << context;
  EXPECT_EQ(incremental.pruned_pairs, fresh.pruned_pairs) << context;
  ASSERT_EQ(incremental.shortlist.size(), fresh.shortlist.size()) << context;
  for (size_t i = 0; i < fresh.shortlist.size(); ++i) {
    const ColumnPairCandidate& x = incremental.shortlist[i];
    const ColumnPairCandidate& y = fresh.shortlist[i];
    EXPECT_EQ(NameOf(live_catalog, x.a), NameOf(fresh_catalog, y.a))
        << context << " rank " << i;
    EXPECT_EQ(NameOf(live_catalog, x.b), NameOf(fresh_catalog, y.b))
        << context << " rank " << i;
    EXPECT_EQ(x.score, y.score) << context << " rank " << i;
    EXPECT_EQ(x.a_is_source, y.a_is_source) << context << " rank " << i;
  }
}

/// One maintained pruner per thread count; every op is applied to all of
/// them and all snapshots must agree with the serial from-scratch scan.
struct PrunerFleet {
  PairPrunerOptions options;
  std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<IncrementalPairPruner> pruners;

  explicit PrunerFleet(const PairPrunerOptions& opts) : options(opts) {
    for (int threads : thread_counts) {
      pools.push_back(std::make_unique<ThreadPool>(threads));
      pruners.emplace_back(opts);
    }
  }

  void Rebuild(const TableCatalog& catalog) {
    for (size_t i = 0; i < pruners.size(); ++i) {
      pruners[i].Rebuild(catalog, pools[i].get());
    }
  }
  void OnTableAdded(const TableCatalog& catalog, uint32_t id) {
    for (size_t i = 0; i < pruners.size(); ++i) {
      pruners[i].OnTableAdded(catalog, id, pools[i].get());
    }
  }
  void OnTableRemoved(uint32_t id) {
    for (IncrementalPairPruner& pruner : pruners) {
      pruner.OnTableRemoved(id);
    }
  }
  void OnTableUpdated(const TableCatalog& catalog, uint32_t id) {
    for (size_t i = 0; i < pruners.size(); ++i) {
      pruners[i].OnTableUpdated(catalog, id, pools[i].get());
    }
  }

  /// Checks every maintained snapshot against from-scratch rebuilds of the
  /// current catalog state (same-catalog refs and fresh-catalog names).
  void CheckAgainstScratch(const TableCatalog& catalog,
                           const std::string& context) {
    const PairPrunerResult scratch = ShortlistPairs(catalog, options);
    const TableCatalog fresh_catalog = FreshCatalog(catalog);
    const PairPrunerResult fresh = ShortlistPairs(fresh_catalog, options);
    for (size_t i = 0; i < pruners.size(); ++i) {
      const PairPrunerResult snapshot = pruners[i].Snapshot();
      ExpectShortlistsIdentical(
          catalog, snapshot, scratch,
          context + StrPrintf(" [threads=%d vs scratch]", thread_counts[i]));
      ExpectShortlistsIdenticalByName(
          catalog, snapshot, fresh_catalog, fresh,
          context + StrPrintf(" [threads=%d vs fresh]", thread_counts[i]));
    }
  }
};

SynthCorpus MakeCorpus(const char* prefix, size_t pairs, size_t noise,
                       uint64_t seed) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = pairs;
  options.num_noise_tables = noise;
  options.rows = 20;
  options.seed = seed;
  options.name_prefix = prefix;
  return GenerateSynthCorpus(options);
}

TEST(IncrementalPruner, RandomOpSequencesMatchScratchRebuilds) {
  // Initial corpus plus a reservoir of tables to add later.
  const SynthCorpus base = MakeCorpus("synth", 3, 2, 17);
  const SynthCorpus reservoir_a = MakeCorpus("adda", 2, 1, 18);
  const SynthCorpus reservoir_b = MakeCorpus("addb", 2, 1, 19);
  std::vector<Table> reservoir;
  for (const Table& t : reservoir_a.tables) reservoir.push_back(t);
  for (const Table& t : reservoir_b.tables) reservoir.push_back(t);
  size_t next_reservoir = 0;

  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();

  PrunerFleet fleet((PairPrunerOptions()));
  fleet.Rebuild(catalog);
  fleet.CheckAgainstScratch(catalog, "initial");

  Rng rng(12345);
  for (int op = 0; op < 12; ++op) {
    const std::string context = StrPrintf("op %d", op);
    // Collect live ids for remove/update targets.
    std::vector<uint32_t> live;
    for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
      if (catalog.IsLive(t)) live.push_back(t);
    }
    const uint64_t kind = rng.Uniform(3);
    if (kind == 0 && next_reservoir < reservoir.size()) {
      // Add the next reservoir table.
      auto id = catalog.AddTable(reservoir[next_reservoir++]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      catalog.ComputeSignatures();
      fleet.OnTableAdded(catalog, *id);
    } else if (kind == 1 && live.size() > 4) {
      // Remove a random live table.
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      const std::string name = catalog.table(victim).name();
      ASSERT_TRUE(catalog.RemoveTable(name).ok());
      fleet.OnTableRemoved(victim);
    } else {
      // Update a random live table: perturb one cell so signatures change.
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      Table mutated = catalog.table(victim);
      if (mutated.num_rows() == 0) continue;
      const size_t row = static_cast<size_t>(
          rng.Uniform(mutated.num_rows()));
      mutated.mutable_column(0).Set(
          row, StrPrintf("updated-cell-%d-%llu", op,
                         static_cast<unsigned long long>(rng.NextU64())));
      auto id = catalog.UpdateTable(std::move(mutated));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, victim);  // update keeps the stable id
      catalog.ComputeSignatures();
      fleet.OnTableUpdated(catalog, *id);
    }
    fleet.CheckAgainstScratch(catalog, context);
  }
}

TEST(IncrementalPruner, MaxCandidatesTruncationMatchesScratch) {
  const SynthCorpus base = MakeCorpus("synth", 3, 1, 29);
  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();

  PairPrunerOptions options;
  options.max_candidates = 3;
  IncrementalPairPruner pruner(options);
  pruner.Rebuild(catalog);

  const SynthCorpus extra = MakeCorpus("inc", 1, 0, 31);
  auto id = catalog.AddTable(extra.tables[0]);
  ASSERT_TRUE(id.ok());
  catalog.ComputeSignatures();
  pruner.OnTableAdded(catalog, *id);

  const PairPrunerResult snapshot = pruner.Snapshot();
  const PairPrunerResult scratch = ShortlistPairs(catalog, options);
  EXPECT_LE(snapshot.shortlist.size(), options.max_candidates);
  ExpectShortlistsIdentical(catalog, snapshot, scratch, "max_candidates");
}

// max_candidates semantics: truncation is a display cap applied AFTER the
// merged re-rank, and it is not pruning. So relative to an uncapped run
// over the same state, the capped shortlist must be exactly the uncapped
// head, and total/pruned accounting must be unchanged — for both the
// incremental snapshot (whose merge re-ranks old and new survivors
// together before resizing) and the batch scan.
TEST(IncrementalPruner, TruncationIsAppliedAfterMergedRerankAndNotCounted) {
  const SynthCorpus base = MakeCorpus("synth", 4, 2, 41);
  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();

  PairPrunerOptions capped;
  capped.max_candidates = 2;
  PairPrunerOptions uncapped;  // same gates, no cap

  IncrementalPairPruner pruner(capped);
  pruner.Rebuild(catalog);

  // Incremental adds: each merge must re-rank the union of survivors, not
  // truncate per-add (a later table's stronger pair must displace an
  // earlier resident of the capped head).
  const SynthCorpus extra = MakeCorpus("inc", 2, 1, 43);
  for (const Table& table : extra.tables) {
    auto id = catalog.AddTable(table);
    ASSERT_TRUE(id.ok());
    catalog.ComputeSignatures();
    pruner.OnTableAdded(catalog, *id);

    const PairPrunerResult snapshot = pruner.Snapshot();
    const PairPrunerResult full = ShortlistPairs(catalog, uncapped);
    ASSERT_GT(full.shortlist.size(), capped.max_candidates)
        << "corpus too small to exercise truncation";

    // Truncation must not leak into the pruning stats.
    EXPECT_EQ(snapshot.total_pairs, full.total_pairs);
    EXPECT_EQ(snapshot.pruned_pairs, full.pruned_pairs);
    EXPECT_EQ(snapshot.pruned_pairs,
              snapshot.total_pairs - full.shortlist.size());

    // The capped shortlist is exactly the uncapped head.
    ASSERT_EQ(snapshot.shortlist.size(), capped.max_candidates);
    for (size_t r = 0; r < snapshot.shortlist.size(); ++r) {
      EXPECT_TRUE(snapshot.shortlist[r].a == full.shortlist[r].a);
      EXPECT_TRUE(snapshot.shortlist[r].b == full.shortlist[r].b);
      EXPECT_EQ(snapshot.shortlist[r].score, full.shortlist[r].score);
    }

    // And the batch scan agrees with itself under the same cap.
    const PairPrunerResult batch = ShortlistPairs(catalog, capped);
    EXPECT_EQ(batch.pruned_pairs, full.pruned_pairs);
    ASSERT_EQ(batch.shortlist.size(), capped.max_candidates);
    ExpectShortlistsIdentical(catalog, snapshot, batch, "capped batch");
  }
}

TEST(IncrementalPruner, AddScoresOnlyTheNewTablesPairs) {
  const SynthCorpus base = MakeCorpus("synth", 4, 2, 37);
  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  const size_t existing_columns = catalog.num_columns();

  IncrementalPairPruner pruner;
  // Cross-table column pairs whose sketches share a band bucket, optionally
  // only those touching `table` — exactly what the probe exact-scores.
  const auto colliding_pairs = [&](const uint32_t* table) {
    const std::vector<ColumnRef> columns = catalog.AllColumns();
    size_t count = 0;
    for (size_t i = 0; i < columns.size(); ++i) {
      for (size_t j = i + 1; j < columns.size(); ++j) {
        const ColumnRef a = columns[i];
        const ColumnRef b = columns[j];
        if (a.table == b.table) continue;
        if (table != nullptr && a.table != *table && b.table != *table) {
          continue;
        }
        if (SketchesCollide(catalog.signature(a), catalog.signature(b))) {
          ++count;
        }
      }
    }
    return count;
  };

  pruner.Rebuild(catalog);
  // The full build probed the cross-table triangle: at most every pair,
  // exactly the colliding ones.
  EXPECT_LE(pruner.last_scored_pairs(), pruner.Snapshot().total_pairs);
  EXPECT_EQ(pruner.last_scored_pairs(), colliding_pairs(nullptr));

  const SynthCorpus extra = MakeCorpus("inc", 1, 0, 41);
  auto id = catalog.AddTable(extra.tables[0]);
  ASSERT_TRUE(id.ok());
  catalog.ComputeSignatures();
  pruner.OnTableAdded(catalog, *id);
  // The add scored only the (new, existing) pairs whose sketches collide
  // in a band — never more than the new-columns x existing-columns row
  // (O(N)), and never the O(N^2) triangle.
  const size_t new_columns = catalog.table(*id).num_columns();
  const uint32_t new_id = *id;
  EXPECT_LE(pruner.last_scored_pairs(), new_columns * existing_columns);
  EXPECT_EQ(pruner.last_scored_pairs(), colliding_pairs(&new_id));

  // Removal rescales totals without scoring anything.
  const PairPrunerResult before = pruner.Snapshot();
  ASSERT_TRUE(catalog.RemoveTable(extra.tables[0].name()).ok());
  pruner.OnTableRemoved(*id);
  const PairPrunerResult after = pruner.Snapshot();
  EXPECT_EQ(after.total_pairs,
            before.total_pairs - new_columns * existing_columns);
  ExpectShortlistsIdentical(catalog, after,
                            ShortlistPairs(catalog, PairPrunerOptions()),
                            "after remove");
}

TEST(IncrementalDiscovery, RankingMatchesFreshEndToEndRun) {
  // Maintain a catalog through add + remove, then compare the full
  // discovery ranking (EvaluateShortlist over the incremental snapshot)
  // against a fresh catalog + DiscoverJoinableColumns, by name.
  const SynthCorpus base = MakeCorpus("synth", 3, 1, 53);
  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);

  const SynthCorpus extra = MakeCorpus("inc", 1, 0, 59);
  for (const Table& table : extra.tables) {
    auto id = catalog.AddTable(table);
    ASSERT_TRUE(id.ok());
    catalog.ComputeSignatures();
    pruner.OnTableAdded(catalog, *id);
  }
  const std::string removed = base.tables[1].name();
  auto removed_id = catalog.TableIndex(removed);
  ASSERT_TRUE(removed_id.ok());
  ASSERT_TRUE(catalog.RemoveTable(removed).ok());
  pruner.OnTableRemoved(*removed_id);

  CorpusDiscoveryOptions options;
  options.num_threads = 2;
  const CorpusDiscoveryResult incremental =
      EvaluateShortlist(catalog, pruner.Snapshot(), options);

  TableCatalog fresh = FreshCatalog(catalog);
  const CorpusDiscoveryResult scratch =
      DiscoverJoinableColumns(&fresh, options);

  EXPECT_EQ(incremental.total_column_pairs, scratch.total_column_pairs);
  EXPECT_EQ(incremental.pruned_pairs, scratch.pruned_pairs);
  ASSERT_EQ(incremental.results.size(), scratch.results.size());
  for (size_t i = 0; i < scratch.results.size(); ++i) {
    const CorpusPairResult& x = incremental.results[i];
    const CorpusPairResult& y = scratch.results[i];
    EXPECT_EQ(NameOf(catalog, x.source), NameOf(fresh, y.source)) << i;
    EXPECT_EQ(NameOf(catalog, x.target), NameOf(fresh, y.target)) << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << i;
    EXPECT_EQ(x.transformations, y.transformations) << i;
  }
}

TEST(TableCatalog, RemoveAndUpdateSemantics) {
  const SynthCorpus base = MakeCorpus("synth", 2, 1, 61);
  TableCatalog catalog;
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  const size_t initial = catalog.num_tables();
  const std::string name = base.tables[0].name();
  auto id = catalog.TableIndex(name);
  ASSERT_TRUE(id.ok());

  // Remove: live count drops, id becomes a tombstone, name is gone.
  ASSERT_TRUE(catalog.RemoveTable(name).ok());
  EXPECT_EQ(catalog.num_tables(), initial - 1);
  EXPECT_EQ(catalog.num_slots(), initial);
  EXPECT_FALSE(catalog.IsLive(*id));
  EXPECT_FALSE(catalog.TableIndex(name).ok());
  EXPECT_FALSE(catalog.RemoveTable(name).ok());  // double remove fails
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_NE(ref.table, *id);  // tombstone excluded from iteration
  }

  // Re-adding the name allocates a fresh id (ids are never reused).
  auto readded = catalog.AddTable(base.tables[0]);
  ASSERT_TRUE(readded.ok());
  EXPECT_GT(*readded, *id);
  EXPECT_EQ(catalog.num_tables(), initial);

  // Update: same id, fresh fingerprint, signatures invalidated.
  catalog.ComputeSignatures();
  const uint64_t fp_before = catalog.fingerprint(*readded);
  Table mutated = base.tables[0];
  mutated.mutable_column(0).Set(0, "changed");
  auto updated = catalog.UpdateTable(std::move(mutated));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, *readded);
  EXPECT_NE(catalog.fingerprint(*updated), fp_before);
  EXPECT_FALSE(catalog.HasSignature(ColumnRef{*updated, 0}));
  // Updating a missing name fails.
  EXPECT_FALSE(catalog.UpdateTable(Table("no-such-table")).ok());
}

}  // namespace
}  // namespace tj
