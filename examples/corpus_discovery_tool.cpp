// corpus_discovery_tool: repository-scale joinable-column discovery over a
// directory of CSV tables.
//
//   corpus_discovery_tool <csv-dir> [flags]
//   corpus_discovery_tool <csv-dir> --serve SOCKET [--watch DIR] [flags]
//   corpus_discovery_tool --client SOCKET JSON...
//   corpus_discovery_tool --gen DIR [--tables N] [--rows N] [--seed S]
//   corpus_discovery_tool --selftest
//
// (run without arguments for the flag list; each flag applies to the modes
// its help names, --simd to all of them)
//
// Default mode registers every *.csv file of <csv-dir> in a TableCatalog,
// sketches the columns, prunes the column-pair space with the MinHash
// signatures, runs the full per-pair pipeline over the ranked shortlist on
// one shared thread pool, and prints the ranked results. With --signatures,
// the sketch cache is reloaded from / persisted to that file; the v2 cache
// format carries per-table content fingerprints, so entries for tables that
// changed on disk self-invalidate and only those tables are re-sketched —
// repeated runs over a mutating repository stay incremental.
//
// --add/--remove/--update apply catalog maintenance on top of the loaded
// directory through the incremental pruner: each op probes the LSH band
// buckets and exact-scores only the touched table's colliding column pairs
// instead of rebuilding the whole shortlist, and prints the per-op scoring
// cost. The probe is lossless only at a positive --min-containment floor,
// so these ops (and --serve) refuse a zero floor.
//
// --serve turns the tool into tjd, a long-lived daemon answering joinable /
// transform-join / add / update / remove / stats requests over a
// unix-domain socket with snapshot-isolated epochs (serve/server.h has the
// protocol); --watch additionally mirrors a directory's *.csv files into
// the live catalog. --client is the matching one-shot request sender
// (each JSON argument is sent as one frame; responses print one per line).
//
// --gen writes a
// synthetic demo corpus (joinable pairs + noise tables) to a directory;
// --selftest runs a set of named end-to-end checks on an in-memory corpus,
// prints each failing check by name, and exits with the number of failed
// checks (used as a ctest smoke test).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchlib/report.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "index/index_cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "table/csv.h"
#include "table/spill_arena.h"

namespace {

tj::Status GenerateDemoCorpus(const std::string& dir, size_t tables,
                              size_t rows, uint64_t seed) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return tj::Status::IOError("cannot create " + dir + ": " + ec.message());
  }
  tj::SynthCorpusOptions options;
  // `tables` counts total tables: 2 per joinable pair plus ~20%% noise.
  options.num_joinable_pairs = tables >= 4 ? tables * 2 / 5 : 1;
  options.num_noise_tables = tables - 2 * options.num_joinable_pairs;
  options.rows = rows;
  options.seed = seed;
  const tj::SynthCorpus corpus = tj::GenerateSynthCorpus(options);
  for (const tj::Table& table : corpus.tables) {
    TJ_RETURN_IF_ERROR(tj::WriteCsvFile(
        table, (fs::path(dir) / (table.name() + ".csv")).string()));
  }
  std::printf("wrote %zu tables (%zu joinable pairs, %zu noise) to %s\n",
              corpus.tables.size(), options.num_joinable_pairs,
              options.num_noise_tables, dir.c_str());
  for (const auto& golden : corpus.golden) {
    std::printf("  joinable: %s.csv <-> %s.csv\n",
                corpus.tables[golden.source_table].name().c_str(),
                corpus.tables[golden.target_table].name().c_str());
  }
  return tj::Status::OK();
}

// ---------------------------------------------------------------------------
// --selftest: named end-to-end checks. Each check prints its own failure
// detail; the driver prints a per-check verdict line so a ctest log
// pinpoints exactly which guarantee regressed.
// ---------------------------------------------------------------------------

tj::Status BuildSelfTestCatalog(const tj::SynthCorpus& corpus,
                                tj::TableCatalog* catalog) {
  for (const tj::Table& table : corpus.tables) {
    TJ_RETURN_IF_ERROR(catalog->AddTable(table).status());
  }
  return tj::Status::OK();
}

/// Each check returns OK or an error whose message says what broke.
///
/// Pruning + golden recall of the end-to-end pipeline (the original smoke
/// check, split so failures name the broken half).
tj::Status CheckPruningRatio(const tj::CorpusDiscoveryResult& result) {
  if (result.PruningRatio() > 0.9) return tj::Status::OK();
  return tj::Status::Internal(tj::StrPrintf(
      "expected > 90%% pruning, got %.1f%%", 100.0 * result.PruningRatio()));
}

tj::Status CheckGoldenJoins(const tj::SynthCorpus& corpus,
                            const tj::CorpusDiscoveryResult& result) {
  for (const auto& golden : corpus.golden) {
    bool found = false;
    for (const tj::CorpusPairResult& pair : result.results) {
      const bool matches =
          (pair.source.table == golden.source_table &&
           pair.target.table == golden.target_table) ||
          (pair.source.table == golden.target_table &&
           pair.target.table == golden.source_table);
      found = found || (matches && pair.joined_rows > 0);
    }
    if (!found) {
      return tj::Status::Internal(
          "golden pair " + corpus.tables[golden.source_table].name() +
          " <-> " + corpus.tables[golden.target_table].name() +
          " not joined");
    }
  }
  return tj::Status::OK();
}

/// Incremental add/remove must match a from-scratch shortlist rebuild.
tj::Status CheckIncrementalEquivalence(const tj::SynthCorpus& corpus) {
  tj::TableCatalog catalog;
  TJ_RETURN_IF_ERROR(BuildSelfTestCatalog(corpus, &catalog));
  catalog.ComputeSignatures();
  const tj::PairPrunerOptions pruner_options;
  tj::IncrementalPairPruner pruner(pruner_options);
  pruner.Rebuild(catalog);

  // Add a table from a differently-prefixed corpus, remove one original.
  tj::SynthCorpusOptions extra_options;
  extra_options.num_joinable_pairs = 1;
  extra_options.num_noise_tables = 0;
  extra_options.rows = 30;
  extra_options.seed = 99;
  extra_options.name_prefix = "inc";
  const tj::SynthCorpus extra = tj::GenerateSynthCorpus(extra_options);

  TJ_ASSIGN_OR_RETURN(const uint32_t added, catalog.AddTable(extra.tables[0]));
  catalog.ComputeSignatures();
  pruner.OnTableAdded(catalog, added);

  const std::string removed_name = corpus.tables[0].name();
  TJ_ASSIGN_OR_RETURN(const uint32_t removed_id,
                      catalog.TableIndex(removed_name));
  TJ_RETURN_IF_ERROR(catalog.RemoveTable(removed_name));
  pruner.OnTableRemoved(removed_id);

  const tj::PairPrunerResult incremental = pruner.Snapshot();
  const tj::PairPrunerResult scratch =
      tj::ShortlistPairs(catalog, pruner_options);
  if (incremental.total_pairs != scratch.total_pairs ||
      incremental.pruned_pairs != scratch.pruned_pairs ||
      incremental.shortlist.size() != scratch.shortlist.size()) {
    return tj::Status::Internal(tj::StrPrintf(
        "totals diverge: incremental %zu/%zu/%zu vs scratch %zu/%zu/%zu",
        incremental.total_pairs, incremental.pruned_pairs,
        incremental.shortlist.size(), scratch.total_pairs,
        scratch.pruned_pairs, scratch.shortlist.size()));
  }
  for (size_t i = 0; i < scratch.shortlist.size(); ++i) {
    if (incremental.shortlist[i] != scratch.shortlist[i]) {
      return tj::Status::Internal(
          tj::StrPrintf("shortlist diverges at rank %zu", i));
    }
  }
  return tj::Status::OK();
}

/// The v2 signature cache must round-trip, and a stale entry (table content
/// changed since the cache was written) must self-invalidate on reload.
tj::Status CheckCacheInvalidation(const tj::SynthCorpus& corpus) {
  tj::TableCatalog catalog;
  TJ_RETURN_IF_ERROR(BuildSelfTestCatalog(corpus, &catalog));
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  tj::TableCatalog reloaded;
  TJ_RETURN_IF_ERROR(BuildSelfTestCatalog(corpus, &reloaded));
  TJ_RETURN_IF_ERROR(reloaded.LoadSignatures(dump));
  for (const tj::ColumnRef ref : reloaded.AllColumns()) {
    if (!reloaded.HasSignature(ref)) {
      return tj::Status::Internal("round-trip left a column unsigned");
    }
  }

  // Mutate one table: its cache block must be skipped on reload.
  tj::TableCatalog stale;
  TJ_RETURN_IF_ERROR(BuildSelfTestCatalog(corpus, &stale));
  tj::Table mutated = corpus.tables[0];
  mutated.mutable_column(0).Set(0, "mutated-cell-value");
  TJ_ASSIGN_OR_RETURN(const uint32_t mutated_id,
                      stale.UpdateTable(std::move(mutated)));
  // A stale block is skipped, not fatal.
  TJ_RETURN_IF_ERROR(stale.LoadSignatures(dump));
  if (stale.HasSignature(tj::ColumnRef{mutated_id, 0})) {
    return tj::Status::Internal("stale sketch was served for a mutated table");
  }

  // Malformed input fails closed.
  if (stale.LoadSignatures("# tj-signatures v2\ngarbage\n").ok()) {
    return tj::Status::Internal("malformed dump was accepted");
  }
  return tj::Status::OK();
}

int SelfTest() {
  tj::SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 4;
  corpus_options.num_noise_tables = 2;
  corpus_options.rows = 30;
  corpus_options.seed = 5;
  const tj::SynthCorpus corpus = tj::GenerateSynthCorpus(corpus_options);
  tj::TableCatalog catalog;
  const tj::Status built = BuildSelfTestCatalog(corpus, &catalog);
  if (!built.ok()) {
    std::fprintf(stderr, "selftest: cannot build catalog: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  tj::CorpusDiscoveryOptions options;
  options.num_threads = 2;
  const tj::CorpusDiscoveryResult result =
      tj::DiscoverJoinableColumns(&catalog, options);
  std::printf("%s", result.Describe(catalog).c_str());

  const std::pair<const char*, tj::Status> checks[] = {
      {"pruning-ratio", CheckPruningRatio(result)},
      {"golden-joins", CheckGoldenJoins(corpus, result)},
      {"incremental-equivalence", CheckIncrementalEquivalence(corpus)},
      {"cache-invalidation", CheckCacheInvalidation(corpus)},
  };
  int failed = 0;
  for (const auto& [name, status] : checks) {
    std::printf("selftest check %-26s %s\n", name,
                status.ok() ? "OK" : "FAIL");
    if (!status.ok()) {
      std::fprintf(stderr, "  %s\n", status.ToString().c_str());
      ++failed;
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failed);
    return failed;
  }
  std::printf("selftest: OK (%zu pairs evaluated, %.1f%% pruned)\n",
              result.results.size(), 100.0 * result.PruningRatio());
  return 0;
}

struct MaintenanceOp {
  enum Kind { kAdd, kRemove, kUpdate } kind;
  std::string arg;  // CSV path for add/update, table name for remove
};

/// Applies one maintenance op to the catalog and the live pruner, which
/// rescores only the touched table's pairs, and prints that cost.
tj::Status ApplyOp(const MaintenanceOp& op, const tj::StorageOptions& storage,
                   tj::TableCatalog* catalog,
                   tj::IncrementalPairPruner* pruner, tj::ThreadPool* pool) {
  using namespace tj;
  if (op.kind == MaintenanceOp::kRemove) {
    TJ_ASSIGN_OR_RETURN(const uint32_t id, catalog->TableIndex(op.arg));
    TJ_RETURN_IF_ERROR(catalog->RemoveTable(op.arg));
    pruner->OnTableRemoved(id);
    std::printf("removed %s (no rescoring)\n", op.arg.c_str());
    return Status::OK();
  }
  TJ_ASSIGN_OR_RETURN(Table table, ReadCsvFile(op.arg, CsvOptions(), storage));
  table.set_name(std::filesystem::path(op.arg).stem().string());
  const bool add = op.kind == MaintenanceOp::kAdd;
  TJ_ASSIGN_OR_RETURN(const uint32_t id,
                      add ? catalog->AddTable(std::move(table))
                          : catalog->UpdateTable(std::move(table)));
  catalog->ComputeSignatures(pool);
  if (add) {
    pruner->OnTableAdded(*catalog, id, pool);
  } else {
    pruner->OnTableUpdated(*catalog, id, pool);
  }
  std::printf(add ? "added %s: scored %zu column pairs\n"
                  : "updated %s: rescored %zu column pairs\n",
              op.arg.c_str(), pruner->last_scored_pairs());
  return Status::OK();
}

// The tool's modes, as bits of Flag::modes. Batch discovery is the default;
// a mode flag switches to one of the others.
enum Mode : unsigned {
  kBatch = 1, kServe = 2, kGen = 4, kClient = 8, kSelfTest = 16
};
constexpr unsigned kDiscovery = kBatch | kServe;

const std::vector<std::string_view> kSynopsis = {
    "<csv-dir> [flags]",
    "<csv-dir> --serve SOCKET [--watch DIR] [flags]",
    "--client SOCKET JSON...",
    "--gen DIR [--tables N] [--rows N] [--seed S]",
    "--selftest",
};

struct Args {
  unsigned mode = kBatch;
  std::string_view mode_name = "batch";
  std::string mode_arg;  // the socket of --serve/--client, the dir of --gen
  tj::CorpusDiscoveryOptions options;
  tj::StorageOptions storage;
  // The daemon's options; a batch run uses its index-cache budget too.
  tj::serve::ServeOptions serve;
  size_t top = 20;
  std::string signatures_path;
  std::string out_path;
  size_t tables = 10;
  size_t rows = 40;
  uint64_t seed = 1;
  std::vector<MaintenanceOp> ops;
};

std::vector<tj::flags::Flag> Flags(Args* a) {
  namespace flags = tj::flags;
  using flags::Flag;
  using tj::Status;
  std::vector<Flag> rows;
  const auto add = [&rows](unsigned modes, std::vector<Flag> group) {
    for (Flag& flag : group) {
      flag.modes = modes;
      rows.push_back(std::move(flag));
    }
  };
  // A mode flag switches the tool into its mode; two different ones clash.
  const auto mode = [a](std::string_view name, std::string_view value,
                        std::string_view help, Mode m) {
    return Flag{name, value, help, [=](std::string_view v) {
                  if (a->mode != kBatch && a->mode != m) {
                    return Status::InvalidArgument(
                        "only one of --serve, --client, --gen, --selftest");
                  }
                  a->mode = m;
                  a->mode_name = name;
                  a->mode_arg = std::string(v);
                  return Status::OK();
                }};
  };
  const auto op = [a](std::string_view name, std::string_view value,
                      std::string_view help, MaintenanceOp::Kind kind) {
    return Flag{name, value, help, [=](std::string_view v) {
                  a->ops.push_back({kind, std::string(v)});
                  return Status::OK();
                }};
  };
  add(kDiscovery,
      {flags::Threads(&a->options.num_threads),
       flags::Number("--min-containment", "F",
                     "sketch containment pruning floor in [0, 1] (default "
                     "0.05); 0 = brute force, batch runs without ops only",
                     &a->options.pruner.min_containment, 0.0, 1.0),
       flags::Number("--max-candidates", "N",
                     "keep the N top-ranked candidate pairs (0 = all)",
                     &a->options.pruner.max_candidates, 0, SIZE_MAX),
       flags::Support(&a->options.join.min_join_support),
       flags::Text("--signatures", "FILE",
                   "load/save the column sketch cache (stale entries "
                   "self-invalidate)",
                   &a->signatures_path),
       flags::SpillDir(&a->storage.spill_dir),
       flags::MemoryBudget(&a->storage.memory_budget_bytes),
       flags::Bytes("--index-cache-budget", "BYTES",
                    "inverted-index cache budget (default 256m, 0 = "
                    "unlimited); per epoch with --serve",
                    &a->serve.index_cache_budget_bytes),
       flags::Number("--lsh-bands", "N",
                     "LSH probe bands of the live pruner (default 128 x 1 "
                     "row: lossless; coarser trades recall for speed)",
                     &a->options.pruner.lsh.bands, 1, SIZE_MAX),
       flags::Number("--lsh-rows", "N", "rows per LSH band",
                     &a->options.pruner.lsh.rows_per_band, 1, SIZE_MAX),
       flags::Failpoints()});
  add(kBatch,
      {flags::Number("--top", "K", "print the top K results (default 20)",
                     &a->top, 0, SIZE_MAX),
       flags::Out(&a->out_path),
       op("--add", "FILE",
          "add a table and rescore only its LSH-colliding pairs "
          "(repeatable; ops run in order)",
          MaintenanceOp::kAdd),
       op("--remove", "NAME", "remove a table", MaintenanceOp::kRemove),
       op("--update", "FILE", "replace the table named by FILE's stem",
          MaintenanceOp::kUpdate)});
  add(kServe,
      {mode("--serve", "SOCKET",
            "run as tjd, answering JSON requests on the unix socket (see "
            "README)",
            kServe),
       flags::Text("--watch", "DIR",
                   "mirror DIR's *.csv files into the served catalog",
                   &a->serve.watch_dir)});
  add(kClient, {mode("--client", "SOCKET",
                     "send each JSON argument to a running tjd; print each "
                     "response",
                     kClient)});
  add(kGen,
      {mode("--gen", "DIR", "write a synthetic demo corpus to DIR", kGen),
       flags::Number("--tables", "N", "tables to generate (default 10)",
                     &a->tables, 2, SIZE_MAX),
       flags::Number("--rows", "N", "rows per table (default 40)", &a->rows,
                     1, SIZE_MAX),
       flags::Number("--seed", "S", "generator seed (default 1)", &a->seed, 0,
                     UINT64_MAX)});
  add(kSelfTest, {mode("--selftest", "",
                       "run the named end-to-end checks; exit with the "
                       "number of failures",
                       kSelfTest)});
  rows.push_back(flags::Simd());  // every mode
  return rows;
}

// ---------------------------------------------------------------------------
// --client: one-shot request sender for a running daemon.
// ---------------------------------------------------------------------------

tj::Status RunClient(const std::string& socket,
                     const std::vector<std::string>& requests) {
  tj::serve::ServeClient client;
  TJ_RETURN_IF_ERROR(client.Connect(socket));
  int failed = 0;
  for (const std::string& request : requests) {
    TJ_ASSIGN_OR_RETURN(const std::string response, client.CallRaw(request));
    std::printf("%s\n", response.c_str());
    // Reflect protocol-level failures in the exit code so shell scripts
    // can branch on them without parsing JSON.
    const auto parsed = tj::serve::JsonValue::Parse(response);
    if (parsed.ok()) {
      const tj::serve::JsonValue* ok = parsed->Find("ok");
      if (ok != nullptr && ok->is_bool() && !ok->AsBool()) ++failed;
    }
  }
  if (failed == 0) return tj::Status::OK();
  return tj::Status::Internal(tj::StrPrintf("%d request(s) failed", failed));
}

// ---------------------------------------------------------------------------
// --serve: the tjd daemon loop.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal_stop = 0;

void OnStopSignal(int) { g_signal_stop = 1; }

/// Writes the catalog's signatures to `path` when one was given; a failure
/// is reported and otherwise ignored (the cache only saves re-sketching).
void SaveSignatureCache(const tj::TableCatalog& catalog,
                        const std::string& path) {
  if (path.empty()) return;
  const tj::Status saved = catalog.SaveSignaturesToFile(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error saving signature cache: %s\n",
                 saved.ToString().c_str());
  }
}

tj::Status RunDaemon(tj::TableCatalog* catalog,
                     tj::serve::ServeOptions options, int num_threads,
                     const std::string& signatures_path) {
  // One pool for the daemon's whole life: signatures, shortlist
  // maintenance, and every served query's per-pair fan-out (all serialized
  // by the server's compute gate).
  tj::ThreadPool pool(num_threads);
  tj::serve::CorpusServer server(catalog, &pool, std::move(options));
  TJ_RETURN_IF_ERROR(server.Start());
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  const auto snapshot = server.current_snapshot();
  std::printf("tjd: serving %zu tables (%zu columns, %zu shortlisted "
              "pairs) at epoch %llu\n",
              snapshot->num_tables(), snapshot->num_columns(),
              snapshot->shortlist().shortlist.size(),
              static_cast<unsigned long long>(snapshot->epoch()));
  // WaitFor instead of Wait: a signal handler can only set a flag, so the
  // main thread has to poll it between condition waits.
  while (g_signal_stop == 0 && !server.WaitFor(200)) {
  }
  std::printf("tjd: shutting down (served %llu queries, applied %llu "
              "mutations)\n",
              static_cast<unsigned long long>(server.queries_served()),
              static_cast<unsigned long long>(server.mutations_applied()));
  server.Shutdown();
  // Only now is the catalog quiesced: saving while serving would race the
  // server's mutation thread.
  SaveSignatureCache(*catalog, signatures_path);
  return tj::Status::OK();
}

/// Batch discovery (with any maintenance ops) or the daemon over `dir`.
tj::Status Discover(Args* args, const std::string& dir) {
  using namespace tj;
  CorpusDiscoveryOptions& options = args->options;
  const StorageOptions& storage = args->storage;
  if (storage.spill_enabled()) {
    TJ_RETURN_IF_ERROR(EnsureSpillDir(storage.spill_dir));
  }
  TableCatalog catalog(SignatureOptions(), storage);
  TJ_ASSIGN_OR_RETURN(const auto loaded, catalog.AddCsvDirectory(dir));
  if (loaded.skipped > 0) {
    std::fprintf(stderr,
                 "warning: skipped %zu unreadable file(s) under %s\n",
                 loaded.skipped, dir.c_str());
  }
  // The 2-table floor is checked after the --add/--remove/--update ops run:
  // an --add may bootstrap a 1-table directory into a valid catalog.
  std::printf("catalog: %zu tables, %zu columns", catalog.num_tables(),
              catalog.num_columns());
  if (storage.spill_enabled()) {
    std::printf(" (%zu bytes spilled, %zu resident)",
                catalog.SpilledBytes(), catalog.ResidentCellBytes());
  }
  std::printf("\n");

  if (!args->signatures_path.empty() &&
      std::filesystem::exists(args->signatures_path)) {
    const Status loaded =
        catalog.LoadSignaturesFromFile(args->signatures_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "ignoring signature cache %s: %s\n",
                   args->signatures_path.c_str(), loaded.ToString().c_str());
    } else {
      std::printf("loaded signature cache from %s\n",
                  args->signatures_path.c_str());
    }
  }

  if (args->mode == kServe) {
    args->serve.socket_path = args->mode_arg;
    args->serve.discovery = options;
    return RunDaemon(&catalog, std::move(args->serve), options.num_threads,
                     args->signatures_path);
  }

  // One cache spans the whole invocation: the batch run's pre-warm, or —
  // in the incremental flow — every post-maintenance shortlist evaluation.
  IndexCache index_cache(args->serve.index_cache_budget_bytes);
  options.index_cache = &index_cache;

  CorpusDiscoveryResult result;
  if (args->ops.empty()) {
    if (catalog.num_tables() < 2) {
      return Status::InvalidArgument(StrPrintf(
          "%s holds %zu table(s); need at least 2", dir.c_str(),
          catalog.num_tables()));
    }
    result = DiscoverJoinableColumns(&catalog, options);
  } else {
    // Incremental flow: build the shortlist once, then fold each
    // maintenance op in by rescoring only the touched table's pairs.
    ThreadPool pool(options.num_threads);
    catalog.ComputeSignatures(&pool);
    IncrementalPairPruner pruner(options.pruner);
    pruner.Rebuild(catalog, &pool);
    for (const MaintenanceOp& op : args->ops) {
      TJ_RETURN_IF_ERROR(ApplyOp(op, storage, &catalog, &pruner, &pool));
    }
    if (catalog.num_tables() < 2) {
      return Status::InvalidArgument(StrPrintf(
          "catalog holds %zu table(s) after maintenance ops; need at least 2",
          catalog.num_tables()));
    }
    // Reuse the maintenance pool so the whole incremental run — sketches,
    // rescoring, and the pair-level fan-out — stays on exactly one pool.
    result = EvaluateShortlist(catalog, pruner.Snapshot(), options, &pool);
  }

  SaveSignatureCache(catalog, args->signatures_path);

  std::printf("column pairs: %zu total, %zu pruned (%.1f%%), %zu evaluated\n",
              result.total_column_pairs, result.pruned_pairs,
              100.0 * result.PruningRatio(), result.results.size());
  const IndexCacheStats cache_stats = index_cache.GetStats();
  std::printf("index cache: %llu hits, %llu misses, %llu evictions, "
              "%llu bytes\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.evictions),
              static_cast<unsigned long long>(cache_stats.bytes));
  // Metadata-only names: printing must not re-map evicted tables.
  const auto spec = [&catalog](ColumnRef ref) {
    return catalog.table_name(ref.table) + "." + catalog.column_name(ref);
  };
  TablePrinter printer({"rank", "source", "target", "score", "pairs",
                        "joined", "coverage", "best transformation"});
  const size_t n = std::min(args->top, result.results.size());
  for (size_t i = 0; i < n; ++i) {
    const CorpusPairResult& r = result.results[i];
    printer.AddRow(
        {StrPrintf("%zu", i + 1),
         spec(r.source), spec(r.target),
         FormatDouble(r.candidate.score, 3), StrPrintf("%zu", r.learning_pairs),
         StrPrintf("%zu", r.joined_rows), FormatDouble(r.top_coverage, 2),
         r.transformations.empty() ? "-" : r.transformations.front()});
  }
  printer.Print();

  if (!args->out_path.empty()) {
    Table out("corpus_results");
    Column source("source"), target("target"), score("score"),
        pairs("learning_pairs"), joined("joined_rows"), cov("top_coverage"),
        rules("transformations");
    for (const CorpusPairResult& r : result.results) {
      source.Append(spec(r.source));
      target.Append(spec(r.target));
      score.Append(StrPrintf("%.6f", r.candidate.score));
      pairs.Append(StrPrintf("%zu", r.learning_pairs));
      joined.Append(StrPrintf("%zu", r.joined_rows));
      cov.Append(StrPrintf("%.4f", r.top_coverage));
      rules.Append(JoinStrings(r.transformations, " ; "));
    }
    for (Column* c : {&source, &target, &score, &pairs, &joined, &cov,
                      &rules}) {
      TJ_RETURN_IF_ERROR(out.AddColumn(std::move(*c)));
    }
    TJ_RETURN_IF_ERROR(WriteCsvFile(out, args->out_path));
    std::printf("results written to %s\n", args->out_path.c_str());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tj;
  Args args;
  args.options.num_threads = 0;  // all cores
  flags::FlagTable table(Flags(&args));
  std::vector<std::string> positional;
  Status parsed = table.Parse(argc, argv, &positional);
  if (parsed.ok()) parsed = table.CheckMode(args.mode, args.mode_name);
  // Batch and serve runs name one corpus directory; a client sends at
  // least one request; --gen and --selftest take no arguments.
  const bool arguments_fit =
      (args.mode & kDiscovery) != 0 ? positional.size() == 1
      : args.mode == kClient        ? !positional.empty()
                                    : positional.empty();
  if (parsed.ok() && !arguments_fit) parsed = flags::Accept(false);
  // Reject malformed configuration up front with a message instead of a
  // downstream TJ_CHECK abort: the same ValidateOptions surface the daemon
  // uses to turn bad client requests into error responses.
  if (parsed.ok()) parsed = ValidateOptions(args.options);
  if (parsed.ok()) parsed = ValidateOptions(args.storage);
  // Maintenance ops and the daemon run the live pruner, whose LSH probe
  // cannot see the zero-score pairs a zero floor keeps.
  PairPrunerOptions& pruner = args.options.pruner;
  const bool positive_floor = pruner.min_containment > 0.0;
  const bool live_pruner = !args.ops.empty() || args.mode == kServe;
  if (parsed.ok() && live_pruner && !positive_floor) {
    parsed = Status::InvalidArgument(
        "--add/--remove/--update and --serve need a positive "
        "--min-containment (0 = brute force is batch-only)");
  }
  if (!parsed.ok()) return table.UsageError(argv[0], kSynopsis, parsed);
  if (!positive_floor) pruner.require_charset_overlap = false;  // brute force
  if (live_pruner && !LshIndex::GuaranteesRecall(pruner.lsh,
                                                 SignatureOptions().num_hashes,
                                                 pruner.min_containment)) {
    std::fprintf(stderr,
                 "note: LSH banding %zux%zu is approximate; low-overlap "
                 "pairs may be missed (128x1 is lossless)\n",
                 pruner.lsh.bands, pruner.lsh.rows_per_band);
  }

  if (args.mode == kSelfTest) return SelfTest();
  const Status ran =
      args.mode == kClient ? RunClient(args.mode_arg, positional)
      : args.mode == kGen
          ? GenerateDemoCorpus(args.mode_arg, args.tables, args.rows, args.seed)
          : Discover(&args, positional[0]);
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.ToString().c_str());
    return 1;
  }
  return 0;
}
