// serve_mixed: an in-process CorpusServer (the tjd daemon) on a synthetic
// corpus, driven over its unix socket by an open loop.
//
// Requests are due at Poisson arrival times of a fixed rate whatever the
// server does; queries travel on one connection and updates on another,
// and each request is timed from when it was due, so a stall also charges
// the requests queued behind it. The mix: `joinable` on every shortlisted
// column of the corpus in a seeded order, `transform-join` on golden
// pairs, and an `update` (which bumps the epoch and so empties the
// per-epoch index cache) every kServeUpdateEvery-th request. A seeded
// sample of `joinable` responses is checked byte for byte against a batch
// evaluation of the same tables at the epoch that answered.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/corpus_discovery.h"
#include "datagen/corpus.h"
#include "harness.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "table/csv.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tj;
namespace fs = std::filesystem;

/// The corpus. Short tables keep a `joinable` on a golden column to ~13 ms,
/// so a 20 s run holds ~340 queries at a fifth of the capacity (with 40
/// rows at a third of the rate, query p50 and capacity spread ~0.11 over
/// six seeds, against 0.04-0.09 with 20 rows); 32 pairs give a seed's
/// queries ~60 golden columns to spread over.
constexpr size_t kJoinablePairs = 32;
constexpr size_t kNoiseTables = 32;
constexpr size_t kRows = 20;
/// Tables the updates rewrite (alternating two contents each), and their
/// rows.
constexpr size_t kUpdatedTables = 3;
constexpr size_t kUpdatedRows = 3000;
/// Expected number of `joinable` responses checked against a batch run.
constexpr double kVerifiedResponses = 8;
/// A connection thread sleeps until this long before a request is due and
/// spins for the rest (see WaitUntil).
constexpr int64_t kSpinAheadNs = 2'000'000;
/// Seed of the arrival schedule (fixed; see Schedule).
constexpr uint64_t kArrivalSeed = 0x5eed;
/// Every kOtherColumnEvery-th `joinable` asks about a shortlisted column
/// outside the golden pairs' tables (about the share such columns have in
/// the shortlist).
constexpr size_t kOtherColumnEvery = 4;

enum class Kind { kJoinable, kTransformJoin, kUpdate };

struct Request {
  Kind kind = Kind::kJoinable;
  std::string payload;
  size_t golden = 0;  // transform-join: index into golden pairs
  bool verify = false;
  // Filled by the connection thread.
  int64_t due_ns = 0, sent_ns = 0, done_ns = 0;
  bool ok = false;
  std::string response;
};

struct Setup {
  std::vector<Table> tables;
  std::vector<std::pair<size_t, size_t>> golden;  // table indexes
  /// "table.column" queried by joinable, in a seeded order: the
  /// shortlisted columns of the golden pairs' tables, and the other
  /// shortlisted columns.
  std::vector<std::string> pair_columns, other_columns;
  /// Per updated table: its two contents, and the CSV paths they are
  /// written to (by WriteUpdateFiles).
  std::vector<std::array<Table, 2>> update_contents;
  std::vector<std::array<std::string, 2>> update_paths;
};

Setup Generate(uint64_t seed) {
  Setup s;
  SynthCorpusOptions options;
  options.num_joinable_pairs = kJoinablePairs;
  options.num_noise_tables = kNoiseTables;
  options.rows = kRows;
  options.seed = seed * 13 + 5;
  options.name_prefix = "s";
  options.keep_row_ground_truth = false;
  SynthCorpus corpus = GenerateSynthCorpus(options);
  for (const auto& g : corpus.golden) {
    s.golden.push_back({g.source_table, g.target_table});
  }
  s.tables = std::move(corpus.tables);
  // Query columns: every column the initial shortlist holds (a column with
  // no candidate answers in microseconds, and a mix of those and real
  // evaluations put the median on the boundary between the two). A column
  // of a golden pair's table costs a learner run per candidate; the others
  // answer in a few milliseconds (their candidates fail early), so the two
  // kinds are kept apart and asked in a fixed proportion (see Schedule).
  Rng order(seed * 13 + 8);
  {
    TableCatalog catalog;
    for (const Table& t : s.tables) TJ_CHECK(catalog.AddTable(t).ok());
    catalog.ComputeSignatures();
    std::set<ColumnRef> seen;
    for (const ColumnPairCandidate& c :
         ShortlistPairs(catalog, PairPrunerOptions()).shortlist) {
      seen.insert(c.a);
      seen.insert(c.b);
    }
    std::set<std::string> golden_tables;
    for (const auto& [src, tgt] : s.golden) {
      golden_tables.insert(s.tables[src].name());
      golden_tables.insert(s.tables[tgt].name());
    }
    for (const ColumnRef ref : seen) {
      const std::string& table = catalog.table_name(ref.table);
      (golden_tables.count(table) ? s.pair_columns : s.other_columns)
          .push_back(table + "." + catalog.column_name(ref));
    }
    TJ_CHECK(!s.pair_columns.empty());
    order.Shuffle(&s.pair_columns);
    order.Shuffle(&s.other_columns);
  }

  // The tables the updates rewrite, each with two contents. Their cells
  // are Greek letters, a character class no other column has, so the
  // pruner never shortlists them: an update costs its own work (parse,
  // sketch, rescore, snapshot) and no query touches these tables, and the
  // update cost is large enough that thread wake-ups do not dominate it.
  Rng rng(seed * 13 + 6);
  const std::string_view greek = "αβγδεζηθικλμνξοπρστυφχψω";
  for (size_t u = 0; u < kUpdatedTables; ++u) {
    const std::string name = "log" + std::to_string(u);
    std::array<Table, 2> contents;
    for (int v = 0; v < 2; ++v) {
      Table& content = contents[v];
      content.set_name(name);
      Column entries("entry");
      for (size_t row = 0; row < kUpdatedRows; ++row) {
        std::string cell;
        const auto letters = static_cast<size_t>(rng.UniformInt(8, 16));
        for (size_t k = 0; k < letters; ++k) {
          cell += greek.substr(2 * rng.Uniform(greek.size() / 2), 2);
        }
        entries.Append(cell);
      }
      TJ_CHECK(content.AddColumn(std::move(entries)).ok());
    }
    s.tables.push_back(contents[0]);
    s.update_contents.push_back(std::move(contents));
  }
  return s;
}

/// Writes the updated tables' contents to CSV files under `dir`, once per
/// run and outside the timed set-up: the updates send these files, and
/// writing them is the harness's own preparation, not the server's.
void WriteUpdateFiles(const std::string& dir, Setup* s) {
  for (const std::array<Table, 2>& contents : s->update_contents) {
    std::array<std::string, 2> paths;
    for (int v = 0; v < 2; ++v) {
      const fs::path d = fs::path(dir) / (v == 0 ? "v0" : "v1");
      fs::create_directories(d);
      paths[v] = (d / (contents[v].name() + ".csv")).string();
      TJ_CHECK(WriteCsvFile(contents[v], paths[v]).ok());
    }
    s->update_paths.push_back(paths);
  }
}

/// Path the j-th update sends: updated table j % n, toggling its content.
const std::string& UpdatePath(const Setup& s, size_t j) {
  const size_t n = s.update_paths.size();
  return s.update_paths[j % n][(j / n + 1) % 2];
}

/// The arrival times: rate x seconds requests at Poisson arrival times (a
/// Poisson process conditioned on its count puts them at sorted uniform
/// times). The schedule is the same for every seed, so runs on different
/// seeds differ in their tables and requests, not in how bursty the load
/// is; the seed picks what each request asks. The kinds follow a fixed
/// pattern too (every kServeUpdateEvery-th request an update, every
/// kServeTransformJoinEvery-th of the rest a transform-join, every
/// kOtherColumnEvery-th joinable on a column outside the golden pairs),
/// and each kind walks its list in turn, so every column is asked
/// about equally often: when the kinds and columns were drawn at random,
/// the share of cheap answers varied from seed to seed and moved the
/// median with it.
std::vector<Request> Schedule(const Setup& s, uint64_t seed, double seconds,
                              int64_t start_ns) {
  const auto n = static_cast<size_t>(kServeArrivalPerSecond * seconds);
  Rng arrivals(kArrivalSeed);
  std::vector<double> due_s(n);
  for (double& t : due_s) t = arrivals.NextDouble() * seconds;
  std::sort(due_s.begin(), due_s.end());
  Rng rng(seed * 13 + 7);
  std::vector<Request> requests(n);
  const double expected_joinable =
      static_cast<double>(n) * (1.0 - 1.0 / kServeUpdateEvery) *
      (1.0 - 1.0 / kServeTransformJoinEvery);
  size_t updates = 0, queries = 0, transform_joins = 0, joinables = 0;
  size_t pair_asked = 0, other_asked = 0;
  for (size_t i = 0; i < n; ++i) {
    Request& r = requests[i];
    r.due_ns = start_ns + static_cast<int64_t>(due_s[i] * 1e9);
    if ((i + 1) % kServeUpdateEvery == 0) {
      r.kind = Kind::kUpdate;
      r.payload = "{\"op\":\"update\",\"path\":\"" +
                  UpdatePath(s, updates++) + "\"}";
    } else if (++queries % kServeTransformJoinEvery == 0) {
      r.kind = Kind::kTransformJoin;
      r.golden = transform_joins++ % s.golden.size();
      const auto [src, tgt] = s.golden[r.golden];
      r.payload = "{\"op\":\"transform-join\",\"source\":\"" +
                  s.tables[src].name() + ".value\",\"target\":\"" +
                  s.tables[tgt].name() + ".value\"}";
    } else {
      r.kind = Kind::kJoinable;
      const bool other = ++joinables % kOtherColumnEvery == 0 &&
                         !s.other_columns.empty();
      const std::string& column =
          other ? s.other_columns[other_asked++ % s.other_columns.size()]
                : s.pair_columns[pair_asked++ % s.pair_columns.size()];
      r.payload = "{\"op\":\"joinable\",\"column\":\"" + column + "\"}";
      r.verify = rng.Bernoulli(kVerifiedResponses / expected_joinable);
    }
  }
  return requests;
}

/// Waits until `due_ns` (NowNs() clock): sleeps until kSpinAheadNs before
/// it and spins for the rest, so a late wake-up of the client thread does
/// not count as the server's latency. The spin yields, so it gives way to
/// any other runnable thread.
void WaitUntil(int64_t due_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due_ns - kSpinAheadNs)));
  while (NowNs() < due_ns) std::this_thread::yield();
}

/// One client connection to the server's socket, speaking its frame
/// protocol. Unlike serve::ServeClient, which blocks in read(), a call
/// spins on poll() (yielding) until the response is readable: the client
/// thread then never waits for a core to wake it, so the round trip holds
/// the server's time and not the client's. With a blocked client, the
/// server's capacity fell by a third in slow periods of the shared
/// machine, twice as much as corpus_discover's throughput in the same
/// minutes.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }

  Status Connect(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IOError("socket failed");
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long");
    }
    socket_path.copy(addr.sun_path, socket_path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError("connect failed: " + socket_path);
    }
    return Status::OK();
  }

  Result<std::string> Call(const std::string& payload) {
    TJ_RETURN_IF_ERROR(serve::WriteFrame(fd_, payload));
    pollfd readable = {fd_, POLLIN, 0};
    while (::poll(&readable, 1, 0) == 0) std::this_thread::yield();
    return serve::ReadFrame(fd_);
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

bool ResponseOk(const std::string& response, serve::JsonValue* parsed) {
  auto json = serve::JsonValue::Parse(response);
  if (!json.ok()) return false;
  const serve::JsonValue* ok = json->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) return false;
  *parsed = std::move(*json);
  return true;
}

/// Stats counters of the epoch being served.
struct CacheCounters {
  double hits = 0, misses = 0, bytes = 0, rebuilds = 0;
};
CacheCounters ReadStats(Connection* connection) {
  CacheCounters c;
  auto response = connection->Call("{\"op\":\"stats\"}");
  serve::JsonValue json;
  if (!response.ok() || !ResponseOk(*response, &json)) return c;
  c.hits = json.Find("index_cache_hits")->AsNumber();
  c.misses = json.Find("index_cache_misses")->AsNumber();
  c.bytes = json.Find("index_cache_bytes")->AsNumber();
  c.rebuilds = json.Find("snapshot_rebuilds")->AsNumber();
  return c;
}

/// Re-evaluates the sampled `joinable` responses in batch: the same
/// initial tables and the same updates up to the answering epoch, then
/// PairResultToJson(EvaluateCandidate(...)) for every shortlisted
/// candidate of the column, which must equal the served results byte for
/// byte. Returns the failures.
std::vector<std::string> VerifySamples(const Setup& s,
                                       const std::vector<Request>& requests) {
  std::map<uint64_t, std::vector<const Request*>> by_epoch;
  for (const Request& r : requests) {
    if (!r.verify || !r.ok) continue;
    auto json = serve::JsonValue::Parse(r.response);
    by_epoch[static_cast<uint64_t>(json->Find("epoch")->AsNumber())]
        .push_back(&r);
  }
  std::vector<std::string> failures;
  ThreadPool pool(kThreads);
  TableCatalog catalog;
  for (const Table& t : s.tables) TJ_CHECK(catalog.AddTable(t).ok());
  size_t applied = 0;
  const CorpusDiscoveryOptions options;
  for (const auto& [epoch, samples] : by_epoch) {
    while (catalog.mutation_epoch() < epoch) {
      Result<Table> table = ReadCsvFile(UpdatePath(s, applied++));
      TJ_CHECK(table.ok());
      table->set_name(fs::path(UpdatePath(s, applied - 1)).stem().string());
      TJ_CHECK(catalog.UpdateTable(*std::move(table)).ok());
    }
    if (catalog.mutation_epoch() != epoch) {
      failures.push_back("serve_mixed: no batch state for epoch " +
                         std::to_string(epoch));
      continue;
    }
    catalog.ComputeSignatures(&pool);
    const PairPrunerResult shortlist =
        ShortlistPairs(catalog, options.pruner, &pool);
    for (const Request* r : samples) {
      auto response = serve::JsonValue::Parse(r->response);
      const std::string spec = response->Find("column")->AsString();
      serve::JsonValue expected = serve::JsonValue::Array();
      for (const ColumnPairCandidate& c : shortlist.shortlist) {
        const std::string a =
            catalog.table_name(c.a.table) + "." + catalog.column_name(c.a);
        const std::string b =
            catalog.table_name(c.b.table) + "." + catalog.column_name(c.b);
        if (a != spec && b != spec) continue;
        expected.Append(serve::PairResultToJson(
            catalog, EvaluateCandidate(catalog, c, options, &pool,
                                       options.use_orientation_hints)));
      }
      if (expected.Serialize() != response->Find("results")->Serialize()) {
        failures.push_back("serve_mixed: joinable " + spec + " at epoch " +
                           std::to_string(epoch) +
                           " differs from the batch evaluation");
      }
    }
  }
  return failures;
}

}  // namespace

Outcome RunServeMixed(const Args& args, double seconds, bool traced) {
  Outcome out;
  SetTracing(traced);
  const std::string dir =
      WorkDir() + "/serve-" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/tjd.sock";

  // Set-up: generate, fill, and start the server (signatures, shortlist,
  // first snapshot, socket), repeated; the last server is measured.
  std::vector<double> setup_s, fill_ms;
  Setup setup;
  std::unique_ptr<TableCatalog> catalog;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<serve::CorpusServer> server;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    if (server) server->Shutdown();
    server.reset();
    pool.reset();
    catalog.reset();
    const int64_t start = NowNs();
    setup = Generate(args.seed);
    catalog = std::make_unique<TableCatalog>();
    const int64_t fill_start = NowNs();
    {
      Span span("table.fill", 0);
      for (const Table& t : setup.tables) TJ_CHECK(catalog->AddTable(t).ok());
    }
    fill_ms.push_back(static_cast<double>(NowNs() - fill_start) / 1e6);
    pool = std::make_unique<ThreadPool>(kServePoolThreads);
    serve::ServeOptions options;
    options.socket_path = socket_path;
    server = std::make_unique<serve::CorpusServer>(catalog.get(), pool.get(),
                                                   options);
    const Status started = server->Start();
    if (!started.ok()) {
      out.gate_failures.push_back("serve_mixed: server start failed: " +
                                  started.ToString());
      return out;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  ClearSpans();
  WriteUpdateFiles(dir, &setup);

  std::vector<Connection> clients(kServeConnections);
  for (Connection& client : clients) {
    if (!client.Connect(socket_path).ok()) {
      out.gate_failures.push_back("serve_mixed: cannot connect");
      server->Shutdown();
      return out;
    }
  }
  // The open loop; the first request may be due 100 ms from now.
  const int64_t start_ns = NowNs() + 100'000'000;
  std::vector<Request> requests =
      Schedule(setup, args.seed, seconds, start_ns);
  // Connection 0 sends the queries, connection 1 the updates (in order).
  std::vector<CacheCounters> epoch_stats;  // written by connection 1 only
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      for (Request& r : requests) {
        if ((r.kind == Kind::kUpdate) != (c == 1)) continue;
        WaitUntil(r.due_ns);
        if (traced && r.kind == Kind::kUpdate) {
          // Cache counters of the epoch this update is about to end.
          epoch_stats.push_back(ReadStats(&clients[c]));
        }
        r.sent_ns = NowNs();
        auto response = clients[c].Call(r.payload);
        r.done_ns = NowNs();
        serve::JsonValue json;
        r.ok = response.ok() && ResponseOk(*response, &json);
        if (r.ok) r.response = std::move(*response);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CacheCounters final_stats;
  if (traced) final_stats = ReadStats(&clients[0]);
  for (Connection& client : clients) client.Close();
  server->Shutdown();

  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const uint64_t span =
        RecordInterval("serve.request", i + 1, 0, r.due_ns, r.done_ns);
    RecordInterval("serve.send_lag", i + 1, span, r.due_ns, r.sent_ns);
    RecordInterval("serve.round_trip", i + 1, span, r.sent_ns, r.done_ns);
  }
  std::vector<SpanRecord> spans = CollectSpans();
  SetTracing(false);

  std::vector<double> query_ms, update_ms;
  double golden_joined = 0, golden_rows = 0, round_trip_s = 0;
  uint64_t failed_queries = 0;
  // What the server answered, in schedule order. The updates rewrite only
  // tables no query reaches, so every answer is the same at every epoch
  // and the digest depends on the seed and the request count alone.
  uint64_t answers = kFnvBasis;
  for (const Request& r : requests) {
    ++out.attempted;
    const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
    if (!r.ok) {
      ++out.failed;
      if (r.kind != Kind::kUpdate) ++failed_queries;
      continue;
    }
    if (r.kind == Kind::kUpdate) {
      update_ms.push_back(ms);
      continue;
    }
    query_ms.push_back(ms);
    round_trip_s += static_cast<double>(r.done_ns - r.sent_ns) / 1e9;
    auto json = serve::JsonValue::Parse(r.response);
    answers = FnvString(answers, r.payload);
    answers = FnvString(
        answers,
        json->Find(r.kind == Kind::kJoinable ? "results" : "result")
            ->Serialize());
    if (r.kind == Kind::kTransformJoin) {
      const auto [src, tgt] = setup.golden[r.golden];
      const double rows = static_cast<double>(std::min(
          setup.tables[src].num_rows(), setup.tables[tgt].num_rows()));
      golden_rows += rows;
      golden_joined += std::min(
          rows, json->Find("result")->Find("joined_rows")->AsNumber());
    }
  }
  const std::vector<std::string> mismatches = VerifySamples(setup, requests);
  out.gate_failures.insert(out.gate_failures.end(), mismatches.begin(),
                           mismatches.end());

  Metrics& e = out.end_to_end;
  // Service capacity of the query connection: queries answered per second
  // of round-trip time. Queries answered per second of schedule would be
  // the offered rate, fixed by the harness until the server saturates.
  e["throughput_per_s"] = {
      round_trip_s > 0 ? static_cast<double>(query_ms.size()) / round_trip_s
                       : 0.0,
      "1/s"};
  e["p50_ms"] = {Median(query_ms), "ms"};
  e["p90_ms"] = {Percentile(query_ms, kTailPercentile), "ms"};
  e["slo_share"] = {ShareWithin(query_ms, kServeQueryLimitMs, failed_queries),
                    "share"};
  e["golden_recall"] = {golden_rows > 0 ? golden_joined / golden_rows : 0.0,
                        "share"};
  e["mutation_p50_ms"] = {Median(update_ms), "ms"};
  e["setup_s"] = {Median(setup_s), "s"};

  out.counters["serve.answers_digest"] = answers;
  out.counters_scope = std::to_string(requests.size()) + "-requests";

  Metrics& l = out.layers;
  l["table.fill_ms"] = {Median(fill_ms), "ms"};
  if (traced) {
    AddSelfTimeMetrics(spans, {"serve.send_lag", "serve.round_trip"},
                       static_cast<double>(requests.size()), &l);
    // The cache of every epoch but the last was read just before the
    // update that ended it.
    epoch_stats.push_back(final_stats);
    double hits = 0, misses = 0, bytes = 0;
    for (const CacheCounters& c : epoch_stats) {
      hits += c.hits;
      misses += c.misses;
      bytes = std::max(bytes, c.bytes);
    }
    l["serve.index_cache_hits"] = {hits, "count"};
    l["serve.index_cache_misses"] = {misses, "count"};
    l["serve.snapshot_rebuilds"] = {final_stats.rebuilds, "count"};
    l["index.builds"] = {misses, "count"};
    l["index.cache_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    l["index.bytes"] = {bytes, "bytes"};
  }
  out.spans = std::move(spans);
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
