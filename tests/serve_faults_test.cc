// Failpoint hardening for the serving layer: a tjd-style CorpusServer on a
// budgeted, spilled catalog keeps answering while the storage seams
// (mmap open/ftruncate/sync/read/map) inject random failures, and after the
// faults are cleared its query responses are byte-identical to a run that
// never faulted. Self-skips unless built with -DTJ_FAILPOINTS=ON; intended
// flow:
//   cmake -B build-faults -S . -DTJ_FAILPOINTS=ON -DTJ_SANITIZE=ON
//   cmake --build build-faults -j && ctest --test-dir build-faults -L serve

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "table/csv.h"
#include "table/table.h"

namespace tj::serve {
namespace {

namespace fs = std::filesystem;

// Random-looking but deterministic: every site armed with a fractional
// probability draws from a seeded per-site stream (see failpoint.h), so a
// failing sweep replays exactly under the same seed.
constexpr char kSweepSpec[] =
    "mmap/open=p:0.3,errno:EMFILE,seed:11;"
    "mmap/ftruncate=p:0.3,errno:ENOSPC,seed:12;"
    "mmap/sync=p:0.5,errno:EIO,seed:13;"
    "mmap/read=p:0.2,errno:EIO,seed:14;"
    "mmap/map=p:0.2,errno:ENOMEM,seed:15;"
    "mmap/madvise=p:0.5,errno:EIO,seed:16";

class ServeFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "build with -DTJ_FAILPOINTS=ON to run the serve "
                      "fault sweep";
    }
    failpoint::ClearAll();
    dir_ = (fs::temp_directory_path() /
            ("tj_servefault_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    ASSERT_TRUE(fs::create_directories(dir_ + "/spill"));
    socket_path_ = dir_ + "/tjd.sock";
    ASSERT_LT(socket_path_.size(), 100u);
  }

  void TearDown() override {
    failpoint::ClearAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A corpus small enough for CI but with enough tables that the memory
  /// budget forces evictions (and thus faultable re-maps) during serving.
  static SynthCorpus Corpus() {
    SynthCorpusOptions options;
    options.num_joinable_pairs = 2;
    options.num_noise_tables = 2;
    options.rows = 30;
    options.seed = 97;
    return GenerateSynthCorpus(options);
  }

  StorageOptions SpilledBudgetedStorage() const {
    StorageOptions storage;
    storage.spill_dir = dir_ + "/spill";
    storage.memory_budget_bytes = 16 << 10;  // tight: constant eviction
    return storage;
  }

  Result<std::string> Request(const std::string& json) {
    ServeClient client;
    TJ_RETURN_IF_ERROR(client.Connect(socket_path_));
    return client.CallRaw(json);
  }

  std::string dir_;
  std::string socket_path_;
};

TEST_F(ServeFaultsTest, SweepThenHealServesFaultFreeBytes) {
  const SynthCorpus corpus = Corpus();

  // Every golden source column gets queried; responses are compared
  // against the fault-free replica at the end.
  std::vector<std::string> specs;
  specs.reserve(corpus.golden.size());
  for (const auto& pair : corpus.golden) {
    specs.push_back(corpus.tables[pair.source_table].name() + ".value");
  }

  // --- Fault-free replica: catalog + snapshot built with no server and no
  // faults, producing the expected bytes for each query at the daemon's
  // post-heal epoch (computed below once the daemon settles).
  TableCatalog replica;
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(replica.AddTable(table).ok());
  }
  replica.ComputeSignatures();
  IncrementalPairPruner replica_pruner;
  replica_pruner.Rebuild(replica);
  const auto replica_snapshot =
      CorpusSnapshot::Build(replica, replica_pruner);
  CorpusDiscoveryOptions discovery;
  const auto expected_for = [&](const std::string& spec,
                                uint64_t epoch) -> std::string {
    auto ref = replica_snapshot->ResolveColumn(spec);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    JsonValue results = JsonValue::Array();
    for (const ColumnPairCandidate& candidate :
         replica_snapshot->shortlist().shortlist) {
      if (!(candidate.a == *ref) && !(candidate.b == *ref)) continue;
      results.Append(PairResultToJson(
          *replica_snapshot,
          EvaluateCandidate(*replica_snapshot, candidate, discovery,
                            /*pool=*/nullptr,
                            discovery.use_orientation_hints)));
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("epoch", JsonValue::Number(static_cast<double>(epoch)));
    response.Set("column", JsonValue::Str(spec));
    response.Set("results", std::move(results));
    return response.Serialize();
  };

  // --- The daemon under fault: spilled + budgeted catalog, so queries
  // constantly re-map evicted columns through the faulted seams.
  TableCatalog catalog(SpilledBudgetedStorage());
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  ThreadPool pool(2);
  ServeOptions serve_options;
  serve_options.socket_path = socket_path_;
  CorpusServer server(&catalog, &pool, serve_options);
  const Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  // Arm the sweep and hammer the daemon: queries against every golden
  // column plus a mutation (update with identical contents — exercises the
  // CSV read, signature recompute, and snapshot rebuild seams). Responses
  // during the sweep may be ok or clean errors — the daemon itself must
  // keep answering (no aborts, no hangs, no dropped connections beyond the
  // faulted request).
  ASSERT_TRUE(failpoint::ConfigureFromSpec(kSweepSpec).ok());
  // The CSV stem names the table the update targets, so it must match the
  // victim's live name; identical contents keep the corpus equal to the
  // replica while still exercising the whole update path.
  const Table& victim = corpus.tables[corpus.golden[0].source_table];
  const std::string update_csv = dir_ + "/" + victim.name() + ".csv";
  ASSERT_TRUE(WriteCsvFile(victim, update_csv).ok());

  size_t responses_seen = 0;
  for (int round = 0; round < 6; ++round) {
    for (const std::string& spec : specs) {
      const auto response =
          Request("{\"op\":\"joinable\",\"column\":\"" + spec + "\"}");
      // Transport-level failure is acceptable mid-fault; a received
      // response must be well-formed JSON with an "ok" member.
      if (!response.ok()) continue;
      ++responses_seen;
      const auto parsed = JsonValue::Parse(*response);
      ASSERT_TRUE(parsed.ok()) << *response;
      ASSERT_NE(parsed->Find("ok"), nullptr) << *response;
    }
    const auto mutated =
        Request("{\"op\":\"update\",\"path\":\"" + update_csv + "\"}");
    if (mutated.ok()) {
      const auto parsed = JsonValue::Parse(*mutated);
      ASSERT_TRUE(parsed.ok()) << *mutated;
    }
  }
  EXPECT_GT(failpoint::TotalHits(), 0u) << "sweep never injected";
  EXPECT_GT(responses_seen, 0u) << "daemon stopped answering under faults";

  // --- Heal: clear every site, then apply one more update so the served
  // snapshot is rebuilt cleanly from post-fault state.
  failpoint::ClearAll();
  const auto heal = Request("{\"op\":\"update\",\"path\":\"" + update_csv +
                            "\"}");
  ASSERT_TRUE(heal.ok()) << heal.status().ToString();
  const auto heal_json = JsonValue::Parse(*heal);
  ASSERT_TRUE(heal_json.ok());
  ASSERT_TRUE(heal_json->Find("ok")->AsBool())
      << "post-heal update failed: " << *heal;

  // Post-heal responses must be byte-identical to the fault-free replica
  // (modulo the epoch stamp, which reflects the daemon's mutation count).
  const uint64_t epoch = server.current_snapshot()->epoch();
  for (const std::string& spec : specs) {
    const auto response =
        Request("{\"op\":\"joinable\",\"column\":\"" + spec + "\"}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, expected_for(spec, epoch)) << spec;
  }

  // Stats must report a coherent post-heal picture.
  const auto stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  const auto stats_json = JsonValue::Parse(*stats);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_EQ(stats_json->Find("tables")->AsNumber(),
            static_cast<double>(corpus.tables.size()));

  server.Shutdown();
}

TEST_F(ServeFaultsTest, SnapshotReadsDegradeToStatusUnderReadFaults) {
  const SynthCorpus corpus = Corpus();
  TableCatalog catalog(SpilledBudgetedStorage());
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);
  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);

  // Evict every pinned table (ComputeSignatures left them resident): the
  // snapshot shares the catalog's Table objects, so its reads now have to
  // re-map through the faulted seams.
  for (uint32_t t = 0; t < snapshot->num_tables(); ++t) {
    ASSERT_TRUE(catalog.table(t).Evict().ok());
  }

  // With the re-map seams hard-failing, ResidentColumn on an evicted
  // column must surface a Status — never abort, never return garbage.
  ASSERT_TRUE(
      failpoint::ConfigureFromSpec("mmap/map;mmap/read;mmap/open").ok());
  bool saw_failure = false;
  for (uint32_t t = 0; t < snapshot->num_tables(); ++t) {
    auto column = snapshot->ResidentColumn(ColumnRef{t, 0});
    if (!column.ok()) saw_failure = true;
  }
  failpoint::ClearAll();

  // Healed: every column readable again, values intact.
  for (uint32_t t = 0; t < snapshot->num_tables(); ++t) {
    auto column = snapshot->ResidentColumn(ColumnRef{t, 0});
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    EXPECT_GT((*column)->size(), 0u);
  }
  // The tight budget keeps most tables evicted, so at least one read had
  // to go through a faulted re-map.
  EXPECT_TRUE(saw_failure);
}

}  // namespace
}  // namespace tj::serve
