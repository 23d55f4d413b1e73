#include "corpus/catalog.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "table/storage_events.h"

namespace tj {
namespace {

/// `key=` followed by a number in [lo, hi].
template <typename T>
Result<T> KeyNumber(TextScanner* in, std::string_view key,
                    std::type_identity_t<T> lo, std::type_identity_t<T> hi) {
  if (!in->ConsumeKey(key)) {
    return Status::InvalidArgument("expected " + std::string(key) + "=");
  }
  return in->Number<T>(lo, hi);
}

/// Nothing but space may follow a line's last field.
Status ExpectLineEnd(TextScanner* in) {
  in->SkipSpace();
  if (in->AtEnd()) return Status::OK();
  return Status::InvalidArgument("trailing characters at offset " +
                                 std::to_string(in->pos()));
}

constexpr std::string_view kSignatureHeaderV2 = "# tj-signatures v2";

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  uint64_t h = HashCombine(0x746a636174ULL /* "tjcat" */,
                           table.num_columns());
  for (const Column& column : table.columns()) {
    h = HashCombine(h, HashString(column.name()));
    h = HashCombine(h, column.size());
    // Block-streamed: fingerprinting an out-of-core table never pins more
    // than ~a block of its cells (see ForEachCellStreamed).
    ForEachCellStreamed(column, [&h](std::string_view cell) {
      h = HashCombine(h, HashString(cell));
    });
  }
  return h;
}

void TableCatalog::AdoptAndFreeze(Table* table) const {
  // Catalog tables land on the catalog's storage (spill files when
  // configured) and are frozen: their cell views stay valid until
  // RemoveTable/UpdateTable replaces the entry, and the row matcher's
  // per-column lowercase cache persists across every pair that touches the
  // column. Mutation goes through UpdateTable with a fresh (copied) table.
  if (storage_.spill_enabled()) table->AdoptStorage(storage_);
  // Budgeted catalogs hand every adopted column the shared resident-bytes
  // cell, so allocations the catalog never sees from its own call sites
  // (the row matcher's lowercase shadows) are counted the moment they are
  // installed instead of drifting until the next signature-pass resync.
  if (budget_active()) table->AttachResidentCounter(resident_bytes_);
  table->Freeze();
}

Result<uint32_t> TableCatalog::AddTable(Table table) {
  if (table.name().empty()) {
    return Status::InvalidArgument("catalog tables need a non-empty name");
  }
  if (table_index_.find(table.name()) != table_index_.end()) {
    return Status::AlreadyExists("duplicate table name: " + table.name());
  }
  const auto id = static_cast<uint32_t>(tables_.size());
  TableEntry entry;
  entry.signatures.resize(table.num_columns());
  entry.table = std::make_shared<Table>(std::move(table));
  AdoptAndFreeze(entry.table.get());
  // Fingerprint after adoption: the streamed hash then releases spilled
  // pages as it goes instead of faulting the whole table.
  entry.fingerprint = TableFingerprint(*entry.table);
  entry.last_touch = ++touch_clock_;
  // Measured after the fingerprint pass so the counter reflects the pages
  // the streamed hash already released.
  BumpResidentBytes(0, entry.table->ResidentBytes());
  table_index_.emplace(entry.table->name(), id);
  tables_.push_back(std::move(entry));
  ++num_live_;
  ++mutation_epoch_;
  EnforceMemoryBudget();
  return id;
}

Status TableCatalog::RemoveTable(std::string_view name) {
  const auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  TableEntry& entry = tables_[it->second];
  // The counter tracks catalog-visible tables: a snapshot still pinning
  // this table keeps its bytes alive, but they stop counting against the
  // catalog's budget the moment the entry is tombstoned.
  BumpResidentBytes(entry.table->ResidentBytes(), 0);
  entry.table.reset();
  entry.signatures.clear();
  entry.fingerprint = 0;
  entry.live = false;
  table_index_.erase(it);
  --num_live_;
  ++mutation_epoch_;
  return Status::OK();
}

Result<uint32_t> TableCatalog::UpdateTable(Table table) {
  const auto it = table_index_.find(table.name());
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + table.name() +
                            "' to update");
  }
  const uint32_t id = it->second;
  TableEntry& entry = tables_[id];
  entry.signatures.assign(table.num_columns(), std::nullopt);
  // Dropping the catalog's reference frees the old arena unless a snapshot
  // still pins it (SharedTable): any *view* into the old contents held by
  // this thread (cell views, ExamplePairs, cached lowered columns) dangles
  // from here on. Shortlists are safe — they hold ColumnRefs (ids +
  // scores), not views — but callers must not hold cell views across an
  // update (tests/storage_view_test.cc exercises this under ASan).
  BumpResidentBytes(entry.table->ResidentBytes(), 0);
  entry.table = std::make_shared<Table>(std::move(table));
  AdoptAndFreeze(entry.table.get());
  entry.fingerprint = TableFingerprint(*entry.table);
  entry.last_touch = ++touch_clock_;
  BumpResidentBytes(0, entry.table->ResidentBytes());
  ++mutation_epoch_;
  EnforceMemoryBudget();
  return id;
}

Result<TableCatalog::CsvDirectoryReport> TableCatalog::AddCsvDirectory(
    const std::string& dir, const CsvOptions& csv) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::IOError("error listing " + dir + ": " + ec.message());
  }
  std::sort(files.begin(), files.end());
  const auto load = [&](const fs::path& path) -> Status {
    TJ_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path.string(), csv, storage_));
    table.set_name(path.stem().string());
    return AddTable(std::move(table)).status();
  };
  CsvDirectoryReport report;
  for (const fs::path& path : files) {
    // One bad file must not abort a repository scan: unreadable or
    // unparseable entries (and name clashes) are warned about and skipped —
    // and counted, so callers can report the partial load; every healthy
    // table still loads.
    const Status loaded = load(path);
    if (loaded.ok()) {
      ++report.added;
    } else {
      std::fprintf(stderr, "warning: skipping %s: %s\n",
                   path.string().c_str(), loaded.ToString().c_str());
      ++report.skipped;
    }
  }
  return report;
}

template <typename Storage>
Status TableCatalog::Remap(const Storage& storage) const {
  if (!budget_active()) return storage.EnsureResident();
  // Account the re-fault so the budget counter sees reads, not just
  // registrations. Racing readers can double-count the same re-map; the
  // drift is upward-only and resynced by the next signature pass.
  const size_t before = storage.ResidentBytes();
  const Status resident = storage.EnsureResident();
  BumpResidentBytes(before, storage.ResidentBytes());
  return resident;
}

const Table& TableCatalog::table(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  // Transparent re-map: reads through an entry the budget enforcement
  // evicted come back automatically. Called unconditionally — not gated on
  // resident() — so a caller racing another thread's in-flight re-map
  // still refreshes its column base pointers (racing re-maps serialize
  // per column). Best-effort: a re-map failure already fell back to the
  // heap inside Column; the residual double-failure case is surfaced by
  // ResidentTable for callers that can propagate it.
  const Table& table = *tables_[t].table;
  (void)Remap(table);
  return table;
}

Result<const Table*> TableCatalog::ResidentTable(uint32_t t) const {
  if (t >= tables_.size() || !tables_[t].live) {
    return Status::NotFound(
        StrPrintf("no live table with id %u", static_cast<unsigned>(t)));
  }
  const Table& table = *tables_[t].table;
  TJ_RETURN_IF_ERROR(Remap(table));
  return &table;
}

std::shared_ptr<const Table> TableCatalog::SharedTable(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].table;
}

const std::string& TableCatalog::table_name(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].table->name();
}

Result<uint32_t> TableCatalog::TableIndex(std::string_view name) const {
  const auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second;
}

uint64_t TableCatalog::fingerprint(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].fingerprint;
}

void TableCatalog::ReleaseIdleTable(uint32_t t) const {
  if (budget_active()) table(t).ReleasePages();
}

size_t TableCatalog::num_columns() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->num_columns();
  }
  return total;
}

std::vector<ColumnRef> TableCatalog::AllColumns() const {
  std::vector<ColumnRef> refs;
  refs.reserve(num_columns());
  for (uint32_t t = 0; t < tables_.size(); ++t) {
    if (!tables_[t].live) continue;
    for (uint32_t c = 0; c < tables_[t].table->num_columns(); ++c) {
      refs.push_back(ColumnRef{t, c});
    }
  }
  return refs;
}

const Column& TableCatalog::column(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  const Column& column = tables_[ref.table].table->column(ref.column);
  (void)Remap(column);  // unconditional re-map — see table() above
  return column;
}

Result<const Column*> TableCatalog::ResidentColumn(ColumnRef ref) const {
  if (ref.table >= tables_.size() || !tables_[ref.table].live) {
    return Status::NotFound(StrPrintf("no live table with id %u",
                                      static_cast<unsigned>(ref.table)));
  }
  const Table& owner = *tables_[ref.table].table;
  if (ref.column >= owner.num_columns()) {
    return Status::NotFound(StrPrintf(
        "table '%s' has no column %u", owner.name().c_str(),
        static_cast<unsigned>(ref.column)));
  }
  const Column& column = owner.column(ref.column);
  TJ_RETURN_IF_ERROR(Remap(column));
  return &column;
}

const std::string& TableCatalog::column_name(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  return tables_[ref.table].table->column(ref.column).name();
}

size_t TableCatalog::ResidentCellBytes() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->ResidentBytes();
  }
  return total;
}

size_t TableCatalog::SpilledBytes() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->SpilledBytes();
  }
  return total;
}

Status TableCatalog::EnsureTableResident(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  TJ_RETURN_IF_ERROR(Remap(*tables_[t].table));
  tables_[t].last_touch = ++touch_clock_;
  return Status::OK();
}

void TableCatalog::BumpResidentBytes(size_t before, size_t after) const {
  if (!budget_active() || before == after) return;
  if (after > before) {
    resident_bytes_->Add(after - before);
  } else {
    resident_bytes_->Sub(before - after);
  }
}

void TableCatalog::ResyncResidentBytes() const {
  if (!budget_active()) return;
  resident_bytes_->Set(ResidentCellBytes());
}

void TableCatalog::EnforceMemoryBudget(ThreadPool* pool) const {
  if (!budget_active()) return;
  // The running counter replaces the per-call ResidentCellBytes() rescan
  // that made budgeted ingest O(N^2) in catalog size. Columns credit their
  // lowercase shadows to it at creation, so the only residual drift is the
  // upward slack of racing double-counted re-maps (resynced at every
  // ComputeSignatures) — enforcement may briefly overshoot the budget,
  // never evict too much.
  size_t resident = CachedResidentBytes();
  if (resident <= storage_.memory_budget_bytes) return;
  // Coldest-first: sort live resident spilled tables by last touch and
  // evict until the budget holds. The newest entry is spared so the table
  // being worked on is never evicted under its caller.
  //
  // Sharded candidate scan on the pool: each shard of table slots collects
  // its own candidate list and local newest-touch, merged in shard order —
  // the merged vector (and thus the eviction order after the sort) is the
  // same at every shard count. Probing spilled()/resident() walks every
  // column, so at catalog scale the scan dominates enforcement when
  // nothing needs evicting.
  struct Shard {
    std::vector<const TableEntry*> candidates;
    uint64_t newest = 0;
  };
  std::vector<Shard> shards = ParallelShards(
      pool, tables_.size(), 4, [&](int /*worker*/, size_t begin, size_t end) {
        Shard shard;
        for (size_t t = begin; t < end; ++t) {
          const TableEntry& entry = tables_[t];
          if (!entry.live) continue;
          shard.newest = std::max(shard.newest, entry.last_touch);
          if (entry.table->spilled() && entry.table->resident()) {
            shard.candidates.push_back(&entry);
          }
        }
        return shard;
      });
  std::vector<const TableEntry*> candidates = std::move(shards[0].candidates);
  uint64_t newest = shards[0].newest;
  for (size_t s = 1; s < shards.size(); ++s) {
    newest = std::max(newest, shards[s].newest);
    candidates.insert(candidates.end(), shards[s].candidates.begin(),
                      shards[s].candidates.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const TableEntry* a, const TableEntry* b) {
              return a->last_touch < b->last_touch;
            });
  for (const TableEntry* entry : candidates) {
    if (resident <= storage_.memory_budget_bytes) break;
    if (entry->last_touch == newest) break;
    const size_t before = entry->table->ResidentBytes();
    const Status evicted = entry->table->Evict();
    // Count what actually left RAM: a sync failure keeps that column (and
    // its possibly-unsynced pages) resident by design — skip the table,
    // keep going with colder candidates, and let the budget run over
    // rather than risk dropping bytes the disk never confirmed.
    const size_t after = entry->table->ResidentBytes();
    const size_t freed = before > after ? before - after : 0;
    BumpResidentBytes(before, after);
    resident -= freed < resident ? freed : resident;
    if (!evicted.ok()) {
      std::fprintf(stderr,
                   "warning: budget eviction skipping table '%s': %s\n",
                   entry->table->name().c_str(),
                   evicted.ToString().c_str());
      RecordSpillErrorRecovered();
    }
  }
}

void TableCatalog::ComputeSignatures(ThreadPool* pool) {
  // Sharded collection: per-shard vectors merged in shard order are the
  // slot-order list a serial loop builds, so the compute fan-out below sees
  // the same work list for every pool size. A no-op pass over a
  // million-table catalog is this scan — worth fanning out on its own.
  std::vector<std::vector<ColumnRef>> shards = ParallelShards(
      pool, tables_.size(), 4, [&](int /*worker*/, size_t begin, size_t end) {
        std::vector<ColumnRef> shard;
        for (size_t t = begin; t < end; ++t) {
          if (!tables_[t].live) continue;
          for (uint32_t c = 0; c < tables_[t].table->num_columns(); ++c) {
            if (!tables_[t].signatures[c].has_value()) {
              shard.push_back(ColumnRef{static_cast<uint32_t>(t), c});
            }
          }
        }
        return shard;
      });
  std::vector<ColumnRef> missing = std::move(shards[0]);
  for (size_t s = 1; s < shards.size(); ++s) {
    missing.insert(missing.end(), shards[s].begin(), shards[s].end());
  }
  if (missing.empty()) return;

  auto compute = [&](ColumnRef ref) {
    // Fallible residency: a column whose bytes cannot be made readable
    // (re-map AND file read failed) keeps a missing signature — the pruner
    // skips pairs involving it, and a later ComputeSignatures retries once
    // the fault clears — instead of aborting the whole sketch pass.
    const auto resident = ResidentColumn(ref);
    if (!resident.ok()) {
      std::fprintf(stderr,
                   "warning: skipping signature for column '%s.%s': %s\n",
                   table_name(ref.table).c_str(),
                   column_name(ref).c_str(),
                   resident.status().ToString().c_str());
      RecordSpillErrorRecovered();
      return;
    }
    tables_[ref.table].signatures[ref.column] =
        ComputeColumnSignature(**resident);
  };
  // Each column writes its own slot, so any sharding is deterministic;
  // over-decompose to balance uneven column sizes.
  ParallelShards(pool, missing.size(), 4,
                 [&](int /*worker*/, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) compute(missing[i]);
                 });
  // The sketch pass streams spilled columns block-wise, but re-mapped
  // tables may now exceed the budget again; settle it before returning.
  // This is also the counter's resync point: the exact scan here folds in
  // any lowercase shadows or double-counted re-maps the incremental
  // accounting missed since the last pass.
  ResyncResidentBytes();
  EnforceMemoryBudget(pool);
}

bool TableCatalog::HasSignature(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  TJ_CHECK(ref.column < tables_[ref.table].signatures.size());
  return tables_[ref.table].signatures[ref.column].has_value();
}

const ColumnSignature& TableCatalog::signature(ColumnRef ref) const {
  TJ_CHECK(HasSignature(ref));
  return *tables_[ref.table].signatures[ref.column];
}

std::string TableCatalog::SerializeSignatures() const {
  std::string out(kSignatureHeaderV2);
  out += "\n";
  out += StrPrintf("options ngram=%zu hashes=%zu seed=%llu lowercase=1\n",
                   kSketchNgram, kSketchSlots,
                   static_cast<unsigned long long>(kSketchSeed));
  for (const TableEntry& entry : tables_) {
    if (!entry.live) continue;
    bool any = false;
    for (const auto& sig : entry.signatures) {
      if (sig.has_value()) any = true;
    }
    if (!any) continue;
    out += StrPrintf("table '%s' fp=%llu\n",
                     EscapeForDisplay(entry.table->name()).c_str(),
                     static_cast<unsigned long long>(entry.fingerprint));
    for (size_t c = 0; c < entry.signatures.size(); ++c) {
      const auto& sig = entry.signatures[c];
      if (!sig.has_value()) continue;
      // meanlen uses %a (hex float) so the double round-trips exactly.
      out += StrPrintf(
          "column '%s' rows=%u distinct=%llu minlen=%u maxlen=%u meanlen=%a "
          "charset=%u\n",
          EscapeForDisplay(entry.table->column(c).name()).c_str(),
          sig->num_rows, static_cast<unsigned long long>(sig->distinct_ngrams),
          sig->min_length, sig->max_length, sig->mean_length,
          sig->charset_mask);
      out += "minhash";
      for (uint64_t h : sig->minhash) {
        out += StrPrintf(" %llu", static_cast<unsigned long long>(h));
      }
      out += "\n";
    }
  }
  return out;
}

Status TableCatalog::LoadSignatures(std::string_view text) {
  // Parse into a staging list first so a malformed dump installs nothing.
  std::vector<std::pair<ColumnRef, ColumnSignature>> staged;
  constexpr uint32_t kNoTable = ~0u;
  constexpr uint64_t kU64 = UINT64_MAX;
  constexpr uint32_t kU32 = UINT32_MAX;
  uint32_t current_table = kNoTable;
  bool saw_header = false;
  bool saw_options = false;
  // True while inside a table block whose sketches must be discarded
  // (unknown table or stale fingerprint). Lines are still syntax-checked.
  bool skipping_block = false;
  // Whether the most recent column line (staged or skipped) is still
  // waiting for its minhash line.
  bool column_pending = false;
  ColumnSignature skipped_sig;  // throwaway target inside skipped blocks

  // One trimmed, non-empty line after the header; errors get the line
  // number prefixed below.
  const auto parse_line = [&](std::string_view line) -> Status {
    TextScanner in(line);
    if (line[0] == '#') return Status::OK();

    if (in.ConsumeWord("options")) {
      TJ_ASSIGN_OR_RETURN(const uint64_t ngram,
                          KeyNumber<uint64_t>(&in, "ngram", 0, kU64));
      TJ_ASSIGN_OR_RETURN(const uint64_t hashes,
                          KeyNumber<uint64_t>(&in, "hashes", 0, kU64));
      TJ_ASSIGN_OR_RETURN(const uint64_t seed,
                          KeyNumber<uint64_t>(&in, "seed", 0, kU64));
      TJ_ASSIGN_OR_RETURN(const int lowercase,
                          KeyNumber<int>(&in, "lowercase", 0, 1));
      TJ_RETURN_IF_ERROR(ExpectLineEnd(&in));
      if (ngram != kSketchNgram || hashes != kSketchSlots ||
          seed != kSketchSeed || lowercase != 1) {
        return Status::InvalidArgument(
            "sketch parameters disagree with the sketch geometry");
      }
      saw_options = true;
      return Status::OK();
    }
    if (!saw_options) {
      return Status::InvalidArgument("expected options line first");
    }

    if (in.ConsumeWord("table")) {
      if (column_pending) {
        return Status::InvalidArgument("previous column missing its minhash");
      }
      TJ_ASSIGN_OR_RETURN(const std::string name, in.ParseQuoted());
      TJ_ASSIGN_OR_RETURN(const uint64_t fp,
                          KeyNumber<uint64_t>(&in, "fp", 0, kU64));
      TJ_RETURN_IF_ERROR(ExpectLineEnd(&in));
      auto index = TableIndex(name);
      // An entry for a table this catalog no longer has, or whose content
      // changed since the cache was written, is stale, not fatal: skip the
      // block — the sketches will be recomputed.
      skipping_block = !index.ok() || fp != tables_[*index].fingerprint;
      current_table = skipping_block ? kNoTable : *index;
      return Status::OK();
    }
    if (in.ConsumeWord("column")) {
      if (column_pending) {
        return Status::InvalidArgument("previous column missing its minhash");
      }
      TJ_ASSIGN_OR_RETURN(const std::string name, in.ParseQuoted());
      ColumnSignature sig;
      TJ_ASSIGN_OR_RETURN(sig.num_rows,
                          KeyNumber<uint32_t>(&in, "rows", 0, kU32));
      TJ_ASSIGN_OR_RETURN(sig.distinct_ngrams,
                          KeyNumber<uint64_t>(&in, "distinct", 0, kU64));
      TJ_ASSIGN_OR_RETURN(sig.min_length,
                          KeyNumber<uint32_t>(&in, "minlen", 0, kU32));
      TJ_ASSIGN_OR_RETURN(sig.max_length,
                          KeyNumber<uint32_t>(&in, "maxlen", 0, kU32));
      // Written with "%a"; a finite, non-negative mean.
      TJ_ASSIGN_OR_RETURN(
          sig.mean_length,
          KeyNumber<double>(&in, "meanlen", 0.0,
                            std::numeric_limits<double>::max()));
      TJ_ASSIGN_OR_RETURN(sig.charset_mask,
                          KeyNumber<uint32_t>(&in, "charset", 0, kU32));
      TJ_RETURN_IF_ERROR(ExpectLineEnd(&in));
      column_pending = true;
      if (skipping_block) {
        skipped_sig = std::move(sig);
        return Status::OK();
      }
      if (current_table == kNoTable) {
        return Status::InvalidArgument("column before any table");
      }
      // Read the row count from the entry's own table: checking it must
      // not re-map a table the budget evicted.
      const Table& owner = *tables_[current_table].table;
      auto col = owner.ColumnIndex(name);
      if (!col.ok()) {
        return Status::InvalidArgument("table '" + owner.name() +
                                       "' has no column '" + name + "'");
      }
      if (sig.num_rows != owner.column(*col).size()) {
        return Status::InvalidArgument(
            "row count disagrees with the catalog table");
      }
      staged.emplace_back(
          ColumnRef{current_table, static_cast<uint32_t>(*col)},
          std::move(sig));
      return Status::OK();
    }
    if (in.ConsumeWord("minhash")) {
      if (!column_pending) {
        return Status::InvalidArgument("minhash before any column");
      }
      ColumnSignature& sig =
          skipping_block ? skipped_sig : staged.back().second;
      if (!sig.minhash.empty()) {
        return Status::InvalidArgument("duplicate minhash line");
      }
      sig.minhash.reserve(kSketchSlots);
      for (in.SkipSpace(); !in.AtEnd(); in.SkipSpace()) {
        TJ_ASSIGN_OR_RETURN(const uint64_t h, in.Number<uint64_t>(0, kU64));
        sig.minhash.push_back(h);
      }
      if (sig.minhash.size() != kSketchSlots) {
        return Status::InvalidArgument(
            StrPrintf("expected %zu minhash slots, got %zu", kSketchSlots,
                      sig.minhash.size()));
      }
      column_pending = false;
      return Status::OK();
    }
    return Status::InvalidArgument("unrecognized line");
  };

  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    line = TrimAscii(line);
    if (line.empty()) continue;
    Status parsed = Status::OK();
    if (!saw_header) {
      saw_header = line == kSignatureHeaderV2;
      if (!saw_header) {
        parsed = Status::InvalidArgument("missing tj-signatures header");
      }
    } else {
      parsed = parse_line(line);
    }
    if (!parsed.ok()) {
      return Status::InvalidArgument(StrPrintf(
          "signatures line %zu: %s", line_no, parsed.message().c_str()));
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("signatures: missing tj-signatures header");
  }
  // Every staged column has its full minhash line: a column line while
  // one is pending fails above, and so does a short minhash line.
  if (column_pending) {
    return Status::InvalidArgument(
        "signatures: truncated dump — last column is missing its minhash "
        "line");
  }
  for (auto& [ref, sig] : staged) {
    tables_[ref.table].signatures[ref.column] = std::move(sig);
  }
  return Status::OK();
}

Status TableCatalog::SaveSignaturesToFile(const std::string& path) const {
  // Write-temp + fsync + rename: readers of `path` only ever see the old
  // complete cache or the new complete cache — a crash or I/O failure at
  // any point leaves the previous file byte-identical. (The durability of
  // the rename itself would additionally need a directory fsync; for a
  // cache that self-invalidates on fingerprint mismatch, atomicity is the
  // property that matters.)
  const std::string text = SerializeSignatures();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + " for writing: " +
                           std::strerror(errno));
  }
  const auto fail = [&](const std::string& what) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError(what + " " + tmp + ": " +
                           std::strerror(saved_errno));
  };
  size_t off = 0;
  while (off < text.size()) {
    const int injected = TJ_FAILPOINT("catalog/save-write");
    ssize_t n;
    if (injected != 0) {
      errno = injected;
      n = -1;
    } else {
      n = ::write(fd, text.data() + off, text.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("cannot write");
    }
    off += static_cast<size_t>(n);
  }
  {
    const int injected = TJ_FAILPOINT("catalog/save-fsync");
    if (injected != 0) {
      errno = injected;
      return fail("cannot fsync");
    }
  }
  if (::fsync(fd) != 0) return fail("cannot fsync");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("cannot close " + tmp + ": " +
                           std::strerror(errno));
  }
  // The window the atomicity guarantee covers: a crash (or injected fault)
  // after the temp file is complete but before the rename must leave the
  // existing cache untouched.
  {
    const int injected = TJ_FAILPOINT("catalog/save-rename");
    if (injected != 0) {
      errno = injected;
      ::unlink(tmp.c_str());
      return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(errno));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           std::strerror(saved_errno));
  }
  return Status::OK();
}

Status TableCatalog::LoadSignaturesFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading " + path);
  return LoadSignatures(buffer.str());
}

}  // namespace tj
