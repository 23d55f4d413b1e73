// SpillArena: the file-backed ArenaBackend — column cell bytes live in a
// memory-mapped scratch file (common/mmap_file.h) instead of the heap, so a
// column (and a whole TableCatalog) can exceed RAM. Appends write straight
// into the mapping; the kernel pages cell bytes in and out on demand, and
// the catalog's budget enforcement uses Evict()/ReleasePages() to bound how
// much of a frozen corpus is resident at once.
//
// File layout: each arena owns one file `tj-spill-<pid>-<seq>.bytes` inside
// the configured spill directory (created on demand). Files are opened
// O_EXCL, sized geometrically as the arena grows, and unlinked when the
// arena dies. A crash leaves its files behind; EnsureSpillDir removes those
// whose pid is dead.

#ifndef TJ_TABLE_SPILL_ARENA_H_
#define TJ_TABLE_SPILL_ARENA_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/mmap_file.h"
#include "common/status.h"
#include "table/column.h"

namespace tj {

/// Creates `dir` (and parents) if missing, removes the spill files in it
/// whose process has died (`kill(pid, 0)` answers ESRCH), and probes that
/// spill files can be created inside it. CLI front ends call this once up
/// front so a bad --spill-dir fails fast instead of warning per column.
Status EnsureSpillDir(const std::string& dir);

class SpillArena final : public ArenaBackend {
 public:
  /// Opens a fresh spill file inside `spill_dir` (creating the directory if
  /// needed). Fails with IOError when the directory or file cannot be
  /// created — MakeArenaBackend turns that into a heap fallback.
  static Result<std::unique_ptr<ArenaBackend>> Create(std::string spill_dir);

  char* data() override { return data_.load(std::memory_order_acquire); }
  size_t size() const override { return size_; }
  size_t capacity() const override { return file_.size(); }
  /// Growth failure returns the error with size() unchanged. When the
  /// ftruncate failed the mapping (and every byte) is intact; when the
  /// re-map after a grow failed the arena reads as non-resident but the
  /// bytes stay recoverable through ReadBytes — Column's heap fallback
  /// rescues them either way.
  Status Resize(size_t new_size) override;
  Status Reserve(size_t bytes) override;
  size_t FootprintBytes() const override {
    return resident() ? file_.size() : 0;
  }
  size_t SpilledBytes() const override { return file_.size(); }
  bool spilled() const override { return true; }
  bool resident() const override {
    return size_ == 0 || resident_.load(std::memory_order_acquire);
  }
  std::string SpillDir() const override { return spill_dir_; }

  /// Syncs dirty pages to the file and unmaps. Must not race with readers
  /// or growth (Column enforces the freeze contract before calling). A
  /// failed sync returns the error and leaves the arena mapped/resident:
  /// pages that may not have reached the disk are never dropped.
  Status Evict() override;
  /// Re-maps an evicted file. Safe to race with other EnsureResident
  /// callers (first one re-maps; the rest see it mapped) — the catalog's
  /// transparent re-map-on-access relies on this. A failed re-map returns
  /// the error with the arena still evicted (ReadBytes still works).
  Status EnsureResident() override;
  /// Copies [0, size()) into `dst`: memcpy when mapped, pread from the
  /// spill file otherwise.
  Status ReadBytes(char* dst) override;
  /// Writes back and drops resident pages without unmapping (see
  /// MmapFile::ReleasePages). Safe under concurrent readers.
  void ReleasePages() override;
  void ReleasePages(size_t begin, size_t end) override;

  std::unique_ptr<ArenaBackend> CloneEmpty() const override;

 private:
  SpillArena(std::string spill_dir, MmapFile file)
      : spill_dir_(std::move(spill_dir)), file_(std::move(file)) {}

  /// Grows the file to at least `min_capacity` (geometric) and re-maps.
  Status Grow(size_t min_capacity);

  std::string spill_dir_;
  MmapFile file_;
  size_t size_ = 0;  // logical bytes in use; file_.size() is the capacity
  /// Serializes Evict/EnsureResident against concurrent EnsureResident.
  std::mutex residency_mutex_;
  std::atomic<char*> data_{nullptr};
  std::atomic<bool> resident_{true};
};

}  // namespace tj

#endif  // TJ_TABLE_SPILL_ARENA_H_
