#include "table/spill_arena.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>

#include <signal.h>
#include <unistd.h>

#include "common/strings.h"

namespace tj {
namespace {

/// Spill growth floor: small columns still get a whole page's worth of file
/// so the first few appends do not each pay a ftruncate+mmap cycle.
constexpr size_t kMinSpillCapacity = 1 << 16;  // 64 KiB

/// Process-wide spill-file sequence — names stay unique across columns,
/// clones, and concurrent lowercase-shadow builds.
std::atomic<uint64_t> g_spill_sequence{0};

std::string NextSpillPath(const std::string& dir) {
  const uint64_t seq =
      g_spill_sequence.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::path(dir) /
          StrPrintf("tj-spill-%ld-%llu.bytes", static_cast<long>(::getpid()),
                    static_cast<unsigned long long>(seq)))
      .string();
}

/// The pid in a spill file name made by NextSpillPath, or 0 when `name`
/// is not one.
pid_t SpillFilePid(std::string_view name) {
  constexpr std::string_view kPrefix = "tj-spill-";
  constexpr std::string_view kSuffix = ".bytes";
  if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) return 0;
  name = name.substr(kPrefix.size(),
                     name.size() - kPrefix.size() - kSuffix.size());
  const size_t dash = name.find('-');
  pid_t pid = 0;
  uint64_t seq = 0;
  if (dash == std::string_view::npos ||
      !ParseNumber<pid_t>(name.substr(0, dash), 1,
                          std::numeric_limits<pid_t>::max(), &pid) ||
      !ParseNumber<uint64_t>(name.substr(dash + 1), 0,
                             std::numeric_limits<uint64_t>::max(), &seq)) {
    return 0;
  }
  return pid;
}

/// Removes the spill files in `dir` whose process is gone: a crashed run
/// never reaches the unlink at arena death. A file is kept unless kill(pid,
/// 0) answers ESRCH, so the files of live processes (EPERM included) and
/// of this one survive. Best effort: an unreadable entry is skipped.
void SweepOrphanedSpillFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const pid_t pid = SpillFilePid(it->path().filename().string());
    if (pid == 0 || pid == ::getpid()) continue;
    if (::kill(pid, 0) != 0 && errno == ESRCH) {
      std::error_code ignored;
      fs::remove(it->path(), ignored);
    }
  }
}

}  // namespace

Status EnsureSpillDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create spill directory " + dir + ": " +
                           ec.message());
  }
  SweepOrphanedSpillFiles(dir);
  return MmapFile::Create(NextSpillPath(dir)).status();
}

Result<std::unique_ptr<ArenaBackend>> SpillArena::Create(
    std::string spill_dir) {
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    return Status::IOError("cannot create spill directory " + spill_dir +
                           ": " + ec.message());
  }
  TJ_ASSIGN_OR_RETURN(MmapFile file,
                      MmapFile::Create(NextSpillPath(spill_dir)));
  return std::unique_ptr<ArenaBackend>(
      new SpillArena(std::move(spill_dir), std::move(file)));
}

Status SpillArena::Grow(size_t min_capacity) {
  size_t target = file_.size() < kMinSpillCapacity ? kMinSpillCapacity
                                                   : file_.size() * 2;
  if (target < min_capacity) target = min_capacity;
  const Status grown = file_.Resize(target);
  // Publish the file's mapping state whether or not the grow succeeded: a
  // failed ftruncate kept the old mapping (arena unchanged), while a failed
  // re-map lost it — readers must then see a non-resident arena whose bytes
  // are still reachable through ReadBytes.
  data_.store(file_.data(), std::memory_order_release);
  resident_.store(file_.mapped(), std::memory_order_release);
  return grown;
}

Status SpillArena::Resize(size_t new_size) {
  TJ_CHECK(resident());  // growth on an evicted arena is a caller bug
  if (new_size > file_.size()) TJ_RETURN_IF_ERROR(Grow(new_size));
  size_ = new_size;
  return Status::OK();
}

Status SpillArena::Reserve(size_t bytes) {
  TJ_CHECK(resident());
  if (bytes > file_.size()) TJ_RETURN_IF_ERROR(Grow(bytes));
  return Status::OK();
}

Status SpillArena::Evict() {
  std::lock_guard<std::mutex> lock(residency_mutex_);
  if (!file_.mapped()) return Status::OK();
  // Unmap syncs first and fails WITHOUT unmapping when the sync fails, so
  // an error here leaves the arena fully resident — dirty pages are never
  // dropped on the floor.
  TJ_RETURN_IF_ERROR(file_.Unmap());
  data_.store(nullptr, std::memory_order_release);
  resident_.store(false, std::memory_order_release);
  return Status::OK();
}

Status SpillArena::EnsureResident() {
  std::lock_guard<std::mutex> lock(residency_mutex_);
  if (file_.mapped() || size_ == 0) return Status::OK();
  TJ_RETURN_IF_ERROR(file_.Remap());
  data_.store(file_.data(), std::memory_order_release);
  resident_.store(true, std::memory_order_release);
  return Status::OK();
}

Status SpillArena::ReadBytes(char* dst) {
  if (size_ == 0) return Status::OK();
  const char* base = data_.load(std::memory_order_acquire);
  if (base != nullptr) {
    std::memcpy(dst, base, size_);
    return Status::OK();
  }
  return file_.ReadInto(dst, size_);
}

void SpillArena::ReleasePages() { ReleasePages(0, size_); }

void SpillArena::ReleasePages(size_t begin, size_t end) {
  if (!file_.mapped() || size_ == 0 || begin >= end) return;
  const Status released =
      file_.ReleasePages(begin, end < size_ ? end : size_);
  if (!released.ok()) {
    // Releasing is an optimization; warn but keep going.
    std::fprintf(stderr, "warning: %s\n", released.ToString().c_str());
  }
}

std::unique_ptr<ArenaBackend> SpillArena::CloneEmpty() const {
  return MakeArenaBackend(spill_dir_);
}

}  // namespace tj
