// ThreadPool: the parallel-execution subsystem behind the discovery
// pipeline's hot loops (coverage, generation, index build).
//
// The primitive is a chunked ParallelFor; phases reach it through one shard
// policy (NumShards / ParallelShards, below). [0, total) is split into
// `num_chunks` contiguous, ascending ranges; chunks are handed to workers
// through an atomic ticket counter — no work stealing and no re-splitting.
// This gives dynamic load balancing while keeping a simple determinism
// contract (below) that every parallel phase in this codebase relies on.
//
// Determinism contract:
//  * The partition of [0, total) into chunks depends only on (total,
//    num_chunks), never on scheduling.
//  * A chunk is executed exactly once, sequentially, by one thread.
//  * Callers that write into per-chunk output buffers and merge them in
//    chunk order therefore produce results that are bit-identical across
//    runs and across thread counts.
//  * Per-worker scratch state (caches, arenas) may be indexed by the
//    `worker` id, which is in [0, size()) and stable while the pool lives.
//    Worker-indexed state must not affect output values, only reuse
//    allocations (e.g. the per-row negative-unit cache, which is reset per
//    row anyway).

#ifndef TJ_COMMON_THREAD_POOL_H_
#define TJ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tj {

/// Resolves a thread-count knob: 0 means std::thread::hardware_concurrency
/// (at least 1); negative values clamp to 1.
int ResolveNumThreads(int num_threads);

/// Fixed-size pool of workers driving chunked parallel-for jobs. The calling
/// thread participates as worker 0, so a pool of size N spawns N - 1
/// threads and ThreadPool(1) spawns none (every job runs inline).
class ThreadPool {
 public:
  /// fn(worker, chunk, begin, end): process [begin, end) as chunk `chunk`.
  using ChunkFn =
      std::function<void(int worker, size_t chunk, size_t begin, size_t end)>;

  /// num_threads as in ResolveNumThreads (0 = hardware concurrency).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count, including the calling thread.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn over [0, total) split into num_chunks contiguous ranges
  /// (balanced to within one element; num_chunks is clamped to [1, total]).
  /// Blocks until every chunk finished; rethrows the first exception thrown
  /// by a chunk. Reusable: sequential ParallelFor calls share the workers.
  ///
  /// Nesting: a ParallelFor issued from inside a chunk does not touch the
  /// pool's job state — it runs every chunk inline, sequentially, as worker
  /// 0 on the calling thread. The partition is the same, so nested callers
  /// keep the determinism contract; they just get no extra parallelism.
  void ParallelFor(size_t total, size_t num_chunks, const ChunkFn& fn);

  /// Number of ThreadPool instances constructed since process start.
  /// Diagnostic for the shared-pool contract (e.g. "a corpus run constructs
  /// exactly one pool"); tests compare deltas around a call.
  static uint64_t TotalCreated();

 private:
  void WorkerLoop(int worker);
  /// Claims and runs chunks of the current job until none remain.
  void RunChunks(int worker, const ChunkFn& fn, size_t total,
                 size_t num_chunks);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a new job generation is available
  std::condition_variable done_cv_;  // chunks finished / workers checked out
  uint64_t generation_ = 0;          // guarded by mu_
  bool shutdown_ = false;            // guarded by mu_

  // Current job. fn_/total_/num_chunks_ are written under mu_ by
  // ParallelFor and read under mu_ by workers when they adopt the
  // generation; chunk tickets are claimed lock-free.
  const ChunkFn* fn_ = nullptr;
  size_t total_ = 0;
  size_t num_chunks_ = 0;
  std::atomic<size_t> next_chunk_{0};
  std::atomic<bool> job_failed_{false};  // stop claiming once a chunk threw
  size_t finished_chunks_ = 0;       // guarded by mu_
  int active_workers_ = 0;           // guarded by mu_
  std::exception_ptr first_error_;   // guarded by mu_
};

/// The shard policy of every sharded phase: how many contiguous shards
/// `items` items split into on `pool`. One shard — the serial case, run
/// inline on the caller — when `pool` is null or has one worker, when the
/// caller already runs inside a ParallelFor chunk (no fan-out inside a
/// fan-out: a per-pair phase inside the corpus driver's pair fan-out), or
/// when there are fewer than 2 items. Otherwise min(items, pool size x
/// chunks_per_worker); over-decomposing lets the ticket scheduler balance
/// uneven shards. Pass chunks_per_worker = items for one shard per item.
size_t NumShards(const ThreadPool* pool, size_t items,
                 size_t chunks_per_worker);

/// Splits [0, items) into NumShards(pool, items, chunks_per_worker)
/// contiguous ascending ranges and runs fn(worker, begin, end) once per
/// range — inline on the caller as worker 0 for one shard, on the pool
/// otherwise. Returns fn's outputs in shard order (nothing when fn returns
/// void), so a caller that merges them in order gets the one-shard result
/// at every pool size.
template <typename Fn>
auto ParallelShards(ThreadPool* pool, size_t items, size_t chunks_per_worker,
                    Fn&& fn) {
  using Output = std::invoke_result_t<Fn&, int, size_t, size_t>;
  const size_t num_shards = NumShards(pool, items, chunks_per_worker);
  if constexpr (std::is_void_v<Output>) {
    if (num_shards == 1) return fn(0, size_t{0}, items);
    pool->ParallelFor(items, num_shards,
                      [&](int worker, size_t, size_t begin, size_t end) {
                        fn(worker, begin, end);
                      });
  } else {
    std::vector<Output> outputs;
    outputs.reserve(num_shards);
    if (num_shards == 1) {
      outputs.push_back(fn(0, size_t{0}, items));
      return outputs;
    }
    std::vector<std::optional<Output>> slots(num_shards);
    pool->ParallelFor(
        items, num_shards,
        [&](int worker, size_t shard, size_t begin, size_t end) {
          slots[shard].emplace(fn(worker, begin, end));
        });
    for (std::optional<Output>& slot : slots) {
      outputs.push_back(std::move(*slot));
    }
    return outputs;
  }
}

/// Scratch state a ParallelShards body reuses across the shards one worker
/// runs (worker ids are stable while the pool lives). A slot is built on
/// its worker's first Get, so only workers that run build one — a
/// one-shard run builds exactly one. Must not affect output values.
template <typename T>
class PerWorker {
 public:
  explicit PerWorker(const ThreadPool* pool)
      : slots_(pool == nullptr ? 1 : static_cast<size_t>(pool->size())) {}

  template <typename... Args>
  T& Get(int worker, Args&&... args) {
    std::unique_ptr<T>& slot = slots_[static_cast<size_t>(worker)];
    if (slot == nullptr) {
      slot = std::make_unique<T>(std::forward<Args>(args)...);
    }
    return *slot;
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace tj

#endif  // TJ_COMMON_THREAD_POOL_H_
