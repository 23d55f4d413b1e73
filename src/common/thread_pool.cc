#include "common/thread_pool.h"

#include <algorithm>

namespace tj {
namespace {

/// Set while the thread runs chunks of a ParallelFor job; consulted by the
/// shard policy and by the nested-call inline path.
thread_local bool tls_in_parallel_for = false;

/// RAII flag flip, exception-safe across chunk bodies that throw.
struct ScopedInParallelFor {
  ScopedInParallelFor() : previous(tls_in_parallel_for) {
    tls_in_parallel_for = true;
  }
  ~ScopedInParallelFor() { tls_in_parallel_for = previous; }
  const bool previous;
};

std::atomic<uint64_t> g_pools_created{0};

}  // namespace

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  if (num_threads < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

size_t NumShards(const ThreadPool* pool, size_t items,
                 size_t chunks_per_worker) {
  if (pool == nullptr || pool->size() == 1 || tls_in_parallel_for ||
      items < 2) {
    return 1;
  }
  return std::min(items,
                  static_cast<size_t>(pool->size()) *
                      std::max<size_t>(chunks_per_worker, 1));
}

uint64_t ThreadPool::TotalCreated() {
  return g_pools_created.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  const int resolved = ResolveNumThreads(num_threads);
  workers_.reserve(static_cast<size_t>(resolved - 1));
  try {
    for (int w = 1; w < resolved; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
  } catch (...) {
    // Spawn failure (thread/resource exhaustion): shut down the workers
    // that did start so their joinable std::threads don't terminate the
    // process during unwind, then let the caller see the exception.
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(int worker, const ChunkFn& fn, size_t total,
                           size_t num_chunks) {
  const ScopedInParallelFor in_chunk;
  for (;;) {
    // Once any chunk threw the job's result is discarded anyway; claim the
    // remaining chunks without running them so ParallelFor rethrows fast.
    const bool failed = job_failed_.load(std::memory_order_relaxed);
    const size_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks) return;
    std::exception_ptr error;
    if (!failed) {
      const size_t begin = chunk * total / num_chunks;
      const size_t end = (chunk + 1) * total / num_chunks;
      try {
        fn(worker, chunk, begin, end);
      } catch (...) {
        error = std::current_exception();
        job_failed_.store(true, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = std::move(error);
      if (++finished_chunks_ == num_chunks) done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  for (;;) {
    const ChunkFn* fn = nullptr;
    size_t total = 0;
    size_t num_chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      fn = fn_;
      total = total_;
      num_chunks = num_chunks_;
      // Check in while holding the lock: ParallelFor will not tear down the
      // job before every checked-in worker has checked out again, so the
      // job state read above stays valid for the whole RunChunks call.
      if (fn != nullptr) ++active_workers_;
    }
    if (fn == nullptr) continue;  // woke after the job already completed
    RunChunks(worker, *fn, total, num_chunks);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t total, size_t num_chunks,
                             const ChunkFn& fn) {
  if (total == 0) return;
  if (num_chunks == 0) num_chunks = 1;
  if (num_chunks > total) num_chunks = total;

  if (tls_in_parallel_for) {
    // Nested call from inside a chunk: the pool's job state belongs to the
    // outer fan-out, so run everything inline on this thread as worker 0.
    // Same partition as a real dispatch — determinism is unaffected.
    const ScopedInParallelFor in_chunk;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      fn(0, chunk, chunk * total / num_chunks,
         (chunk + 1) * total / num_chunks);
    }
    return;
  }

  if (workers_.empty() || num_chunks == 1) {
    // Inline serial path: same partition, caller is worker 0. The
    // in-parallel-for flag is intentionally NOT set here — the pool's job
    // state is untouched, so a ParallelFor issued from inside fn is a
    // legitimate fresh dispatch (a one-chunk pair fan-out can still hand
    // its inner phases full pool parallelism).
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      fn(0, chunk, chunk * total / num_chunks,
         (chunk + 1) * total / num_chunks);
    }
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    total_ = total;
    num_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    job_failed_.store(false, std::memory_order_relaxed);
    finished_chunks_ = 0;
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  RunChunks(0, fn, total, num_chunks);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait for completion AND for every checked-in worker to check out, so
    // no worker still holds a pointer into this job when we tear it down.
    done_cv_.wait(lock, [&] {
      return finished_chunks_ == num_chunks_ && active_workers_ == 0;
    });
    fn_ = nullptr;
    error = std::move(first_error_);
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tj
