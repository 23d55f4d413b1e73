// Tests for the parallel-execution subsystem: chunk partition invariants,
// exactly-once execution, reuse, worker ids, exception propagation, and the
// shard policy (NumShards / ParallelShards / PerWorker).

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace tj {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_EQ(ResolveNumThreads(-3), 1);
}

TEST(ThreadPool, SizeIncludesCaller) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  ThreadPool serial(1);
  EXPECT_EQ(serial.size(), 1);
}

TEST(ThreadPool, EveryIndexProcessedExactlyOnce) {
  constexpr size_t kTotal = 1000;
  ThreadPool pool(8);
  std::vector<std::atomic<int>> seen(kTotal);
  pool.ParallelFor(kTotal, 37, [&](int, size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunksAreContiguousAscendingAndScheduleIndependent) {
  constexpr size_t kTotal = 103;
  constexpr size_t kChunks = 7;
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges(kChunks);
  std::set<size_t> chunks;
  pool.ParallelFor(kTotal, kChunks,
                   [&](int, size_t chunk, size_t begin, size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     ranges[chunk] = {begin, end};
                     chunks.insert(chunk);
                   });
  ASSERT_EQ(chunks.size(), kChunks);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, kTotal);
  for (size_t c = 1; c < kChunks; ++c) {
    EXPECT_EQ(ranges[c].first, ranges[c - 1].second);
    EXPECT_LT(ranges[c].first, ranges[c].second);  // no empty chunks
  }
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<int> workers;
  pool.ParallelFor(64, 64, [&](int worker, size_t, size_t, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    workers.insert(worker);
  });
  EXPECT_FALSE(workers.empty());
  EXPECT_GE(*workers.begin(), 0);
  EXPECT_LT(*workers.rbegin(), pool.size());
}

TEST(ThreadPool, EmptyRangeNeverInvokesFn) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 4, [&](int, size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, MoreChunksThanItemsClampsToTotal) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(3);
  pool.ParallelFor(3, 100, [&](int, size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ReusableAcrossSequentialJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 20; ++job) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, 8, [&](int, size_t, size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(16, 16,
                       [&](int, size_t chunk, size_t, size_t) {
                         if (chunk == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> calls{0};
  pool.ParallelFor(8, 8, [&](int, size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(10, 5, [&](int worker, size_t chunk, size_t, size_t) {
    EXPECT_EQ(worker, 0);
    order.push_back(chunk);  // no lock needed: everything runs inline
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

/// The shards a ParallelShards run used, as (begin, end) in output order,
/// plus whether every shard ran on the calling thread.
struct ShardTrace {
  std::vector<std::pair<size_t, size_t>> ranges;
  bool all_on_caller = true;
};

ShardTrace TraceShards(ThreadPool* pool, size_t items) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  ShardTrace trace;
  trace.ranges = ParallelShards(
      pool, items, 4, [&](int, size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        if (std::this_thread::get_id() != caller) trace.all_on_caller = false;
        return std::make_pair(begin, end);
      });
  return trace;
}

TEST(ParallelShards, NullPoolRunsOneShardInline) {
  EXPECT_EQ(NumShards(nullptr, 100, 4), 1u);
  const ShardTrace trace = TraceShards(nullptr, 100);
  ASSERT_EQ(trace.ranges.size(), 1u);
  EXPECT_EQ(trace.ranges[0], std::make_pair(size_t{0}, size_t{100}));
  EXPECT_TRUE(trace.all_on_caller);
}

TEST(ParallelShards, SingleWorkerPoolRunsOneShard) {
  ThreadPool pool(1);
  EXPECT_EQ(NumShards(&pool, 100, 4), 1u);
  const ShardTrace trace = TraceShards(&pool, 100);
  ASSERT_EQ(trace.ranges.size(), 1u);
  EXPECT_EQ(trace.ranges[0], std::make_pair(size_t{0}, size_t{100}));
  EXPECT_TRUE(trace.all_on_caller);
}

TEST(ParallelShards, NestedInsideParallelForRunsOneShard) {
  ThreadPool pool(4);
  std::vector<size_t> nested_shards(8);
  std::vector<size_t> nested_outputs(8);
  pool.ParallelFor(8, 8, [&](int, size_t chunk, size_t, size_t) {
    nested_shards[chunk] = NumShards(&pool, 100, 4);
    nested_outputs[chunk] = TraceShards(&pool, 100).ranges.size();
  });
  for (size_t chunk = 0; chunk < 8; ++chunk) {
    EXPECT_EQ(nested_shards[chunk], 1u) << "chunk " << chunk;
    EXPECT_EQ(nested_outputs[chunk], 1u) << "chunk " << chunk;
  }
  // Outside the fan-out the same pool shards again.
  EXPECT_EQ(NumShards(&pool, 100, 4), 16u);
}

TEST(ParallelShards, FewerThanTwoItemsRunsOneShard) {
  ThreadPool pool(4);
  for (size_t items : {0u, 1u}) {
    EXPECT_EQ(NumShards(&pool, items, 4), 1u) << items;
    const ShardTrace trace = TraceShards(&pool, items);
    ASSERT_EQ(trace.ranges.size(), 1u) << items;
    EXPECT_EQ(trace.ranges[0], std::make_pair(size_t{0}, items));
    EXPECT_TRUE(trace.all_on_caller) << items;
  }
}

TEST(ParallelShards, OutputsComeBackInShardOrder) {
  ThreadPool pool(4);
  EXPECT_EQ(NumShards(&pool, 10, 4), 10u);   // capped at the item count
  EXPECT_EQ(NumShards(&pool, 1000, 4), 16u);  // pool size x chunks per worker
  EXPECT_EQ(NumShards(&pool, 5, 5), 5u);      // one shard per item
  for (int round = 0; round < 20; ++round) {
    const ShardTrace trace = TraceShards(&pool, 1000);
    ASSERT_EQ(trace.ranges.size(), 16u);
    size_t next = 0;
    for (const auto& [begin, end] : trace.ranges) {
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, 1000u);
  }
}

TEST(ParallelShards, VoidBodiesCoverEveryItemOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(100);
  ParallelShards(&pool, seen.size(), 4, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

TEST(ParallelShards, PerWorkerBuildsOnlyForWorkersThatRun) {
  ThreadPool pool(4);
  std::atomic<int> built{0};
  struct Scratch {
    explicit Scratch(std::atomic<int>* counter) { counter->fetch_add(1); }
  };
  {
    PerWorker<Scratch> scratch(&pool);
    ParallelShards(&pool, 1, 4, [&](int worker, size_t, size_t) {
      scratch.Get(worker, &built);
    });
    EXPECT_EQ(built.load(), 1);  // one shard, one slot
  }
  built = 0;
  PerWorker<Scratch> scratch(&pool);
  ParallelShards(&pool, 1000, 4, [&](int worker, size_t, size_t) {
    scratch.Get(worker, &built);
  });
  EXPECT_GE(built.load(), 1);
  EXPECT_LE(built.load(), pool.size());  // at most one per worker, not shard
}

}  // namespace
}  // namespace tj
