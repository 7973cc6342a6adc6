#include "src/core/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mihn::core {
namespace {

TEST(WorkerPoolTest, ParallelismOneRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<std::pair<size_t, size_t>> calls;
  pool.ParallelFor(10, [&](size_t begin, size_t end) { calls.emplace_back(begin, end); });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<size_t, size_t>{0, 10}));
}

TEST(WorkerPoolTest, ZeroAndNegativeParallelismClampToOne) {
  EXPECT_EQ(WorkerPool(0).parallelism(), 1);
  EXPECT_EQ(WorkerPool(-3).parallelism(), 1);
}

TEST(WorkerPoolTest, UnclampedKeepsRequestedWidthOnAnyMachine) {
  WorkerPool pool(8, /*clamp_to_hardware=*/false);
  EXPECT_EQ(pool.parallelism(), 8);
}

TEST(WorkerPoolTest, ClampNeverExceedsHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int cores = hw == 0 ? 1 : static_cast<int>(hw);
  WorkerPool pool(1024);
  EXPECT_LE(pool.parallelism(), cores);
  EXPECT_GE(pool.parallelism(), 1);
}

TEST(WorkerPoolTest, EveryIndexVisitedExactlyOnce) {
  WorkerPool pool(4, /*clamp_to_hardware=*/false);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ChunksAreContiguousAndInIndexOrder) {
  WorkerPool pool(4, /*clamp_to_hardware=*/false);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  const size_t kN = 10;  // Not divisible by 4: uneven chunks.
  pool.ParallelFor(kN, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, kN);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);  // No gap, no overlap.
  }
  // The partition is the deterministic n*t/P formula.
  ASSERT_EQ(chunks.size(), 4u);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(chunks[t].first, kN * t / 4);
    EXPECT_EQ(chunks[t].second, kN * (t + 1) / 4);
  }
}

TEST(WorkerPoolTest, SpreadsWorkAcrossRealThreads) {
  WorkerPool pool(4, /*clamp_to_hardware=*/false);
  std::mutex mu;
  std::set<std::thread::id> ids;
  // Helper t always runs chunk t, so with n >= parallelism every pool
  // thread (caller included) executes one chunk.
  pool.ParallelFor(8, [&](size_t /*begin*/, size_t /*end*/) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);  // Caller participates.
}

TEST(WorkerPoolTest, ReusableAcrossManyRounds) {
  WorkerPool pool(3, /*clamp_to_hardware=*/false);
  std::atomic<long> sum{0};
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(30, [&](size_t begin, size_t end) {
      long local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += static_cast<long>(i);
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), kRounds * (29L * 30L / 2));
}

TEST(WorkerPoolTest, ParallelMapReturnsResultsInIndexOrder) {
  WorkerPool pool(8, /*clamp_to_hardware=*/false);
  constexpr size_t kN = 257;  // Deliberately not a multiple of the width.
  const std::vector<size_t> results =
      pool.ParallelMap(kN, [](size_t i) { return i * i; });
  ASSERT_EQ(results.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(results[i], i * i) << "index " << i;
  }
}

TEST(WorkerPoolTest, ParallelMapMatchesSerialForNonTrivialResults) {
  // Move-only-ish payloads (strings) across a real pool must land in the
  // same slots a serial loop fills.
  const auto fn = [](size_t i) { return "item-" + std::to_string(i * 7); };
  std::vector<std::string> serial(100);
  for (size_t i = 0; i < serial.size(); ++i) {
    serial[i] = fn(i);
  }
  WorkerPool pool(4, /*clamp_to_hardware=*/false);
  EXPECT_EQ(pool.ParallelMap(serial.size(), fn), serial);
}

TEST(WorkerPoolTest, ParallelMapEmptyAndInline) {
  WorkerPool pool(1);
  EXPECT_TRUE(pool.ParallelMap(0, [](size_t i) { return i; }).empty());
  const std::vector<size_t> one = pool.ParallelMap(3, [](size_t i) { return i + 1; });
  EXPECT_EQ(one, (std::vector<size_t>{1, 2, 3}));
}

TEST(WorkerPoolTest, EmptyRangeIsANoop) {
  WorkerPool pool(4, /*clamp_to_hardware=*/false);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(WorkerPoolTest, RangeSmallerThanPoolSkipsEmptyChunks) {
  WorkerPool pool(8, /*clamp_to_hardware=*/false);
  std::vector<std::atomic<int>> visits(3);
  pool.ParallelFor(3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(visits[i].load(), 1);
  }
}

}  // namespace
}  // namespace mihn::core
