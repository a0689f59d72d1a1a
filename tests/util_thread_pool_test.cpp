#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace spmap {
namespace {

TEST(ThreadPool, ZeroThreadsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, PartitionCoversRangeContiguously) {
  for (const std::size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
      std::size_t expected_begin = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const auto [begin, end] = ThreadPool::partition(n, workers, w);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 9u}) {
    ThreadPool pool(threads);
    const std::size_t n = 1234;
    std::vector<int> hits(n, 0);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end,
                             std::size_t worker) {
      EXPECT_LT(worker, pool.thread_count());
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
    EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(17, [&](std::size_t begin, std::size_t end,
                              std::size_t /*worker*/) {
      total += end - begin;
    });
  }
  EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t, std::size_t) {
                          if (begin > 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(50, [&](std::size_t begin, std::size_t end,
                            std::size_t /*worker*/) {
    count += end - begin;
  });
  EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, TwoThrowingWorkersRethrowFirstCountRest) {
  ThreadPool pool(4);
  // Workers 1..3 each throw an exception naming their lowest index; the
  // caller (worker 0) succeeds. The lowest-indexed thrower must win
  // deterministically and the other two must be counted, not dropped.
  try {
    pool.parallel_for(4, [&](std::size_t, std::size_t, std::size_t worker) {
      if (worker > 0) {
        throw std::runtime_error("worker " + std::to_string(worker));
      }
    });
    FAIL() << "expected a rethrown worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 1");
  }
  EXPECT_EQ(pool.last_suppressed_exception_count(), 2u);
  // A subsequent clean region resets the counter and the pool stays usable.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(50, [&](std::size_t begin, std::size_t end,
                            std::size_t /*worker*/) {
    count += end - begin;
  });
  EXPECT_EQ(count.load(), 50u);
  EXPECT_EQ(pool.last_suppressed_exception_count(), 0u);
}

TEST(ThreadPool, CallerExceptionBeatsWorkerException) {
  ThreadPool pool(2);
  // Worker 0 is the caller; its exception has the lowest index and must be
  // the one rethrown even when worker 1 also throws.
  try {
    pool.parallel_for(2, [&](std::size_t, std::size_t, std::size_t worker) {
      throw std::runtime_error("worker " + std::to_string(worker));
    });
    FAIL() << "expected a rethrown exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 0");
  }
  EXPECT_EQ(pool.last_suppressed_exception_count(), 1u);
}

}  // namespace
}  // namespace spmap
