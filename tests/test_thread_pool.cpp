#include "src/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xlf {
namespace {

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotResultsMatchSerialReference) {
  // The deterministic-reduction pattern: task i writes slot i; the
  // gathered slots must be independent of the thread count.
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> slots(257);
    pool.parallel_for(slots.size(),
                      [&](std::size_t i) { slots[i] = i * i + 7 * i; });
    return slots;
  };
  EXPECT_EQ(run(1), run(5));
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (std::size_t count : {1u, 7u, 64u, 3u}) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(count, [&](std::size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2);
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, MoreTasksThanThreadsAllComplete) {
  ThreadPool pool(2);
  std::atomic<std::size_t> done{0};
  pool.parallel_for(10000, [&](std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 10000u);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("task 37");
                                   }
                                   ++completed;
                                 }),
               std::runtime_error);
  // All other tasks still drained and the pool accepts the next job.
  EXPECT_EQ(completed.load(), 99u);
  std::atomic<std::size_t> after{0};
  pool.parallel_for(10, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 10u);
}

TEST(ThreadPool, LowestFailingIndexIsRethrownWhateverFailsFirst) {
  // Index 1 throws first: index 0 waits, boundedly, until it has. The
  // serial path would rethrow index 0's exception, so the pooled path
  // must too, not whichever failing thread reports first.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> higher_threw{false};
    try {
      pool.parallel_for(2, [&](std::size_t i) {
        if (i == 1) {
          higher_threw = true;
          throw std::runtime_error("task 1");
        }
        for (int wait = 0; wait < 2000 && !higher_threw; ++wait) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("task 0");
      });
      ADD_FAILURE() << "parallel_for must rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 0") << "round " << round;
    }
  }
}

TEST(ThreadPool, SerialPathDrainsAndPropagatesLikePooledPath) {
  ThreadPool pool(1);
  std::size_t completed = 0;
  EXPECT_THROW(pool.parallel_for(5,
                                 [&](std::size_t i) {
                                   if (i == 2) throw std::logic_error("x");
                                   ++completed;
                                 }),
               std::logic_error);
  // Same contract as the pooled path: the other tasks still ran.
  EXPECT_EQ(completed, 4u);
}

// ---- TSan-facing edge cases: the exact paths the tsan CI job walks.

TEST(ThreadPool, SingleTaskOnPooledPoolRunsExactlyOnce) {
  // count == 1 with workers around: the caller's drain usually claims
  // the only index while workers wake to an exhausted job and retire.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.parallel_for(1, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      ++hits;
    });
    EXPECT_EQ(hits.load(), 1);
  }
}

TEST(ThreadPool, ExceptionFromTheOnlyTaskPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(1,
                        [](std::size_t) { throw std::runtime_error("only"); }),
      std::runtime_error);
  std::atomic<int> after{0};
  pool.parallel_for(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, DestructionWithNoWorkEverSubmitted) {
  // Workers park in the idle wait and must all join on shutdown even
  // though no generation ever advanced.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
  }
}

TEST(ThreadPool, DestructionRightAfterAJobJoinsLateWakers) {
  // A worker can wake for a finished job (or never wake for it at
  // all) while the pool is already being torn down; the shutdown
  // flag must win over the stale generation either way.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    pool.parallel_for(2, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 2);
  }
}

}  // namespace
}  // namespace xlf
