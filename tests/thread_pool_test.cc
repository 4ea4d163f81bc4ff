#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairsqg {
namespace {

// Each Run calls the body once per worker index; one team serves many
// rounds.
TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  constexpr size_t kRounds = 64;
  std::vector<std::atomic<size_t>> calls(pool.num_workers());
  for (size_t round = 0; round < kRounds; ++round) {
    pool.Run([&](size_t w) { calls[w].fetch_add(1); });
    for (size_t w = 0; w < calls.size(); ++w) {
      ASSERT_EQ(calls[w].load(), round + 1) << "worker " << w;
    }
  }
}

TEST(ThreadPoolTest, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
}

TEST(ThreadPoolTest, WorkerIndexIdentifiesPoolThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), ThreadPool::kNotAWorker);
  std::atomic<size_t> mismatches{0};
  for (size_t round = 0; round < 8; ++round) {
    pool.Run([&](size_t w) {
      if (ThreadPool::CurrentWorkerId() != w) mismatches.fetch_add(1);
    });
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), ThreadPool::kNotAWorker);
}

// The callers' load balancing: workers claim items from a shared cursor,
// so a worker stuck on one item leaves the rest to its sibling.
TEST(ThreadPoolTest, StealsFromABusyWorkersQueue) {
  ThreadPool pool(2);
  constexpr size_t kItems = 16;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::vector<size_t> owner(kItems, ThreadPool::kNotAWorker);
  pool.Run([&](size_t w) {
    for (size_t i; (i = next.fetch_add(1)) < kItems;) {
      owner[i] = w;
      // The holder of the first item blocks until every other item has
      // run: only the other worker can run them.
      if (i == 0) {
        while (done.load() < kItems - 1) std::this_thread::yield();
      } else {
        done.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(done.load(), kItems - 1);
  for (size_t i = 1; i < kItems; ++i) {
    EXPECT_NE(owner[i], owner[0]) << "item " << i;
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToWait) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.Run([](size_t w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The error is consumed: the team stays usable and runs clean again.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(pool.Run([&ran](size_t) { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, FirstOfSeveralExceptionsIsReported) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.Run([&ran](size_t) {
                 ran.fetch_add(1);
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // Every body still ran to its throw before Run returned.
  EXPECT_EQ(ran.load(), 4);
  EXPECT_NO_THROW(pool.Run([](size_t) {}));
}

}  // namespace
}  // namespace fairsqg
