// Copyright 2026 The pasjoin Authors.
#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace pasjoin::exec {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(1);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitFollowUps) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(10); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructionJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// The documented destructor contract: destruction is a DRAIN, not an
// abandonment — tasks that were queued but never started still execute
// before the destructor returns. A single-threaded pool with a slow first
// task guarantees the rest of the queue is still pending when the
// destructor begins.
TEST(ThreadPoolTest, DestructorRunsQueuedButUnstartedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    pool.Submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 30; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must drain the queue itself.
  }
  EXPECT_EQ(counter.load(), 30);
}

}  // namespace
}  // namespace pasjoin::exec
