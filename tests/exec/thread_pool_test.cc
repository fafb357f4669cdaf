// Copyright 2026 The pasjoin Authors.
#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/status.h"

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

TEST(ThreadPoolCancelTest, DefaultTokenBehavesLikePlainWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  const Status st = pool.Wait(CancellationToken());
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(counter.load(), 40);
}

TEST(ThreadPoolCancelTest, UncancelledTokenWaitsForCompletion) {
  ThreadPool pool(2);
  CancellationSource source;
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  const Status st = pool.Wait(source.token());
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(counter.load(), 40);
}

// On cancellation, queued-but-unstarted tasks are dropped while running
// tasks drain: the single worker is parked in the first task when the
// cancel fires, so none of the queued follow-ups may run.
TEST(ThreadPoolCancelTest, CancelDropsQueuedTasks) {
  ThreadPool pool(1);
  CancellationSource wait_source;   // cancels the Wait
  CancellationSource park_source;   // releases the running task
  std::atomic<int> ran{0};
  // The single worker parks inside the first task for the whole test, so
  // the 25 follow-ups stay queued until Wait(token) observes the cancel
  // and drops them; only then is the running task released.
  pool.Submit([&] {
    park_source.token().WaitForCancellation(30.0);
    ran.fetch_add(1);
  });
  for (int i = 0; i < 25; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  std::thread controller([&] {
    wait_source.token().WaitForCancellation(0.05);
    wait_source.Cancel(StatusCode::kCancelled, "drop the queue");
    // Give the cancelled Wait ample time to clear the queue (the cancel
    // callback wakes it nearly instantly; the margin only covers scheduler
    // noise) before the parked task — and with it the worker — is
    // released.
    park_source.token().WaitForCancellation(0.5);
    park_source.Cancel(StatusCode::kCancelled, "release the worker");
  });
  const Status st = pool.Wait(wait_source.token());
  controller.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "drop the queue");
  // Only the already-running task completed; the 25 queued ones were
  // dropped and must not run later either (destructor drains nothing).
  EXPECT_EQ(ran.load(), 1);
}

// Regression for the 5 ms cancellation-poll latency: Wait(token) used to
// rediscover a cancel only at its next poll tick, so a cancel fired at t
// dropped the queue no earlier than t+5ms on average. The callback-based
// wake reacts at signal-delivery speed. The probe: the worker is parked in
// a gate task, a follow-up is queued behind it, and the gate opens ~2 ms
// AFTER the cancel — far inside the old poll window. The new Wait has
// dropped the queue before the gate opens in essentially every trial; the
// old 5 ms poll would still be asleep and let the follow-up run once the
// gate task finished (chance of polling inside a given 2 ms window < 0.4,
// so >= 9 drops in 10 trials has probability < 2e-3 under the old code).
TEST(ThreadPoolCancelTest, CancelWakesWaitBeforeTheOldPollTick) {
  constexpr int kTrials = 10;
  int drops = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ThreadPool pool(1);
    CancellationSource wait_source;
    CancellationSource gate;
    std::atomic<bool> follow_up_ran{false};
    pool.Submit([&gate] { gate.token().WaitForCancellation(30.0); });
    pool.Submit([&follow_up_ran] { follow_up_ran = true; });
    std::thread controller([&] {
      // Let Wait(token) park first, then cancel, then open the gate 2 ms
      // later: the drop must already have happened by then.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      wait_source.Cancel(StatusCode::kCancelled, "cancel now");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      gate.Cancel(StatusCode::kCancelled, "open the gate");
    });
    const Status st = pool.Wait(wait_source.token());
    controller.join();
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    if (!follow_up_ran.load()) ++drops;
  }
  // Allow one slow-scheduler fluke; the old polling Wait cannot reach 9.
  EXPECT_GE(drops, 9);
}

TEST(ThreadPoolCancelTest, CancelledWaitReturnsDeadlineCode) {
  ThreadPool pool(1);
  CancellationSource source;
  source.Cancel(StatusCode::kDeadlineExceeded, "too slow");
  pool.Submit([] {});
  const Status st = pool.Wait(source.token());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(ThreadPoolCancelTest, AlreadyCancelledWaitWithNoTasksReturnsTheCode) {
  // Nothing queued: the wait loop never runs, yet the fired token must
  // still fail the wait, with the token's own code.
  ThreadPool pool(2);
  CancellationSource source;
  source.Cancel(StatusCode::kDeadlineExceeded, "expired before the wait");
  const Status st = pool.Wait(source.token());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(ThreadPoolCancelTest, TaskErrorsAreRethrownEvenWhenCancelled) {
  ThreadPool pool(1);
  CancellationSource source;
  std::atomic<bool> started{false};
  // The task must be RUNNING when the cancel fires: a cancel that lands
  // first would drop it from the queue (the documented drop semantics) and
  // there would be no error to rethrow.
  pool.Submit([&] {
    started = true;
    source.token().WaitForCancellation(10.0);
    throw std::runtime_error("task exploded");
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  source.Cancel(StatusCode::kCancelled, "also cancelled");
  EXPECT_THROW(
      {
        Status st = pool.Wait(source.token());
        (void)st;
      },
      std::runtime_error);
}

}  // namespace
}  // namespace pasjoin::exec
