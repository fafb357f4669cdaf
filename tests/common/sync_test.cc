// Copyright 2026 The pasjoin Authors.
//
// Tests for the annotated sync primitives (common/sync.h): Mutex/MutexLock
// mutual exclusion, CondVar signaling, and — the point of this TU — the
// lock-rank deadlock checker. This file force-enables the rank checks
// (PASJOIN_SYNC_FORCE_RANK_CHECKS, set in tests/CMakeLists.txt) so the
// inversion death tests run under the tier-1 RelWithDebInfo build too.
#include "common/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pasjoin {
namespace {

TEST(SyncTest, MutexLockProvidesMutualExclusion) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  Mutex mu;
  int counter = 0;  // deliberately non-atomic: the lock is the protection
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrementsPerThread);
}

TEST(SyncTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu;
  mu.Lock();
  std::atomic<int> observed{-1};
  std::thread peer([&mu, &observed] {
    if (mu.TryLock()) {
      observed.store(1);
      mu.Unlock();
    } else {
      observed.store(0);
    }
  });
  peer.join();
  EXPECT_EQ(observed.load(), 0);
  mu.Unlock();
  std::thread second([&mu, &observed] {
    if (mu.TryLock()) {
      observed.store(1);
      mu.Unlock();
    } else {
      observed.store(0);
    }
  });
  second.join();
  EXPECT_EQ(observed.load(), 1);
}

TEST(SyncTest, CondVarWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool consumed = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    consumed = true;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(&mu);
  EXPECT_TRUE(consumed);
}

TEST(SyncTest, WaitForWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    {
      MutexLock lock(&mu);
      ready = true;
    }
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.WaitFor(&mu, std::chrono::milliseconds(50));
    EXPECT_TRUE(ready);
  }
  notifier.join();
}

TEST(SyncTest, WaitForTimesOutWithoutNotifier) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  // No notifier: WaitFor must eventually report a timeout (spurious wakeups
  // may legitimately report "notified" finitely many times first).
  int wakeups = 0;
  while (cv.WaitFor(&mu, std::chrono::milliseconds(1))) {
    ASSERT_LT(++wakeups, 1000) << "WaitFor never timed out";
  }
}

// ---------------------------------------------------------------------------
// Lock-rank checker (compiled in via PASJOIN_SYNC_FORCE_RANK_CHECKS).
// ---------------------------------------------------------------------------

TEST(SyncRankTest, IncreasingRankOrderIsAccepted) {
  Mutex low("test::low", 10);
  Mutex high("test::high", 20);
  MutexLock outer(&low);
  MutexLock inner(&high);
  SUCCEED();
}

TEST(SyncRankTest, FullLockrankTableOrderIsAccepted) {
  // The documented engine nesting: worker store -> thread pool, with trace
  // registration innermost. Must not abort.
  Mutex store("t::store", lockrank::kEngineWorkerStore);
  Mutex pool("t::pool", lockrank::kThreadPool);
  Mutex trace("t::trace", lockrank::kTraceShards);
  MutexLock l1(&store);
  MutexLock l2(&pool);
  MutexLock l3(&trace);
  SUCCEED();
}

TEST(SyncRankTest, UnrankedMutexIsExemptFromOrdering) {
  Mutex ranked("test::ranked", 50);
  Mutex unranked_outer;
  Mutex unranked_inner;
  // Unranked locks may interleave with ranked ones in any order.
  MutexLock outer(&unranked_outer);
  MutexLock mid(&ranked);
  MutexLock inner(&unranked_inner);
  SUCCEED();
}

TEST(SyncRankTest, ReacquireAfterReleaseIsAccepted) {
  Mutex low("test::low", 10);
  Mutex high("test::high", 20);
  for (int i = 0; i < 3; ++i) {
    MutexLock outer(&low);
    MutexLock inner(&high);
  }
  SUCCEED();
}

TEST(SyncRankDeathTest, InversionAbortsNamingBothLocks) {
  EXPECT_DEATH(
      {
        Mutex a("test::a", 10);
        Mutex b("test::b", 20);
        MutexLock outer(&b);
        MutexLock inner(&a);  // 10 after 20: inversion
      },
      "LOCK-RANK INVERSION.*'test::a' \\(rank 10\\) while already holding "
      "'test::b' \\(rank 20\\)");
}

TEST(SyncRankDeathTest, EqualRanksAbort) {
  // Two locks of the same rank have no defined order; taking both is the
  // classic ABBA hazard and must abort.
  EXPECT_DEATH(
      {
        Mutex a("test::a", 10);
        Mutex b("test::b", 10);
        MutexLock outer(&a);
        MutexLock inner(&b);
      },
      "LOCK-RANK INVERSION");
}

TEST(SyncRankDeathTest, TryLockInversionAborts) {
  EXPECT_DEATH(
      {
        Mutex a("test::a", 10);
        Mutex b("test::b", 20);
        MutexLock outer(&b);
        if (a.TryLock()) a.Unlock();
      },
      "LOCK-RANK INVERSION");
}

TEST(SyncRankDeathTest, UnbalancedReleaseAborts) {
  EXPECT_DEATH(
      { sync_internal::PopHeldRank(10, "test::never-held"); },
      "UNBALANCED RELEASE.*'test::never-held'");
}

TEST(SyncRankDeathTest, HeldRankStackOverflowAborts) {
  EXPECT_DEATH(
      {
        for (int i = 0; i <= sync_internal::kMaxHeldRanks; ++i) {
          sync_internal::PushHeldRank(i + 1, "test::deep");
        }
      },
      "held-rank stack overflow");
}

}  // namespace
}  // namespace pasjoin
