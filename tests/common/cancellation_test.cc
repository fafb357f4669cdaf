// Copyright 2026 The pasjoin Authors.
//
// Tests of the cooperative cancellation primitives (common/cancellation.h):
// Deadline arithmetic, token/source semantics, first-cancel-wins,
// parent->child propagation and unlinking, and the interruptible wait
// contract (docs/CANCELLATION.md).
#include "common/cancellation.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/stopwatch.h"

namespace pasjoin {
namespace {

TEST(DeadlineTest, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.HasExpired());
  EXPECT_TRUE(std::isinf(d.SecondsRemaining()));
  EXPECT_TRUE(Deadline::Never().unlimited());
}

TEST(DeadlineTest, AfterSecondsExpires) {
  const Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.HasExpired());
  EXPECT_LE(d.SecondsRemaining(), 0.0);
  // Negative budget is clamped to already-expired, not undefined.
  EXPECT_TRUE(Deadline::AfterSeconds(-5.0).HasExpired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  const Deadline d = Deadline::AfterSeconds(3600.0);
  EXPECT_FALSE(d.HasExpired());
  EXPECT_GT(d.SecondsRemaining(), 3000.0);
  EXPECT_LE(d.SecondsRemaining(), 3600.0);
}

TEST(DeadlineTest, HugeAndInfiniteSecondsNeverExpire) {
  // The steady clock holds about 292 years of nanoseconds; a longer span
  // would overflow its tick count, so it means "never".
  for (const double seconds : {1e10, 1e300,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::infinity()}) {
    const Deadline d = Deadline::AfterSeconds(seconds);
    EXPECT_TRUE(d.unlimited()) << seconds;
    EXPECT_FALSE(d.HasExpired()) << seconds;
  }
  // A span the clock holds stays a deadline, and NaN stays expired.
  const Deadline far = Deadline::AfterSeconds(1e9);
  EXPECT_FALSE(far.unlimited());
  EXPECT_GT(far.SecondsRemaining(), 0.99e9);
  EXPECT_TRUE(Deadline::AfterSeconds(std::numeric_limits<double>::quiet_NaN())
                  .HasExpired());
}

TEST(CancellationTokenTest, DefaultTokenNeverCancels) {
  const CancellationToken token;
  EXPECT_FALSE(token.CanBeCancelled());
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancellationTokenTest, SourceCancelTripsAllTokens) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = source.token();
  EXPECT_TRUE(a.CanBeCancelled());
  EXPECT_FALSE(a.IsCancelled());
  EXPECT_FALSE(source.cancelled());

  EXPECT_TRUE(source.Cancel(StatusCode::kCancelled, "stop"));
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(a.IsCancelled());
  EXPECT_TRUE(b.IsCancelled());
  const Status st = a.ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "stop");
}

TEST(CancellationTokenTest, FirstCancelWins) {
  CancellationSource source;
  EXPECT_TRUE(source.Cancel(StatusCode::kDeadlineExceeded, "late"));
  EXPECT_FALSE(source.Cancel(StatusCode::kCancelled, "second"));
  const Status st = source.token().ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(st.message(), "late");
}

TEST(CancellationTokenTest, TokenOutlivesSource) {
  CancellationToken token;
  {
    CancellationSource source;
    token = source.token();
    source.Cancel(StatusCode::kCancelled, "bye");
  }
  // The token keeps the shared state alive; reading it is safe.
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationLinkTest, ParentCancelPropagatesToChild) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  EXPECT_FALSE(child.cancelled());
  parent.Cancel(StatusCode::kDeadlineExceeded, "job deadline");
  EXPECT_TRUE(child.cancelled());
  const Status st = child.token().ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(st.message(), "job deadline");
}

TEST(CancellationLinkTest, ChildCancelLeavesParentLive) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  child.Cancel(StatusCode::kCancelled, "attempt only");
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(CancellationLinkTest, DestroyedChildUnlinksFromParent) {
  CancellationSource parent;
  { CancellationSource child(parent.token()); }
  // Must not crash or fire into freed state.
  parent.Cancel(StatusCode::kCancelled, "late parent cancel");
  EXPECT_TRUE(parent.cancelled());
}

TEST(CancellationLinkTest, ChildOfCancelledParentStartsCancelled) {
  CancellationSource parent;
  parent.Cancel(StatusCode::kCancelled, "already gone");
  CancellationSource child(parent.token());
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.token().ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationWaitTest, WaitTimesOutWhenNotCancelled) {
  CancellationSource source;
  const Stopwatch sw;
  EXPECT_FALSE(source.token().WaitForCancellation(0.02));
  EXPECT_GE(sw.ElapsedSeconds(), 0.015);
}

TEST(CancellationWaitTest, SourcelessTokenSleepsFullDuration) {
  const CancellationToken token;
  const Stopwatch sw;
  EXPECT_FALSE(token.WaitForCancellation(0.02));
  EXPECT_GE(sw.ElapsedSeconds(), 0.015);
  EXPECT_FALSE(token.WaitForCancellation(0.0));
  EXPECT_FALSE(token.WaitForCancellation(-1.0));
}

TEST(CancellationWaitTest, CancelInterruptsWait) {
  CancellationSource source;
  const CancellationToken token = source.token();
  std::thread canceller([&] {
    // Give the waiter a moment to block (the wait is correct either way).
    token.WaitForCancellation(0.005);
    source.Cancel(StatusCode::kCancelled, "wake up");
  });
  const Stopwatch sw;
  // Far below the 10 s budget: the cancel cuts the sleep short.
  EXPECT_TRUE(token.WaitForCancellation(10.0));
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  canceller.join();
  EXPECT_TRUE(source.token().WaitForCancellation(10.0))
      << "already-cancelled wait returns immediately";
}

TEST(CancellationWaitTest, HugeWaitOnCancelledTokenReturnsAtOnce) {
  CancellationSource source;
  source.Cancel(StatusCode::kCancelled, "already gone");
  const Stopwatch sw;
  EXPECT_TRUE(source.token().WaitForCancellation(1e300));
  EXPECT_TRUE(source.token().WaitForCancellation(
      std::numeric_limits<double>::infinity()));
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
}

TEST(CancellationWaitTest, CancelInterruptsAnUnboundedWait) {
  CancellationSource source;
  std::thread canceller([&] {
    CancellationToken().WaitForCancellation(0.005);
    source.Cancel(StatusCode::kCancelled, "wake up");
  });
  const Stopwatch sw;
  EXPECT_TRUE(source.token().WaitForCancellation(1e300));
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  canceller.join();
}

TEST(CancellationStressTest, ConcurrentCancelRacesAreSingleWinner) {
  for (int round = 0; round < 20; ++round) {
    CancellationSource source;
    std::atomic<int> wins{0};
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        if (source.Cancel(StatusCode::kCancelled,
                          std::string("t").append(std::to_string(t)))) {
          ++wins;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_TRUE(source.cancelled());
  }
}

}  // namespace
}  // namespace pasjoin
