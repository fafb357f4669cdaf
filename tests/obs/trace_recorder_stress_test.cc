// Copyright 2026 The pasjoin Authors.
//
// Concurrency stress tests for the tracing layer, written to be run under
// ThreadSanitizer (label: stress). They hammer the one locking step of the
// record path — first-append shard registration — from many threads at
// once, while the same threads exercise the lock-free append fast path and
// per-thread track state.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_recorder.h"

namespace pasjoin::obs {
namespace {

TEST(TraceRecorderStressTest, ConcurrentRegistrationAndAppend) {
  constexpr int kThreads = 16;
  constexpr int kEventsPerThread = 2000;
  TraceRecorder recorder;
  std::atomic<int> start_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &start_gate, t] {
      // Rendezvous so all 16 first appends (= shard registrations) contend
      // on the recorder mutex at once instead of arriving serialized.
      start_gate.fetch_add(1, std::memory_order_relaxed);
      while (start_gate.load(std::memory_order_relaxed) < kThreads) {
        std::this_thread::yield();
      }
      ScopedTrack track(&recorder, t);
      for (int i = 0; i < kEventsPerThread; ++i) {
        ScopedSpan span(&recorder, "stress-span", "test");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.thread_count(), static_cast<size_t>(kThreads));
  EXPECT_EQ(recorder.dropped_events(), 0u);

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kEventsPerThread);
  // Every thread's spans landed on its own logical track, and each physical
  // thread got a distinct shard ordinal.
  std::map<int32_t, int> per_track;
  std::map<uint32_t, int> per_shard;
  for (const TraceEvent& e : events) {
    per_track[e.track]++;
    per_shard[e.thread]++;
  }
  ASSERT_EQ(per_track.size(), static_cast<size_t>(kThreads));
  ASSERT_EQ(per_shard.size(), static_cast<size_t>(kThreads));
  for (const auto& [track, count] : per_track) {
    EXPECT_GE(track, 0);
    EXPECT_LT(track, kThreads);
    EXPECT_EQ(count, kEventsPerThread) << "track " << track;
  }
}

TEST(TraceRecorderStressTest, ConcurrentOverflowDropsAreCounted) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 1000;
  constexpr size_t kShardCapacity = 64;
  TraceRecorder recorder(kShardCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        recorder.Instant("stress-instant", "test", kDriverTrack);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Each shard keeps exactly its capacity and counts the rest as dropped;
  // nothing is lost silently and nothing blocks.
  EXPECT_EQ(recorder.Snapshot().size(),
            static_cast<size_t>(kThreads) * kShardCapacity);
  EXPECT_EQ(recorder.dropped_events(),
            static_cast<uint64_t>(kThreads) *
                (kEventsPerThread - kShardCapacity));
}

TEST(TraceRecorderStressTest, BackToBackRecordersInvalidateShardCache) {
  // The thread-local shard cache is keyed by recorder identity. The SAME
  // worker threads record into a first recorder, survive its destruction,
  // then record into a second one: every append must re-register against
  // the new recorder instead of writing through the stale cached shard.
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 200;
  std::atomic<int> done_first{0};
  std::atomic<TraceRecorder*> second{nullptr};
  auto first = std::make_unique<TraceRecorder>();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        first->Instant("round-instant", "test", kDriverTrack);
      }
      done_first.fetch_add(1, std::memory_order_release);
      TraceRecorder* next;
      while ((next = second.load(std::memory_order_acquire)) == nullptr) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kEventsPerThread; ++i) {
        next->Instant("round-instant", "test", kDriverTrack);
      }
    });
  }
  while (done_first.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(first->Snapshot().size(),
            static_cast<size_t>(kThreads) * kEventsPerThread);
  first.reset();
  TraceRecorder replacement;
  second.store(&replacement, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(replacement.Snapshot().size(),
            static_cast<size_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(replacement.thread_count(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace pasjoin::obs
