// Copyright 2026 The pasjoin Authors.
#include "obs/trace_recorder.h"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>


namespace pasjoin::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validity checker, enough to prove the
// exported trace is well-formed (balanced structure, legal strings/numbers,
// no trailing commas). It validates; it does not build a document.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't' &&
            esc != 'u') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(ScopedSpanTest, NullRecorderIsANoOp) {
  // Every method must be callable (and free) against a null recorder — the
  // instrumented code paths run unconditionally in production.
  ScopedSpan span(nullptr, "noop", "test");
  span.AddArg("a", 1);
  span.SetStringArg("k", "v");
  span.SetTrack(7);
  ScopedTrack track(nullptr, 3);
  EXPECT_EQ(TraceRecorder::CurrentTrack(), kDriverTrack);
}

TEST(ScopedSpanTest, RecordsNameCategoryArgsAndDuration) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, "unit-span", "test");
    span.AddArg("alpha", 41);
    span.AddArg("beta", -2);
    span.SetStringArg("kernel", "sweep-soa");
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_STREQ(e.name, "unit-span");
  EXPECT_STREQ(e.category, "test");
  EXPECT_EQ(e.type, 'X');
  EXPECT_EQ(e.track, kDriverTrack);
  EXPECT_GE(e.start_ns, 0);
  EXPECT_GE(e.duration_ns, 0);
  ASSERT_EQ(e.num_args, 2);
  EXPECT_STREQ(e.arg_names[0], "alpha");
  EXPECT_EQ(e.arg_values[0], 41);
  EXPECT_STREQ(e.arg_names[1], "beta");
  EXPECT_EQ(e.arg_values[1], -2);
  EXPECT_STREQ(e.str_name, "kernel");
  EXPECT_STREQ(e.str_value, "sweep-soa");
}

TEST(ScopedSpanTest, ExtraArgsBeyondLimitAreIgnored) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, "argful", "test");
    for (int i = 0; i < kMaxSpanArgs + 3; ++i) span.AddArg("n", i);
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_args, kMaxSpanArgs);
}

TEST(ScopedSpanTest, NestedSpansAreProperlyContained) {
  TraceRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", "test");
    {
      ScopedSpan inner(&recorder, "inner", "test");
    }
  }
  // Snapshot sorts by start time, so the outer span comes first.
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.duration_ns,
            inner.start_ns + inner.duration_ns);
}

TEST(ScopedTrackTest, SpansInheritTheActiveTrackAndNestingRestores) {
  TraceRecorder recorder;
  {
    ScopedTrack worker3(&recorder, 3);
    EXPECT_EQ(TraceRecorder::CurrentTrack(), 3);
    { ScopedSpan span(&recorder, "on-3", "test"); }
    {
      ScopedTrack worker5(&recorder, 5);
      EXPECT_EQ(TraceRecorder::CurrentTrack(), 5);
      { ScopedSpan span(&recorder, "on-5", "test"); }
    }
    EXPECT_EQ(TraceRecorder::CurrentTrack(), 3);  // restored after nesting
    { ScopedSpan span(&recorder, "back-on-3", "test"); }
  }
  EXPECT_EQ(TraceRecorder::CurrentTrack(), kDriverTrack);

  std::map<std::string, int32_t> track_of;
  for (const TraceEvent& e : recorder.Snapshot()) track_of[e.name] = e.track;
  EXPECT_EQ(track_of.at("on-3"), 3);
  EXPECT_EQ(track_of.at("on-5"), 5);
  EXPECT_EQ(track_of.at("back-on-3"), 3);
}

TEST(TraceRecorderTest, InstantEventsCarryTrackAndZeroDuration) {
  TraceRecorder recorder;
  recorder.Instant("fault-retry", "fault", 2);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, 'i');
  EXPECT_EQ(events[0].track, 2);
  EXPECT_EQ(events[0].duration_ns, 0);
  EXPECT_STREQ(events[0].category, "fault");
}

TEST(TraceRecorderTest, ThreadAttributionAcrossRealThreads) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      ScopedTrack track(&recorder, t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&recorder, "worker-span", "test");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.thread_count(), static_cast<size_t>(kThreads));
  EXPECT_EQ(recorder.dropped_events(), 0u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  // Each physical thread pinned one logical track, so within a thread
  // ordinal every event must carry the same track, and all tracks appear.
  std::map<uint32_t, std::set<int32_t>> tracks_by_thread;
  std::set<int32_t> all_tracks;
  for (const TraceEvent& e : events) {
    tracks_by_thread[e.thread].insert(e.track);
    all_tracks.insert(e.track);
  }
  EXPECT_EQ(tracks_by_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [thread, tracks] : tracks_by_thread) {
    EXPECT_EQ(tracks.size(), 1u) << "thread " << thread;
  }
  EXPECT_EQ(all_tracks.size(), static_cast<size_t>(kThreads));
}

TEST(TraceRecorderTest, FullShardDropsAndCounts) {
  TraceRecorder recorder(/*max_events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&recorder, "bounded", "test");
  }
  EXPECT_EQ(recorder.Snapshot().size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
}

TEST(TraceRecorderTest, FreshRecorderDoesNotInheritStaleThreadCache) {
  // Destroying a recorder and constructing another (possibly at the same
  // address) must not leave this thread appending into freed shards.
  auto first = std::make_unique<TraceRecorder>();
  { ScopedSpan span(first.get(), "old", "test"); }
  EXPECT_EQ(first->Snapshot().size(), 1u);
  first.reset();

  TraceRecorder second;
  { ScopedSpan span(&second, "new", "test"); }
  const std::vector<TraceEvent> events = second.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "new");
}

TEST(TraceRecorderTest, ExportedJsonIsWellFormed) {
  TraceRecorder recorder;
  recorder.exported().counters.emplace_back("candidates", 1234);
  recorder.exported().gauges.emplace_back("join_seconds", 0.25);
  {
    ScopedTrack track(&recorder, 0);
    ScopedSpan span(&recorder, "join-task", "task");
    span.AddArg("task", 0);
    span.SetStringArg("kernel", "sweep-soa");
  }
  recorder.Instant("fault-retry", "fault", 1);
  {
    ScopedSpan driver(&recorder, "phase-join", "phase");
    driver.SetTrack(kDriverTrack);
  }

  std::string json;
  recorder.AppendJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The Chrome trace-event envelope and the pasjoin extension keys.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"pasjoin_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"pasjoin_gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"join-task\""), std::string::npos);
  EXPECT_NE(json.find("\"fault-retry\""), std::string::npos);
}

TEST(TraceRecorderTest, ConcurrentAppendJsonStaysWellFormed) {
  // Hammer the recorder from several threads, then export: the JSON must
  // stay parseable regardless of interleaving (export runs post-join here,
  // per the documented threading contract).
  TraceRecorder recorder;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&recorder, t] {
      ScopedTrack track(&recorder, t);
      for (int i = 0; i < 50; ++i) {
        ScopedSpan span(&recorder, "hammer", "test");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::string json;
  recorder.AppendJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid());
}

}  // namespace
}  // namespace pasjoin::obs
