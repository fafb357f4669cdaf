// Copyright 2026 The pasjoin Authors.
//
// Execution tracing for the distributed join engine.
//
// The paper's evaluation is built entirely from per-phase breakdowns
// (construction vs join time, replication counts, shuffle traffic), and
// every scheduling/caching decision a runtime-adaptive system makes needs
// per-task telemetry to justify itself. This header provides that substrate:
//
//   * TraceRecorder — collects timestamped span and instant events into
//     per-thread sharded buffers. The recording hot path takes NO lock: a
//     thread registers its shard once (one mutex acquisition per thread per
//     recorder), then appends events with plain vector push_backs. A full
//     shard drops events (counted, never blocking).
//   * ScopedSpan — RAII span. Constructing against a null recorder is a
//     single pointer test; instrumentation is compiled in everywhere and
//     costs nothing when no recorder is attached.
//   * ScopedTrack — sets the calling thread's *logical track* (the logical
//     worker id in the engine's phases, kDriverTrack for driver work).
//     Spans opened while a track is active inherit it, which is how kernel
//     code deep below the engine lands on the right worker track without
//     ever seeing the engine's worker ids.
//
// Export is Chrome trace-event JSON (chrome://tracing and Perfetto both
// load it): one process, one "thread" timeline per logical worker plus one
// for the driver, span args carried per event, and the traced job's
// TraceExport (its JobMetrics, written by exec::PublishMetrics) under the
// top-level "pasjoin_counters" and "pasjoin_gauges" keys.
// tools/trace_summary.py prints a per-phase/per-worker rollup and
// cross-validates span sums against the job's reported metrics.
//
// Event name/category/arg-name strings must have static storage duration
// (string literals): events store the pointers, not copies. Dynamic values
// belong in the integer args.
//
// Thread-safety: Append/ScopedSpan/ScopedTrack are safe from any thread.
// Snapshot/WriteJson/AppendJson must not run concurrently with appends
// (export the trace after the traced run has completed). The TraceExport is
// plain data: the traced job writes it on the thread that runs the job,
// while none of its tasks run, so a recorder traces one job at a time.
#ifndef PASJOIN_OBS_TRACE_RECORDER_H_
#define PASJOIN_OBS_TRACE_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace pasjoin::obs {

/// Logical track of driver (non-worker-attributed) work.
inline constexpr int32_t kDriverTrack = -1;

/// Maximum integer args carried by one event.
inline constexpr int kMaxSpanArgs = 5;

/// One recorded trace event. Plain data; name/category/arg-name/str_value
/// pointers must be string literals (static storage duration).
struct TraceEvent {
  /// Span or instant name ("join-task", "kernel-sort", "fault-retry", ...).
  const char* name = nullptr;
  /// Event category ("engine", "kernel", "driver", "fault").
  const char* category = nullptr;
  /// 'X' = complete span, 'i' = instant event.
  char type = 'X';
  /// Start, nanoseconds since the recorder's epoch.
  int64_t start_ns = 0;
  /// Duration in nanoseconds (0 for instants).
  int64_t duration_ns = 0;
  /// Logical track: a worker id, or kDriverTrack.
  int32_t track = kDriverTrack;
  /// Ordinal of the physical thread that recorded the event (0-based, in
  /// registration order). Used for nesting/attribution checks.
  uint32_t thread = 0;
  /// Integer args (names must be string literals).
  const char* arg_names[kMaxSpanArgs] = {};
  int64_t arg_values[kMaxSpanArgs] = {};
  int num_args = 0;
  /// Optional string arg rendered as args.{str_name}: {str_value} (both
  /// string literals), e.g. the kernel name of a join task.
  const char* str_name = nullptr;
  const char* str_value = nullptr;
};

/// Named values a traced job exports into the trace file
/// ("pasjoin_counters", "pasjoin_gauges"), in export order. Names must be
/// string literals, like event names.
struct TraceExport {
  std::vector<std::pair<const char*, uint64_t>> counters;
  std::vector<std::pair<const char*, double>> gauges;
};

/// Collects trace events into per-thread shards and exports Chrome
/// trace-event JSON. See the file comment for the threading contract.
class TraceRecorder {
 public:
  /// `max_events_per_thread` bounds each shard; events beyond the bound are
  /// dropped and counted (dropped_events).
  explicit TraceRecorder(size_t max_events_per_thread = size_t{1} << 20);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Nanoseconds since this recorder's construction (the trace epoch).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Appends `event` to the calling thread's shard (lock-free after the
  /// thread's first append; `event.thread` is overwritten with the calling
  /// thread's ordinal).
  void Append(const TraceEvent& event);

  /// Records an instant event on `track` at the current time.
  void Instant(const char* name, const char* category, int32_t track);

  /// The traced job's exported metrics; serialized into the trace file.
  /// Not synchronized (see the file comment).
  TraceExport& exported() { return exported_; }
  const TraceExport& exported() const { return exported_; }

  /// Events dropped because a shard hit max_events_per_thread.
  uint64_t dropped_events() const PASJOIN_EXCLUDES(mu_);

  /// Number of distinct threads that have recorded at least one event.
  size_t thread_count() const PASJOIN_EXCLUDES(mu_);

  /// All recorded events, merged across shards and sorted by start time.
  std::vector<TraceEvent> Snapshot() const PASJOIN_EXCLUDES(mu_);

  /// Serializes the trace as Chrome trace-event JSON into `*out`.
  void AppendJson(std::string* out) const;

  /// Writes the Chrome trace-event JSON to `path`.
  [[nodiscard]] Status WriteJson(const std::string& path) const;

  /// The calling thread's current logical track (kDriverTrack unless a
  /// ScopedTrack is active).
  static int32_t CurrentTrack();

 private:
  friend class ScopedTrack;

  /// One thread's event buffer. The Shard OBJECTS are deliberately NOT
  /// mutex-guarded: after registration each shard is written by exactly one
  /// thread (the registrant, through its thread-local cached pointer) and
  /// only read by others via Snapshot/export, which the class contract
  /// forbids running concurrently with appends. Only the registry of shards
  /// (`shards_` below) is guarded.
  struct Shard {
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    uint32_t thread_ordinal = 0;
  };

  /// The calling thread's shard, registering it on first use (the only
  /// locking step of the record path; all later appends are lock-free via
  /// the thread-local cache).
  Shard* GetShard() PASJOIN_EXCLUDES(mu_);

  const std::chrono::steady_clock::time_point epoch_;
  const size_t max_events_per_thread_;
  /// Globally unique recorder identity for the thread-local shard cache
  /// (guards against a stale cache entry after a recorder at the same
  /// address was destroyed and another constructed).
  const uint64_t recorder_id_;
  TraceExport exported_;

  /// Guards shard registration and export; rank kTraceShards because a span
  /// recorded under any engine lock may register a shard on first append.
  mutable Mutex mu_{"TraceRecorder::mu_", lockrank::kTraceShards};
  std::vector<std::unique_ptr<Shard>> shards_ PASJOIN_GUARDED_BY(mu_);
};

/// RAII span: opens at construction, records at destruction. All methods
/// are no-ops when constructed against a null recorder.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name, const char* category)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.track = TraceRecorder::CurrentTrack();
    event_.start_ns = recorder_->NowNs();
  }

  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    event_.duration_ns = recorder_->NowNs() - event_.start_ns;
    recorder_->Append(event_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches an integer arg (silently ignored beyond kMaxSpanArgs).
  /// `name` must be a string literal.
  void AddArg(const char* name, int64_t value) {
    if (recorder_ == nullptr || event_.num_args >= kMaxSpanArgs) return;
    event_.arg_names[event_.num_args] = name;
    event_.arg_values[event_.num_args] = value;
    ++event_.num_args;
  }

  /// Attaches the string arg (both arguments must be string literals).
  void SetStringArg(const char* name, const char* value) {
    if (recorder_ == nullptr) return;
    event_.str_name = name;
    event_.str_value = value;
  }

  /// Overrides the span's logical track (defaults to CurrentTrack()).
  void SetTrack(int32_t track) {
    if (recorder_ == nullptr) return;
    event_.track = track;
  }

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

/// RAII logical-track context: spans opened on this thread while the object
/// lives inherit `track`. Nests (restores the previous track on
/// destruction); a null recorder makes it a no-op.
class ScopedTrack {
 public:
  ScopedTrack(const TraceRecorder* recorder, int32_t track);
  ~ScopedTrack();
  ScopedTrack(const ScopedTrack&) = delete;
  ScopedTrack& operator=(const ScopedTrack&) = delete;

 private:
  bool active_;
  int32_t previous_ = kDriverTrack;
};

}  // namespace pasjoin::obs

#endif  // PASJOIN_OBS_TRACE_RECORDER_H_
