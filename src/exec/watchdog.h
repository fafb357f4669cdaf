// Copyright 2026 The pasjoin Authors.
//
// Job deadline enforcement and stuck-task detection (docs/CANCELLATION.md).
//
// The engine starts one Watchdog per job when the job has a Deadline or
// WatchdogOptions::enabled stall detection. Its thread wakes every
// poll_interval_seconds and
//
//   * cancels the *job* with kDeadlineExceeded the instant the deadline
//     passes (the sleep is clipped to the time remaining, so the firing
//     latency is bounded by the poll interval, not aligned to it), and
//   * cancels any registered *task attempt* whose progress heartbeat has
//     not advanced for quiet_period_seconds (kCancelled, reason naming the
//     task) — the recovering executor then treats the cancelled attempt as
//     a failure and re-executes it from lineage, which is what turns a hung
//     attempt into a bounded retry instead of a hung job.
//
// Heartbeats are the progress signal: every attempt of the recovering
// executor owns a TaskHeartbeat whose counter the phase bodies bump from
// their existing batch loops (tuples mapped, kernel emission batches,
// partitions joined). Stall detection therefore only runs where recovery can
// act on a cancellation — the recovering executor; under the steal executor
// the watchdog enforces the deadline only.
#ifndef PASJOIN_EXEC_WATCHDOG_H_
#define PASJOIN_EXEC_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/trace_recorder.h"

namespace pasjoin::exec {

/// Records one instant event with a single integer arg on `track` (no-op
/// for a null `trace`). The engine's "fault" events and the "cancel" events
/// of the engine and the watchdog all go through it; tools/trace_summary.py
/// --validate reconciles them against the fault and cancellation counters.
void TraceInstant(obs::TraceRecorder* trace, const char* category,
                  const char* name, int32_t track, const char* arg_name,
                  int64_t arg_value);

/// Stuck-task watchdog configuration (docs/CANCELLATION.md §"Watchdog
/// tuning"). Deadlines are enforced independently of `enabled`.
struct WatchdogOptions {
  /// Master switch for stall detection. Only effective together with
  /// FaultOptions::enabled (recovery is what makes cancelling a stuck
  /// attempt productive); under the steal executor it is inert.
  bool enabled = false;

  /// An attempt whose heartbeat has not advanced for this long is
  /// cancelled. Must exceed the longest legitimately silent stretch of a
  /// task (queue wait is excluded — attempts register only once running).
  double quiet_period_seconds = 2.0;

  /// Sampling cadence of the watchdog thread; also bounds how late a
  /// deadline can fire.
  double poll_interval_seconds = 0.01;

  /// Rejects non-positive or non-finite periods.
  [[nodiscard]] Status Validate() const;
};

/// Progress signal + cancellation handle of one running task attempt. The
/// attempt bumps `Pulse` from its batch loops (relaxed add, hot-path safe);
/// the watchdog samples `progress()` and cancels through the embedded
/// source, which is linked to the job token so a job-level cancel reaches
/// every attempt too.
class TaskHeartbeat {
 public:
  /// `phase_name` must outlive the heartbeat (string literal).
  TaskHeartbeat(const CancellationToken& job, const char* phase_name, int task)
      : source_(job), phase_name_(phase_name), task_(task) {}

  TaskHeartbeat(const TaskHeartbeat&) = delete;
  TaskHeartbeat& operator=(const TaskHeartbeat&) = delete;

  /// Records `units` of forward progress (tuples, batches, partitions).
  void Pulse(uint64_t units) {
    progress_.fetch_add(units, std::memory_order_relaxed);
  }

  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// The heartbeat counter cell, for kernels that bump it directly.
  std::atomic<uint64_t>* cell() { return &progress_; }

  /// Token the attempt polls: fires on attempt-level cancellation (the
  /// watchdog) and on job-level cancellation (via the link).
  CancellationToken token() const { return source_.token(); }

  /// Cancels this attempt only (the job is untouched).
  bool Cancel(StatusCode code, std::string reason) {
    return source_.Cancel(code, std::move(reason));
  }

  const char* phase_name() const { return phase_name_; }
  int task() const { return task_; }

 private:
  friend class Watchdog;

  std::atomic<uint64_t> progress_{0};
  CancellationSource source_;
  const char* phase_name_;
  const int task_;

  // Sampling bookkeeping, touched only by the watchdog thread (a single
  // sampler; registration/unregistration never reads these).
  uint64_t last_progress_ = 0;
  double last_change_seconds_ = -1.0;  // -1 = not yet sampled
  bool fired_ = false;
};

/// Per-job watchdog thread. Constructed by the engine before the thread
/// pool (so it outlives every task) and joined in the destructor. Inactive
/// (no thread at all) when neither a deadline nor stall detection is
/// configured.
///
/// Concurrency: the heartbeat registry is guarded by `mu_` (rank
/// lockrank::kWatchdogRegistry); the thread snapshots it and issues every
/// Cancel() with no lock held, so the watchdog nests with nothing.
class Watchdog {
 public:
  Watchdog(const WatchdogOptions& options, Deadline deadline,
           CancellationSource* job_source, obs::TraceRecorder* trace);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// True when the watchdog thread is running.
  bool active() const { return thread_.joinable(); }

  /// True when stall detection is on (implies active()).
  bool stall_detection() const { return active() && options_.enabled; }

  /// Adds `heartbeat` to the sampled set. No-op when stall detection is
  /// off. Register only once the attempt is actually executing — queue
  /// wait must not count against the quiet period.
  void Register(const std::shared_ptr<TaskHeartbeat>& heartbeat)
      PASJOIN_EXCLUDES(mu_);

  /// Removes `heartbeat` from the sampled set (no-op if absent).
  void Unregister(const std::shared_ptr<TaskHeartbeat>& heartbeat)
      PASJOIN_EXCLUDES(mu_);

  /// Stall cancellations issued so far.
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  void Loop() PASJOIN_EXCLUDES(mu_);

  const WatchdogOptions options_;
  const Deadline deadline_;
  CancellationSource* const job_source_;
  obs::TraceRecorder* const trace_;

  std::atomic<uint64_t> fires_{0};
  bool deadline_fired_ = false;  // watchdog thread only

  Mutex mu_{"Watchdog::mu_", lockrank::kWatchdogRegistry};
  CondVar cv_;
  bool stop_ PASJOIN_GUARDED_BY(mu_) = false;
  std::vector<std::shared_ptr<TaskHeartbeat>> heartbeats_
      PASJOIN_GUARDED_BY(mu_);

  std::thread thread_;
};

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_WATCHDOG_H_
