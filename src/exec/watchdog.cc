// Copyright 2026 The pasjoin Authors.
#include "exec/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/stopwatch.h"

namespace pasjoin::exec {

void TraceInstant(obs::TraceRecorder* trace, const char* category,
                  const char* name, int32_t track, const char* arg_name,
                  int64_t arg_value) {
  if (trace == nullptr) return;
  obs::TraceEvent e;
  e.name = name;
  e.category = category;
  e.type = 'i';
  e.start_ns = trace->NowNs();
  e.track = track;
  e.arg_names[0] = arg_name;
  e.arg_values[0] = arg_value;
  e.num_args = 1;
  trace->Append(e);
}

Status WatchdogOptions::Validate() const {
  if (!std::isfinite(quiet_period_seconds) || quiet_period_seconds <= 0.0) {
    return Status::InvalidArgument(
        "watchdog.quiet_period_seconds must be positive and finite");
  }
  if (!std::isfinite(poll_interval_seconds) || poll_interval_seconds <= 0.0) {
    return Status::InvalidArgument(
        "watchdog.poll_interval_seconds must be positive and finite");
  }
  return Status::OK();
}

Watchdog::Watchdog(const WatchdogOptions& options, Deadline deadline,
                   CancellationSource* job_source, obs::TraceRecorder* trace)
    : options_(options),
      deadline_(deadline),
      job_source_(job_source),
      trace_(trace) {
  // No deadline and no stall detection: nothing to monitor, no thread.
  if (deadline_.unlimited() && !options_.enabled) return;
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  if (!thread_.joinable()) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  thread_.join();
}

void Watchdog::Register(const std::shared_ptr<TaskHeartbeat>& heartbeat) {
  if (!stall_detection()) return;
  MutexLock lock(&mu_);
  heartbeats_.push_back(heartbeat);
}

void Watchdog::Unregister(const std::shared_ptr<TaskHeartbeat>& heartbeat) {
  if (!stall_detection()) return;
  MutexLock lock(&mu_);
  heartbeats_.erase(
      std::remove(heartbeats_.begin(), heartbeats_.end(), heartbeat),
      heartbeats_.end());
}

void Watchdog::Loop() {
  const Stopwatch clock;
  std::vector<std::shared_ptr<TaskHeartbeat>> snapshot;
  for (;;) {
    snapshot.clear();
    {
      MutexLock lock(&mu_);
      if (stop_) return;
      snapshot.assign(heartbeats_.begin(), heartbeats_.end());
    }
    // Every Cancel() below runs with no lock held: the cancellation-state
    // lock (rank kCancellationState) must never nest under the registry
    // lock, and callbacks are free to take any lock they need.
    double sleep_seconds = options_.poll_interval_seconds;
    if (!deadline_.unlimited() && !deadline_fired_) {
      const double remaining = deadline_.SecondsRemaining();
      if (remaining <= 0.0) {
        deadline_fired_ = true;
        if (job_source_->Cancel(StatusCode::kDeadlineExceeded,
                                "job deadline exceeded")) {
          TraceInstant(trace_, "cancel", "deadline-exceeded",
                       obs::kDriverTrack, "slack_us",
                       static_cast<int64_t>(remaining * 1e6));
        }
      } else {
        // Clip the sleep so the deadline fires when it passes, not at the
        // next poll-interval boundary.
        sleep_seconds = std::min(sleep_seconds, remaining);
      }
    }
    if (options_.enabled) {
      const double now = clock.ElapsedSeconds();
      for (const std::shared_ptr<TaskHeartbeat>& hb : snapshot) {
        const uint64_t progress = hb->progress();
        if (hb->last_change_seconds_ < 0.0 || progress != hb->last_progress_) {
          hb->last_progress_ = progress;
          hb->last_change_seconds_ = now;
          continue;
        }
        if (hb->fired_ ||
            now - hb->last_change_seconds_ < options_.quiet_period_seconds) {
          continue;
        }
        hb->fired_ = true;
        fires_.fetch_add(1, std::memory_order_relaxed);
        if (hb->Cancel(StatusCode::kCancelled,
                       std::string("watchdog: task ") +
                           std::to_string(hb->task()) + " of " +
                           hb->phase_name() + " made no progress for " +
                           std::to_string(options_.quiet_period_seconds) +
                           "s")) {
          TraceInstant(trace_, "cancel", "watchdog-fire", obs::kDriverTrack,
                       "task", hb->task());
        }
      }
    }
    MutexLock lock(&mu_);
    if (stop_) return;
    cv_.WaitFor(&mu_, std::chrono::duration<double>(sleep_seconds));
  }
}

}  // namespace pasjoin::exec
