// Copyright 2026 The pasjoin Authors.
#include "exec/metrics.h"

#include <cinttypes>
#include <cmath>

#include "common/str_append.h"
#include "obs/counters.h"

namespace pasjoin::exec {

std::string JobMetrics::ToString() const {
  // Built on string appends: every populated field always appears in the
  // output, no matter how many counters later PRs add (the fixed 640-byte
  // snprintf buffer this replaced truncated silently once the fault and
  // kernel fields accumulated).
  std::string out = algorithm;
  AppendF(&out,
          ": repl=%" PRIu64 " shuffled=%" PRIu64 " joinable=%" PRIu64
          " remoteMB=%.2f blockMB=%.2f "
          "cand=%" PRIu64 " res=%" PRIu64
          " constr=%.3fs join=%.3fs dedup=%.3fs total=%.3fs wall=%.3fs "
          "W=%d imbalance=%.2f",
          ReplicatedTotal(), shuffled_tuples, joinable_tuples,
          static_cast<double>(shuffle_remote_bytes) / (1024.0 * 1024.0),
          static_cast<double>(shuffle_block_bytes) / (1024.0 * 1024.0),
          candidates, results, construction_seconds, join_seconds,
          dedup_seconds, TotalSeconds(), wall_seconds, workers,
          JoinImbalance());
  if (physical_threads > 0) {
    AppendF(&out,
            " threads=%d measured[constr=%.3fs join=%.3fs dedup=%.3fs "
            "total=%.3fs]",
            physical_threads, measured_construction_seconds,
            measured_join_seconds, measured_dedup_seconds,
            MeasuredTotalSeconds());
  }
  if (measured_planning_seconds > 0.0) {
    AppendF(&out, " planning=%.3fs", measured_planning_seconds);
  }
  if (!local_kernel.empty()) {
    AppendF(&out, " kernel=%s[sort=%.3fs sweep=%.3fs emit=%.3fs]",
            local_kernel.c_str(), kernel_sort_seconds, kernel_sweep_seconds,
            kernel_emit_seconds);
  }
  if (tasks_failed > 0 || tasks_retried > 0 || tasks_speculated > 0 ||
      recovery_seconds > 0.0) {
    AppendF(&out,
            " failed=%" PRIu64 " retried=%" PRIu64 " spec=%" PRIu64
            " recovery=%.3fs",
            tasks_failed, tasks_retried, tasks_speculated, recovery_seconds);
  }
  if (watchdog_fires > 0) {
    AppendF(&out, " watchdog_fires=%" PRIu64, watchdog_fires);
  }
  if (std::isfinite(deadline_slack_seconds)) {
    AppendF(&out, " deadline_slack=%.3fs", deadline_slack_seconds);
  }
  return out;
}

void PublishMetrics(const JobMetrics& metrics,
                    obs::CounterRegistry* registry) {
  registry->Set("replicated_r", metrics.replicated_r);
  registry->Set("replicated_s", metrics.replicated_s);
  registry->Set("shuffled_tuples", metrics.shuffled_tuples);
  registry->Set("joinable_tuples", metrics.joinable_tuples);
  registry->Set("shuffle_bytes", metrics.shuffle_bytes);
  registry->Set("shuffle_remote_bytes", metrics.shuffle_remote_bytes);
  registry->Set("shuffle_block_bytes", metrics.shuffle_block_bytes);
  registry->Set("candidates", metrics.candidates);
  registry->Set("results", metrics.results);
  registry->Set("partitions_joined", metrics.partitions_joined);
  registry->Set("tasks_failed", metrics.tasks_failed);
  registry->Set("tasks_retried", metrics.tasks_retried);
  registry->Set("tasks_speculated", metrics.tasks_speculated);
  registry->Set("watchdog_fires", metrics.watchdog_fires);
  registry->SetGauge("construction_seconds", metrics.construction_seconds);
  registry->SetGauge("join_seconds", metrics.join_seconds);
  registry->SetGauge("dedup_seconds", metrics.dedup_seconds);
  registry->SetGauge("total_seconds", metrics.TotalSeconds());
  registry->SetGauge("wall_seconds", metrics.wall_seconds);
  registry->SetGauge("recovery_seconds", metrics.recovery_seconds);
  // +infinity means "no deadline" and is not representable in the JSON
  // trace; only a real slack is published.
  if (std::isfinite(metrics.deadline_slack_seconds)) {
    registry->SetGauge("deadline_slack_seconds", metrics.deadline_slack_seconds);
  }
  registry->SetGauge("kernel_sort_seconds", metrics.kernel_sort_seconds);
  registry->SetGauge("kernel_sweep_seconds", metrics.kernel_sweep_seconds);
  registry->SetGauge("kernel_emit_seconds", metrics.kernel_emit_seconds);
  registry->SetGauge("measured_construction_seconds",
                     metrics.measured_construction_seconds);
  registry->SetGauge("measured_join_seconds", metrics.measured_join_seconds);
  registry->SetGauge("measured_dedup_seconds",
                     metrics.measured_dedup_seconds);
  registry->SetGauge("measured_total_seconds", metrics.MeasuredTotalSeconds());
  registry->SetGauge("measured_planning_seconds",
                     metrics.measured_planning_seconds);
  registry->Set("workers", static_cast<uint64_t>(
                               metrics.workers > 0 ? metrics.workers : 0));
  registry->Set("physical_threads",
                static_cast<uint64_t>(
                    metrics.physical_threads > 0 ? metrics.physical_threads
                                                 : 0));
}

}  // namespace pasjoin::exec
