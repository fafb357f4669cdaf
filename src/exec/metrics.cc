// Copyright 2026 The pasjoin Authors.
#include "exec/metrics.h"

#include <cinttypes>
#include <cmath>

#include "common/str_append.h"
#include "obs/trace_recorder.h"

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

void PublishMetrics(const JobMetrics& metrics, obs::TraceExport* out) {
  *out = obs::TraceExport{};
  for (const CounterField& f : kCounterFields) {
    out->counters.emplace_back(f.name, metrics.*f.member);
  }
  out->counters.emplace_back(
      "workers", static_cast<uint64_t>(std::max(metrics.workers, 0)));
  out->counters.emplace_back(
      "physical_threads",
      static_cast<uint64_t>(std::max(metrics.physical_threads, 0)));
  const auto gauge = [out](const char* name, double value) {
    if (std::isfinite(value)) out->gauges.emplace_back(name, value);
  };
  for (const GaugeField& f : kGaugeFields) gauge(f.name, metrics.*f.member);
  gauge("total_seconds", metrics.TotalSeconds());
  gauge("measured_total_seconds", metrics.MeasuredTotalSeconds());
}

}  // namespace pasjoin::exec
