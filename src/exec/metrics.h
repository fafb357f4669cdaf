// Copyright 2026 The pasjoin Authors.
//
// Observables of one distributed join execution - the quantities the paper
// reports in its figures: replicated objects (Figs 1b/10/13a), shuffled
// remote bytes (Figs 11/13b/14b/16-18a), and execution time split into
// construction and join (Figs 12/13c/14a/15/16-18b).
#ifndef PASJOIN_EXEC_METRICS_H_
#define PASJOIN_EXEC_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pasjoin::obs {
struct TraceExport;
}  // namespace pasjoin::obs

namespace pasjoin::exec {

/// Metrics of one join job.
struct JobMetrics {
  /// Human-readable algorithm tag ("LPiB", "UNI(R)", "Sedona", ...).
  std::string algorithm;

  /// Replica copies created beyond the single native assignment, per side.
  uint64_t replicated_r = 0;
  uint64_t replicated_s = 0;
  uint64_t ReplicatedTotal() const { return replicated_r + replicated_s; }

  /// Tuple instances routed through the shuffle (native + replicas).
  uint64_t shuffled_tuples = 0;
  /// Shuffled instances regroup kept: those in a partition that both sides
  /// reach. The rest can pair with nothing and are never stored.
  uint64_t joinable_tuples = 0;
  /// Bytes of all shuffled tuple instances.
  uint64_t shuffle_bytes = 0;
  /// Bytes whose destination worker differs from the producing split's
  /// worker - the analogue of Spark's "shuffle remote reads".
  uint64_t shuffle_remote_bytes = 0;
  /// Bytes the map's shuffle blocks allocate: their columns plus their
  /// payload arenas, summed over every map task.
  uint64_t shuffle_block_bytes = 0;

  /// Candidate pairs distance-checked and qualifying result pairs.
  uint64_t candidates = 0;
  uint64_t results = 0;

  /// Number of non-empty partitions joined.
  uint64_t partitions_joined = 0;

  /// Local join kernel executed in the join phase: "sweep-soa" or "rtree"
  /// (spatial::LocalJoinKernelName).
  std::string local_kernel;

  /// Per-phase breakdown of the partition-level join kernel, summed over
  /// every worker's join tasks (CPU seconds, not makespan). Reported by the
  /// sweep-SoA kernel. The R-tree kernel does not time its build and probe;
  /// only a self join's pair filter counts, as emit time, under either.
  double kernel_sort_seconds = 0.0;
  double kernel_sweep_seconds = 0.0;
  double kernel_emit_seconds = 0.0;

  /// Logical worker count ("nodes" in the paper's Figure 14).
  int workers = 0;

  /// Simulated parallel times: each phase's makespan is the maximum
  /// per-logical-worker attributed busy time; driver work (sampling, graph
  /// construction, broadcast) is sequential and added to construction.
  double construction_seconds = 0.0;
  double join_seconds = 0.0;
  double dedup_seconds = 0.0;
  /// Total simulated execution time.
  double TotalSeconds() const {
    return construction_seconds + join_seconds + dedup_seconds;
  }

  /// Real elapsed wall time on this host (informational; differs from
  /// TotalSeconds on hosts with fewer cores than logical workers).
  double wall_seconds = 0.0;

  /// Measured wall-clock seconds of each phase group on THIS host, under
  /// the real work-stealing execution (docs/PARALLELISM.md) — the physical
  /// counterpart of the simulated per-worker model above. Construction
  /// covers map + regroup (plus sequential driver work, added by the
  /// drivers exactly like construction_seconds); join and dedup cover their
  /// phases' wall time including steal/merge overhead.
  double measured_construction_seconds = 0.0;
  double measured_join_seconds = 0.0;
  double measured_dedup_seconds = 0.0;
  /// Total measured execution time.
  double MeasuredTotalSeconds() const {
    return measured_construction_seconds + measured_join_seconds +
           measured_dedup_seconds;
  }

  /// Measured wall-clock seconds of driver-side planning (pair-agreement
  /// decisions, quartet marking, per-cell cost estimation, LPT) under the
  /// parallel planner (core/planning.h). A subset of the driver seconds
  /// already folded into `measured_construction_seconds`, broken out so
  /// trace validation can reconcile it against the planning-* spans; 0 when
  /// the job did no planning (baselines, hash placement without costs).
  double measured_planning_seconds = 0.0;

  /// Physical threads the engine's pool executed with (0 when the job never
  /// reached execution). Distinct from `workers`: logical workers are a
  /// placement concept, threads are who actually ran the stolen tasks.
  int physical_threads = 0;

  // --- fault tolerance (docs/FAULT_TOLERANCE.md) ---------------------------
  /// Task attempts that failed: injected faults, simulated worker loss, and
  /// exceptions observed by the recovering executor.
  uint64_t tasks_failed = 0;
  /// Re-executions launched after a failure (lineage-based recovery).
  uint64_t tasks_retried = 0;
  /// Speculative backup copies launched for straggling tasks.
  uint64_t tasks_speculated = 0;
  /// Wall-clock seconds spent recovering: backoff waits, re-executions, and
  /// lineage-based partition rebuilds after a worker loss.
  double recovery_seconds = 0.0;

  // --- cancellation + deadlines (docs/CANCELLATION.md) ---------------------
  /// Times the stuck-task watchdog cancelled a stalled attempt. Each fire
  /// fails exactly that attempt; the recovering executor retries it normally.
  uint64_t watchdog_fires = 0;
  /// Seconds left on the job deadline when the run finished; +infinity when
  /// no deadline was set (check std::isfinite before printing/serializing).
  double deadline_slack_seconds = std::numeric_limits<double>::infinity();

  /// Per-logical-worker attributed busy seconds of the join phase (used to
  /// study LPT load balance, Table 7).
  std::vector<double> worker_busy_join;

  /// Max/avg ratio of the join-phase worker busy times (1.0 = perfectly
  /// balanced); 0 when unavailable.
  double JoinImbalance() const {
    if (worker_busy_join.empty()) return 0.0;
    double sum = 0.0;
    double mx = 0.0;
    for (double b : worker_busy_join) {
      sum += b;
      mx = std::max(mx, b);
    }
    if (sum <= 0.0) return 0.0;
    return mx / (sum / static_cast<double>(worker_busy_join.size()));
  }

  /// One-line summary for logs. Built on string appends; every populated
  /// field appears regardless of how many counters the struct grows.
  std::string ToString() const;
};

/// Which comparisons a counter takes part in.
enum class CounterKind {
  /// What the job computed and moved: identical across thread counts,
  /// tracing and faults.
  kResult,
  /// What recovery did: identical for the same fault configuration.
  kFault,
};

/// One uint64_t counter of JobMetrics: its export name, its member and its
/// kind.
struct CounterField {
  const char* name;
  uint64_t JobMetrics::*member;
  CounterKind kind;
};

/// One double gauge of JobMetrics: its export name and its member.
struct GaugeField {
  const char* name;
  double JobMetrics::*member;
};

/// Every uint64_t counter of JobMetrics. PublishMetrics exports each under
/// its name, and the tests compare each by its kind, so a new counter needs
/// only its field, its row here, the code that computes it and its docs
/// (docs/OBSERVABILITY.md). tools/pasjoin_lint.py checks that every scalar
/// field has a row or an explicit line in PublishMetrics.
inline constexpr CounterField kCounterFields[] = {
    {"replicated_r", &JobMetrics::replicated_r, CounterKind::kResult},
    {"replicated_s", &JobMetrics::replicated_s, CounterKind::kResult},
    {"shuffled_tuples", &JobMetrics::shuffled_tuples, CounterKind::kResult},
    {"joinable_tuples", &JobMetrics::joinable_tuples, CounterKind::kResult},
    {"shuffle_bytes", &JobMetrics::shuffle_bytes, CounterKind::kResult},
    {"shuffle_remote_bytes", &JobMetrics::shuffle_remote_bytes,
     CounterKind::kResult},
    {"shuffle_block_bytes", &JobMetrics::shuffle_block_bytes,
     CounterKind::kResult},
    {"candidates", &JobMetrics::candidates, CounterKind::kResult},
    {"results", &JobMetrics::results, CounterKind::kResult},
    {"partitions_joined", &JobMetrics::partitions_joined,
     CounterKind::kResult},
    {"tasks_failed", &JobMetrics::tasks_failed, CounterKind::kFault},
    {"tasks_retried", &JobMetrics::tasks_retried, CounterKind::kFault},
    {"tasks_speculated", &JobMetrics::tasks_speculated, CounterKind::kFault},
    {"watchdog_fires", &JobMetrics::watchdog_fires, CounterKind::kFault},
};

/// Every double gauge of JobMetrics, exported like the counters.
inline constexpr GaugeField kGaugeFields[] = {
    {"construction_seconds", &JobMetrics::construction_seconds},
    {"join_seconds", &JobMetrics::join_seconds},
    {"dedup_seconds", &JobMetrics::dedup_seconds},
    {"wall_seconds", &JobMetrics::wall_seconds},
    {"recovery_seconds", &JobMetrics::recovery_seconds},
    {"deadline_slack_seconds", &JobMetrics::deadline_slack_seconds},
    {"kernel_sort_seconds", &JobMetrics::kernel_sort_seconds},
    {"kernel_sweep_seconds", &JobMetrics::kernel_sweep_seconds},
    {"kernel_emit_seconds", &JobMetrics::kernel_emit_seconds},
    {"measured_construction_seconds",
     &JobMetrics::measured_construction_seconds},
    {"measured_join_seconds", &JobMetrics::measured_join_seconds},
    {"measured_dedup_seconds", &JobMetrics::measured_dedup_seconds},
    {"measured_planning_seconds", &JobMetrics::measured_planning_seconds},
};

/// Replaces `*out` with the export of `metrics` that makes an attached
/// trace self-describing (docs/OBSERVABILITY.md): every kCounterFields and
/// kGaugeFields row under its name, the worker and thread counts, and the
/// simulated and measured totals. A non-finite gauge (the +infinity slack
/// of a job without a deadline) is not representable in the JSON trace and
/// is left out. tools/trace_summary.py --validate cross-checks span sums
/// against the export.
void PublishMetrics(const JobMetrics& metrics, obs::TraceExport* out);

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_METRICS_H_
