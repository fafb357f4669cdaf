// Copyright 2026 The pasjoin Authors.
//
// Deterministic fault injection for the execution engine.
//
// The engine's Spark inspiration gives Algorithm 5 task-level fault
// tolerance for free: failed or straggling tasks are re-executed from their
// lineage, and a lost executor's partitions are rebuilt on survivors. This
// header defines the configuration of our C++ stand-in for those semantics
// (FaultOptions) and the deterministic fault source (FaultInjector) the
// engine consults while executing a job.
//
// Every injection decision is a pure function of (seed, phase, task,
// attempt): tests can replay a faulty execution bit-for-bit regardless of
// host thread scheduling, which is what makes the recovered-equals-fault-free
// determinism suite possible (docs/FAULT_TOLERANCE.md).
#ifndef PASJOIN_EXEC_FAULT_INJECTOR_H_
#define PASJOIN_EXEC_FAULT_INJECTOR_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace pasjoin::exec {

/// Engine execution phases, in dataflow order. Used to scope injected
/// failures and the simulated worker loss.
enum class Phase : uint8_t {
  kMap = 0,
  kRegroup = 1,
  kJoin = 2,
  kDedupScatter = 3,
  kDedupMerge = 4,
};

/// "map", "regroup", "join", "dedup-scatter" or "dedup-merge".
const char* PhaseName(Phase phase);

/// Configuration of the fault-tolerance subsystem (failure injection plus
/// the recovery policy applied by the engine).
struct FaultOptions {
  /// Master switch: true runs the job on the recovering executor. When false
  /// the zero-overhead steal executor runs it and none of the remaining
  /// fields are consulted.
  bool enabled = false;

  /// Seed of every injection decision. Decisions are a deterministic
  /// function of (seed, phase, task, attempt) and independent of host
  /// thread scheduling.
  uint64_t seed = 0xFA17BEEFULL;

  // --- injected task failures ----------------------------------------------
  /// Per-phase probability that a task attempt fails (applies to first
  /// attempts, retries, and speculative copies alike).
  double map_failure_p = 0.0;
  double regroup_failure_p = 0.0;
  double join_failure_p = 0.0;
  /// Applies to both dedup sub-phases (scatter and merge).
  double dedup_failure_p = 0.0;

  /// Partitions whose join task (one per joined partition) fails
  /// deterministically on its first attempt. Lets tests kill a specific
  /// partition's task without touching the probabilistic machinery.
  std::vector<int32_t> fail_partitions;

  // --- recovery policy -----------------------------------------------------
  /// Re-executions allowed per task beyond the first attempt. 0 disables
  /// recovery entirely: the first injected fault fails the job with
  /// kResourceExhausted.
  int max_retries = 3;
  /// Exponential backoff before re-execution: retry k (1-based) waits
  /// backoff_base_ms * 2^(k-1) milliseconds.
  double backoff_base_ms = 0.25;

  // --- simulated worker loss -----------------------------------------------
  /// Logical worker to lose (-1 = none). The loss strikes at the start of
  /// `lost_worker_phase`: every task of that phase owned by the worker fails
  /// its running attempt, the worker's in-memory partition state is dropped,
  /// and all of its work is re-executed on the surviving workers from
  /// retained split data (lineage). Requires workers >= 2.
  int lost_worker = -1;
  Phase lost_worker_phase = Phase::kJoin;

  // --- stragglers and speculative execution --------------------------------
  /// Probability that a task's *first* attempt straggles (retries and
  /// speculative copies are assumed to land on healthy workers).
  double straggler_p = 0.0;
  /// Milliseconds an injected straggler waits before doing its work.
  double straggler_delay_ms = 8.0;
  /// Enables speculative execution: once max(3, tasks / 4) tasks of a
  /// phase have committed, every parked straggler gets one backup attempt.
  /// A task's attempts never run at once, so it commits exactly once.
  bool speculation = true;

  /// Validates every field against `workers` logical workers.
  [[nodiscard]] Status Validate(int workers) const;

  /// Injected failure probability for `phase`.
  double FailureProbability(Phase phase) const;
};

/// Deterministic, seedable source of injected faults. Thread-safe after
/// construction and targeted-failure registration (all queries are const).
///
/// Concurrency: holds no pasjoin::Mutex by design — the const-after-setup
/// contract makes query-path locking unnecessary. AddTargetedFailure must
/// finish (driver thread, while no phase runs) before any concurrent
/// ShouldFail/IsStraggler query; the engine registers targeted join failures
/// between the regroup and join phases.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultOptions& options) : options_(options) {}

  const FaultOptions& options() const { return options_; }

  /// True when attempt `attempt` of task `task` in `phase` must fail
  /// (probabilistic or targeted).
  bool ShouldFail(Phase phase, int task, int attempt) const;

  /// True when the attempt is an injected straggler. Only first attempts
  /// (attempt 0) straggle.
  bool IsStraggler(Phase phase, int task, int attempt) const;

  /// Seconds an injected straggler waits before doing its work.
  double StragglerDelaySeconds() const;

  /// True when the configured worker loss strikes in `phase`.
  bool LosesWorkerIn(Phase phase) const;

  /// The lost logical worker, or -1 when no loss is configured.
  int lost_worker() const { return options_.lost_worker; }

  /// Registers a one-shot targeted failure: attempt 0 of `task` in `phase`
  /// fails deterministically. Not thread-safe; call before the phase runs.
  void AddTargetedFailure(Phase phase, int task);

 private:
  /// Deterministic uniform double in [0, 1) for the decision identified by
  /// (salt, phase, task, attempt).
  double UnitInterval(uint64_t salt, Phase phase, int task, int attempt) const;

  static uint64_t TargetKey(Phase phase, int task) {
    return (static_cast<uint64_t>(phase) << 32) |
           static_cast<uint32_t>(task);
  }

  FaultOptions options_;
  std::unordered_set<uint64_t> targeted_;
};

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_FAULT_INJECTOR_H_
