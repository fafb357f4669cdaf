// Copyright 2026 The pasjoin Authors.
//
// Per-logical-worker busy-time accounting for one engine phase.
//
// The engine attributes every task's elapsed time to the *logical worker*
// that owns the task (the placement concept — see docs/PARALLELISM.md),
// regardless of which physical thread executed it. The phase's simulated
// makespan is then max over workers of attributed busy time, exactly the
// quantity the paper's cluster would observe.
//
// Under real work-stealing parallelism many tasks of the SAME worker run
// concurrently on different threads, so accumulation must be safe against
// concurrent Add()s to one worker's cell. Two sanctioned ways in:
//
//   * Add(): takes the clock's mutex per call. Fine where each committed
//     attempt adds once (the recovering executor);
//   * Shard + Merge(): a thread-confined Shard accumulates without any
//     synchronization and is folded into the clock with ONE lock
//     acquisition at the end of the runner — the per-thread-accumulation
//     idiom the steal executor uses (tested by phase_clock_stress_test under
//     TSan: concurrent sharded accumulation is exact, never lossy).
#ifndef PASJOIN_EXEC_PHASE_CLOCK_H_
#define PASJOIN_EXEC_PHASE_CLOCK_H_

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace pasjoin::exec {

/// Per-logical-worker busy-time accumulator for one phase.
class PhaseClock {
 public:
  /// Thread-confined accumulator: one per runner thread, merged into the
  /// clock exactly once. Not thread-safe by design — confinement is the
  /// synchronization.
  class Shard {
   public:
    explicit Shard(int workers) : busy_(static_cast<size_t>(workers), 0.0) {}

    void Add(int worker, double seconds) {
      busy_[static_cast<size_t>(worker)] += seconds;
    }

   private:
    friend class PhaseClock;
    std::vector<double> busy_;
  };

  explicit PhaseClock(int workers)
      : workers_(workers), busy_(static_cast<size_t>(workers), 0.0) {}

  int workers() const { return workers_; }

  /// Locked accumulation (one lock round-trip per call).
  void Add(int worker, double seconds) PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    busy_[static_cast<size_t>(worker)] += seconds;
  }

  /// Folds a thread-confined shard in with a single lock acquisition. The
  /// shard must be sized for the same worker count.
  void Merge(const Shard& shard) PASJOIN_EXCLUDES(mu_) {
    PASJOIN_DCHECK(shard.busy_.size() == busy_.size());
    MutexLock lock(&mu_);
    for (size_t w = 0; w < busy_.size(); ++w) busy_[w] += shard.busy_[w];
  }

  /// Max per-worker attributed busy time — the phase's simulated makespan.
  double Makespan() const PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    double mx = 0.0;
    for (double b : busy_) mx = std::max(mx, b);
    return mx;
  }

  std::vector<double> busy() const PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return busy_;
  }

 private:
  const int workers_;
  mutable Mutex mu_{"PhaseClock::mu_", lockrank::kEnginePhaseClock};
  std::vector<double> busy_ PASJOIN_GUARDED_BY(mu_);
};

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_PHASE_CLOCK_H_
