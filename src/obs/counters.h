// Copyright 2026 The pasjoin Authors.
//
// Named counter registry of the observability layer.
//
// A CounterRegistry holds named integer counters (replicas, shuffled bytes,
// candidates, fault-tolerance events, ...) and floating-point gauges (phase
// makespans). A TraceRecorder embeds one as the trace's export of the job's
// exec::JobMetrics: a successful run writes it once at its end
// (exec::PublishMetrics), so it is off the hot path, and it is serialized
// into the trace file ("pasjoin_counters"), which is what lets
// tools/trace_summary.py cross-check span sums against the reported
// metrics.
#ifndef PASJOIN_OBS_COUNTERS_H_
#define PASJOIN_OBS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/sync.h"

namespace pasjoin::obs {

/// Thread-safe registry of named uint64 counters and double gauges.
/// Intended call rate: phase boundaries, not inner loops.
///
/// Concurrency: both maps are guarded by `mu_` (rank
/// lockrank::kCounterRegistry — a leaf lock, never held while acquiring
/// another).
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Adds `delta` to counter `name` (created at zero on first use).
  void Add(const std::string& name, uint64_t delta);

  /// Sets counter `name` to `value`, replacing any previous value.
  void Set(const std::string& name, uint64_t value);

  /// Current value of counter `name` (0 when never touched).
  uint64_t Get(const std::string& name) const;

  /// Sets gauge `name` (a floating-point observable, e.g. a phase makespan
  /// in seconds).
  void SetGauge(const std::string& name, double value);

  /// Current value of gauge `name` (0.0 when never set).
  double GetGauge(const std::string& name) const;

  /// Stable (sorted-by-name) snapshot of all counters.
  std::map<std::string, uint64_t> SnapshotCounters() const;

  /// Stable (sorted-by-name) snapshot of all gauges.
  std::map<std::string, double> SnapshotGauges() const;

  /// Removes every counter and gauge.
  void Clear();

 private:
  mutable Mutex mu_{"CounterRegistry::mu_", lockrank::kCounterRegistry};
  std::map<std::string, uint64_t> counters_ PASJOIN_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ PASJOIN_GUARDED_BY(mu_);
};

}  // namespace pasjoin::obs

#endif  // PASJOIN_OBS_COUNTERS_H_
