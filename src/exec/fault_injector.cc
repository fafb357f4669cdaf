// Copyright 2026 The pasjoin Authors.
#include "exec/fault_injector.h"

#include <cmath>
#include <string>

#include "common/rng.h"

namespace pasjoin::exec {

namespace {

Status BadProbability(const char* name) {
  return Status::InvalidArgument(std::string(name) +
                                 " must be a probability in [0, 1]");
}

bool IsProbability(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

/// The phase whose key `phase`'s draws use: a map task draws once per
/// attempt, under Phase::kMap's key, and the draws strike its fill.
Phase DrawnAs(Phase phase) {
  return phase == Phase::kFill ? Phase::kMap : phase;
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kMap:
      return "map";
    case Phase::kFill:
      return "fill";
    case Phase::kRegroup:
      return "regroup";
    case Phase::kJoin:
      return "join";
    case Phase::kDedupScatter:
      return "dedup-scatter";
    case Phase::kDedupMerge:
      return "dedup-merge";
  }
  return "?";
}

Status FaultOptions::Validate(int workers) const {
  if (!IsProbability(map_failure_p)) return BadProbability("map_failure_p");
  if (!IsProbability(regroup_failure_p)) {
    return BadProbability("regroup_failure_p");
  }
  if (!IsProbability(join_failure_p)) return BadProbability("join_failure_p");
  if (!IsProbability(dedup_failure_p)) return BadProbability("dedup_failure_p");
  if (!IsProbability(straggler_p)) return BadProbability("straggler_p");
  if (max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (!(backoff_base_ms >= 0.0) || !std::isfinite(backoff_base_ms)) {
    return Status::InvalidArgument("backoff_base_ms must be >= 0 and finite");
  }
  if (lost_worker >= 0) {
    if (workers < 2) {
      return Status::InvalidArgument(
          "simulating worker loss requires at least 2 logical workers");
    }
    if (lost_worker >= workers) {
      return Status::InvalidArgument(
          "lost_worker must name a logical worker in [0, workers)");
    }
  }
  if (!(straggler_delay_ms >= 0.0) || !std::isfinite(straggler_delay_ms)) {
    return Status::InvalidArgument(
        "straggler_delay_ms must be >= 0 and finite");
  }
  return Status::OK();
}

double FaultOptions::FailureProbability(Phase phase) const {
  switch (phase) {
    case Phase::kMap:
    case Phase::kFill:
      return map_failure_p;
    case Phase::kRegroup:
      return regroup_failure_p;
    case Phase::kJoin:
      return join_failure_p;
    case Phase::kDedupScatter:
    case Phase::kDedupMerge:
      return dedup_failure_p;
  }
  return 0.0;
}

double FaultInjector::UnitInterval(uint64_t salt, Phase phase, int task,
                                   int attempt) const {
  // One SplitMix64 step over a mixed key: decisions depend only on the
  // identity of the attempt, never on scheduling order.
  uint64_t state = options_.seed;
  state ^= 0x9e3779b97f4a7c15ULL * (salt + 1);
  state ^= static_cast<uint64_t>(phase) << 56;
  state ^= static_cast<uint64_t>(static_cast<uint32_t>(task)) << 20;
  state ^= static_cast<uint64_t>(static_cast<uint32_t>(attempt));
  const uint64_t bits = SplitMix64(&state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool FaultInjector::ShouldFail(Phase phase, int task, int attempt) const {
  if (attempt == 0 && targeted_.count(TargetKey(phase, task)) > 0) return true;
  const double p = options_.FailureProbability(phase);
  if (phase == Phase::kMap || p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UnitInterval(/*salt=*/1, DrawnAs(phase), task, attempt) < p;
}

bool FaultInjector::IsStraggler(Phase phase, int task, int attempt) const {
  // Backups and retries land on healthy workers.
  if (attempt != 0 || phase == Phase::kMap) return false;
  const double p = options_.straggler_p;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UnitInterval(/*salt=*/2, DrawnAs(phase), task, attempt) < p;
}

double FaultInjector::StragglerDelaySeconds() const {
  return options_.straggler_delay_ms / 1000.0;
}

bool FaultInjector::LosesWorkerIn(Phase phase) const {
  return options_.lost_worker >= 0 && options_.lost_worker_phase == phase;
}

void FaultInjector::AddTargetedFailure(Phase phase, int task) {
  targeted_.insert(TargetKey(phase, task));
}

}  // namespace pasjoin::exec
