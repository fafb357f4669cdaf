// Copyright 2026 The pasjoin Authors.
//
// Fault-tolerant execution: runs the same adaptive join twice - once clean,
// once with injected chaos (20% task failures in every phase, one lost
// logical worker, 20 ms stragglers) - and verifies the recovered result is
// identical to the fault-free one. Demonstrates the FaultOptions knobs, the
// Result-returning TryRunPartitionedJoin entry point, and the recovery
// metrics (docs/FAULT_TOLERANCE.md).
//
// Build & run:   ./build/examples/fault_tolerant_join
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/adaptive_join.h"
#include "datagen/generators.h"

int main() {
  using namespace pasjoin;

  const Dataset r = datagen::MakePaperDataset(datagen::PaperDataset::kS1, 20000);
  const Dataset s = datagen::MakePaperDataset(datagen::PaperDataset::kS2, 20000);

  core::AdaptiveJoinOptions options;
  options.eps = 0.12;
  options.policy = agreements::Policy::kLPiB;
  options.workers = 8;
  options.collect_results = true;

  // --- 1. fault-free reference run ------------------------------------------
  Result<exec::JoinRun> clean = core::AdaptiveDistanceJoin(r, s, options);
  if (!clean.ok()) {
    std::fprintf(stderr, "clean join failed: %s\n",
                 clean.status().ToString().c_str());
    return 1;
  }
  std::printf("fault-free run:   %s\n",
              clean.value().metrics.ToString().c_str());

  // --- 2. the same join under injected chaos --------------------------------
  // 20% of task attempts fail in every phase, logical worker 2 dies at the
  // start of the join phase (its partitions are rebuilt from lineage on a
  // survivor), and 10% of first attempts straggle for 20 ms (backed up by
  // speculative execution).
  exec::FaultOptions& fault = options.fault;
  fault.enabled = true;
  fault.seed = 2026;
  fault.map_failure_p = 0.2;
  fault.regroup_failure_p = 0.2;
  fault.join_failure_p = 0.2;
  fault.dedup_failure_p = 0.2;
  fault.max_retries = 50;
  fault.lost_worker = 2;
  fault.lost_worker_phase = exec::Phase::kJoin;
  fault.straggler_p = 0.1;
  fault.straggler_delay_ms = 20.0;
  fault.speculation = true;

  Result<exec::JoinRun> faulty = core::AdaptiveDistanceJoin(r, s, options);
  if (!faulty.ok()) {
    // With a sane retry budget this only happens when the budget is
    // exhausted (kResourceExhausted) - recovery degrades gracefully into a
    // Status instead of crashing.
    std::fprintf(stderr, "faulty join failed: %s\n",
                 faulty.status().ToString().c_str());
    return 1;
  }
  const exec::JobMetrics& m = faulty.value().metrics;
  std::printf("chaos run:        %s\n", m.ToString().c_str());
  std::printf("  %llu attempts failed, %llu retries, %llu speculative "
              "backups, %.3fs spent recovering\n",
              static_cast<unsigned long long>(m.tasks_failed),
              static_cast<unsigned long long>(m.tasks_retried),
              static_cast<unsigned long long>(m.tasks_speculated),
              m.recovery_seconds);

  // --- 3. recovery is exact --------------------------------------------------
  std::vector<ResultPair> a = clean.value().pairs;
  std::vector<ResultPair> b = faulty.value().pairs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) {
    std::fprintf(stderr, "ERROR: recovered result differs from fault-free "
                         "result (%zu vs %zu pairs)\n",
                 b.size(), a.size());
    return 1;
  }
  std::printf("recovered result: %zu pairs, identical to the fault-free "
              "run\n", b.size());
  return 0;
}
