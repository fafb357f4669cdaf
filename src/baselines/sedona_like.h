// Copyright 2026 The pasjoin Authors.
//
// A reimplementation of the Apache Sedona (v1.4.1) distance-join execution
// strategy as the paper configures it (Section 7.1):
//   1. partitioning: a QuadTree is built on the driver from a sample of the
//      data set with the fewest objects; its leaves are the partitions;
//   2. assignment: the sampled (smaller) set is replicated to every leaf its
//      eps-expanded envelope intersects; the other set is single-assigned;
//   3. per-partition indexing + join: an R-tree is built on the set with the
//      most points and probed with eps-range queries from the other set.
#ifndef PASJOIN_BASELINES_SEDONA_LIKE_H_
#define PASJOIN_BASELINES_SEDONA_LIKE_H_

#include <cstdint>

#include "common/status.h"
#include "common/tuple.h"
#include "exec/engine.h"
#include "spatial/quadtree.h"

namespace pasjoin::baselines {

/// Sedona-like join configuration. The execution knobs come from
/// exec::ExecOptions, except that the partition-level kernel defaults to the
/// R-tree probe — Sedona's own per-partition strategy (index the globally
/// larger set, probe with the other) — for baseline fidelity; select
/// kSweepSoA to give this baseline the engine's fast kernel too.
struct SedonaOptions : exec::ExecOptions {
  SedonaOptions() { local_kernel = spatial::LocalJoinKernel::kRTree; }

  double eps = 0.0;
  /// Sampling rate for building the QuadTree on the driver.
  double sample_rate = 0.03;
  uint64_t sample_seed = 0x5a5a5a5a;
  /// Approximate number of leaf partitions to build. Like Spark/Sedona, the
  /// partition count tracks cluster parallelism rather than data size, which
  /// yields the large partitions the paper observes (Section 7.2.1); the
  /// quadtree leaf capacity is derived as sample_size / target_partitions.
  /// 0 selects 4 * workers.
  int target_partitions = 0;
  /// QuadTree build parameters. max_items_per_node (in *sample* points) is
  /// only honored when `fixed_capacity` is true; otherwise it is derived
  /// from target_partitions.
  spatial::QuadTreeOptions quadtree;
  bool fixed_capacity = false;
  /// Data-space MBR; computed from the inputs when unset. An explicit MBR
  /// also becomes the engine's declared bounds: points outside it are
  /// rejected instead of silently clamped into edge partitions.
  Rect mbr;
};

/// Runs the Sedona-like eps-distance join.
[[nodiscard]] Result<exec::JoinRun> SedonaLikeDistanceJoin(
    const Dataset& r, const Dataset& s, const SedonaOptions& options);

}  // namespace pasjoin::baselines

#endif  // PASJOIN_BASELINES_SEDONA_LIKE_H_
