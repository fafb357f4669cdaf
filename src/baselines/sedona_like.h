// Copyright 2026 The pasjoin Authors.
//
// A reimplementation of the Apache Sedona (v1.4.1) distance-join execution
// strategy as the paper configures it (Section 7.1):
//   1. partitioning: a QuadTree is built on the driver from a sample of the
//      data set with the fewest objects; its leaves are the partitions. As
//      in Spark/Sedona, the leaf count tracks cluster parallelism, not data
//      size: a node splits above sample / (4 * workers) sample points,
//      which yields the large partitions the paper observes (Section 7.2.1);
//   2. assignment: the sampled (smaller) set is replicated to every leaf its
//      eps-expanded envelope intersects; the other set is single-assigned;
//   3. per-partition indexing + join: an R-tree is built on the set with the
//      most points and probed with eps-range queries from the other set.
#ifndef PASJOIN_BASELINES_SEDONA_LIKE_H_
#define PASJOIN_BASELINES_SEDONA_LIKE_H_

#include <cstdint>

#include "common/status.h"
#include "common/tuple.h"
#include "core/driver.h"
#include "exec/engine.h"

namespace pasjoin::baselines {

/// Sedona-like join configuration: the shared core::JoinOptions, except that
/// the partition-level kernel defaults to the R-tree probe — Sedona's own
/// per-partition strategy (index the globally larger set, probe with the
/// other) — for baseline fidelity; select kSweepSoA to give this baseline
/// the engine's fast kernel too.
struct SedonaOptions : core::JoinOptions {
  SedonaOptions() { local_kernel = spatial::LocalJoinKernel::kRTree; }

  /// Sampling rate for building the QuadTree on the driver.
  double sample_rate = 0.03;
  uint64_t sample_seed = 0x5a5a5a5a;
};

/// Runs the Sedona-like eps-distance join.
[[nodiscard]] Result<exec::JoinRun> SedonaLikeDistanceJoin(
    const Dataset& r, const Dataset& s, const SedonaOptions& options);

}  // namespace pasjoin::baselines

#endif  // PASJOIN_BASELINES_SEDONA_LIKE_H_
