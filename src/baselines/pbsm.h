// Copyright 2026 The pasjoin Authors.
//
// PBSM (Partition Based Spatial-Merge join, Patel & DeWitt 1996) adapted to
// the data-parallel engine, exactly as the paper configures its baselines
// (Section 7.1):
//   * UNI(R) / UNI(S) - 2eps x 2eps grid, universal replication of R / S;
//   * eps-grid        - eps x eps grid, replicating the smaller data set.
// Partitions are distributed to workers with a hash partitioner (the paper's
// baseline setup).
//
// Replicating a single data set makes every variant duplicate-free by
// construction: each pair is discovered only in the native cell of the
// non-replicated tuple.
#ifndef PASJOIN_BASELINES_PBSM_H_
#define PASJOIN_BASELINES_PBSM_H_

#include <cstdint>

#include "common/status.h"
#include "common/tuple.h"
#include "core/driver.h"
#include "exec/engine.h"

namespace pasjoin::baselines {

/// Which PBSM adaptation to run.
enum class PbsmVariant : uint8_t {
  kUniR,     ///< replicate R universally on the 2eps grid
  kUniS,     ///< replicate S universally on the 2eps grid
  kEpsGrid,  ///< eps x eps grid, replicate the smaller data set
};

/// "UNI(R)", "UNI(S)" or "eps-grid".
const char* PbsmVariantName(PbsmVariant v);

/// PBSM configuration: the shared core::JoinOptions. The baselines share
/// the engine's SoA sweep kernel by default, so algorithm comparisons
/// measure replication strategies rather than kernels.
struct PbsmOptions : core::JoinOptions {
  /// Cell side as a multiple of eps for the UNI variants (kEpsGrid always
  /// uses 1).
  double resolution_factor = 2.0;
};

/// Runs the PBSM eps-distance join.
[[nodiscard]] Result<exec::JoinRun> PbsmDistanceJoin(
    const Dataset& r, const Dataset& s, PbsmVariant variant,
    const PbsmOptions& options);

}  // namespace pasjoin::baselines

#endif  // PASJOIN_BASELINES_PBSM_H_
