// Copyright 2026 The pasjoin Authors.
//
// PBSM (Partition Based Spatial-Merge join, Patel & DeWitt 1996) adapted to
// the data-parallel engine, exactly as the paper configures its baselines
// (Section 7.1):
//   * UNI(R) / UNI(S) - 2eps x 2eps grid, universal replication of R / S;
//   * eps-grid        - eps x eps grid, replicating the smaller data set.
// Partitions are distributed to workers with a hash partitioner (the paper's
// baseline setup); LPT can be enabled for ablations.
//
// Replicating a single data set makes every variant duplicate-free by
// construction: each pair is discovered only in the native cell of the
// non-replicated tuple.
#ifndef PASJOIN_BASELINES_PBSM_H_
#define PASJOIN_BASELINES_PBSM_H_

#include <cstdint>

#include "common/status.h"
#include "common/tuple.h"
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

/// PBSM configuration. The execution knobs come from exec::ExecOptions; the
/// baselines share the engine's SoA sweep kernel by default, so algorithm
/// comparisons measure replication strategies rather than kernels.
struct PbsmOptions : exec::ExecOptions {
  double eps = 0.0;
  /// Cell side as a multiple of eps for the UNI variants (kEpsGrid always
  /// uses 1).
  double resolution_factor = 2.0;
  /// Hash placement by default (the paper's PBSM setup); true enables LPT.
  bool use_lpt = false;
  /// Sampling for LPT cost estimates (only used when use_lpt).
  double sample_rate = 0.03;
  uint64_t sample_seed = 0x5a5a5a5a;
  /// Data-space MBR; computed from the inputs when unset. An explicit MBR
  /// also becomes the engine's declared bounds: points outside it are
  /// rejected instead of silently clamped into edge cells.
  Rect mbr;
};

/// Runs the PBSM eps-distance join.
[[nodiscard]] Result<exec::JoinRun> PbsmDistanceJoin(
    const Dataset& r, const Dataset& s, PbsmVariant variant,
    const PbsmOptions& options);

}  // namespace pasjoin::baselines

#endif  // PASJOIN_BASELINES_PBSM_H_
