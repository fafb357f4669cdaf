// Copyright 2026 The pasjoin Authors.
//
// eps-distance self-join: all unordered pairs {a, b}, a != b, of one point
// set within distance eps (the MR-DSJ problem of the paper's related work,
// Section 2). Adaptive replication brings nothing to a self-join (both
// "sides" have identical statistics, so every agreement ties); instead it is
// PBSM's UNI(R) over one input (core::UniformGridDistanceJoin): one
// replicated stream and one single-assigned stream, cells placed by hash,
// and the engine's self-join filter keeps each pair exactly once (reported
// as (min_id, max_id)).
#ifndef PASJOIN_CORE_SELF_JOIN_H_
#define PASJOIN_CORE_SELF_JOIN_H_

#include "common/status.h"
#include "common/tuple.h"
#include "core/driver.h"
#include "exec/engine.h"

namespace pasjoin::core {

/// Self-join configuration: the shared JoinOptions, with 8 logical workers
/// by default.
struct SelfJoinOptions : JoinOptions {
  SelfJoinOptions() { workers = 8; }

  /// Cell side as a multiple of eps.
  double resolution_factor = 2.0;
};

/// Computes { (a, b) : a.id < b.id, d(a, b) <= eps } over `data`.
[[nodiscard]] Result<exec::JoinRun> SelfDistanceJoin(
    const Dataset& data, const SelfJoinOptions& options);

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_SELF_JOIN_H_
