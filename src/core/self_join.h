// Copyright 2026 The pasjoin Authors.
//
// eps-distance self-join: all unordered pairs {a, b}, a != b, of one point
// set within distance eps (the MR-DSJ problem of the paper's related work,
// Section 2). Adaptive replication brings nothing to a self-join (both
// "sides" have identical statistics, so every agreement ties); instead it is
// PBSM's UNI(R) over one input (core::UniformGridDistanceJoin): one
// replicated stream and one single-assigned stream, and the engine's
// self-join filter keeps each pair exactly once (reported as
// (min_id, max_id)).
#ifndef PASJOIN_CORE_SELF_JOIN_H_
#define PASJOIN_CORE_SELF_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "common/tuple.h"
#include "core/planning.h"
#include "exec/engine.h"

namespace pasjoin::core {

/// Self-join configuration; the execution knobs come from exec::ExecOptions
/// (with 8 logical workers by default).
struct SelfJoinOptions : exec::ExecOptions {
  SelfJoinOptions() { workers = 8; }

  /// Join distance threshold (required, > 0).
  double eps = 0.0;
  /// Cell side as a multiple of eps.
  double resolution_factor = 2.0;
  /// Place cells on workers with LPT over sampled per-cell costs instead of
  /// the default hash placement. Off by default (hash preserves the
  /// historical behavior); results are identical either way — only the
  /// cell-to-worker mapping moves.
  bool use_lpt = false;
  /// Sampling rate/seed for the LPT cost estimate (only read when use_lpt).
  double lpt_sample_rate = 0.03;
  uint64_t lpt_sample_seed = 0x5a5a5a5a;
  /// Data-space MBR; computed from the input when unset. An explicit MBR
  /// also becomes the engine's declared bounds: points outside it are
  /// rejected instead of silently clamped into edge cells.
  Rect mbr;
};

/// Computes { (a, b) : a.id < b.id, d(a, b) <= eps } over `data`.
[[nodiscard]] Result<exec::JoinRun> SelfDistanceJoin(
    const Dataset& data, const SelfJoinOptions& options);

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_SELF_JOIN_H_
