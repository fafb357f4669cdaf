// Copyright 2026 The pasjoin Authors.
//
// The engine's shuffle: the map's write half and the regroup's read half,
// with column blocks between them.
//
// RouteSplit is one map task. It reads its split twice. The route pass
// validates the split a router block at a time (at most
// RoutedBlock::kMaxTuples tuples), routes each block with one Router call,
// stages each instance's (row, partition, destination) in per-thread
// scratch, and counts instances and payload bytes per destination worker.
// The fill pass then gives each destination its ShuffleBlock at exactly
// its final size, one allocation per column and one for the payload
// arena, and writes the staged instances in order.
// A block holds dense columns (partition id, x, y, id) and, when it
// carries payload bytes, one byte arena with per-instance end offsets.
// Writing a tuple's payload into its block's arena is the only copy of its
// bytes — the simulated network transfer: no block grows, so no bytes are
// copied again by a regrowth.
//
// Regroup for a worker concatenates its inbound blocks in map-task order
// and stably sorts them by partition into a WorkerStore: x, y and id
// columns holding one contiguous run per partition, R instances before S
// instances (the layout of Tsitsigkos & Mamoulis, "Parallel In-Memory
// Evaluation of Spatial Joins"). Like the inner join of the paper's
// Algorithm 5, it keeps only the partitions both sides reached: an instance
// whose partition has no instance of the other side is never stored. The
// join reads each run's columns in place. Teardown frees a few buffers per
// block and per worker, never one per instance.
#ifndef PASJOIN_EXEC_SHUFFLE_H_
#define PASJOIN_EXEC_SHUFFLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "exec/engine.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// The tuple instances one map task sends to one worker, all of one side.
struct ShuffleBlock {
  ShuffleBlock() = default;
  explicit ShuffleBlock(Side block_side) : side(block_side) {}

  Side side = Side::kR;
  std::vector<PartitionId> part;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int64_t> id;
  /// Arena size after each instance's payload; empty, like the arena, when
  /// the block carries no payload bytes.
  std::vector<uint64_t> payload_end;
  std::vector<char> payload_bytes;

  size_t size() const { return part.size(); }

  /// Sizes the block for `n` instances and an arena of `arena_bytes`
  /// payload bytes: each column and the arena get one allocation of exactly
  /// that size. With no arena bytes the block carries no payloads and
  /// allocates no end offsets. Put then writes instances 0 to n - 1.
  void Allocate(size_t n, size_t arena_bytes);

  /// Writes instance `i`: tuple `t` bound for partition `p`, and its
  /// payload when the block carries payloads. A payload starts where the
  /// previous instance's ends, so instances are written in index order.
  void Put(size_t i, PartitionId p, const Tuple& t);

  /// The payload bytes of instance `i` (empty unless carried).
  std::string_view Payload(size_t i) const;

  /// The bytes the block's columns and arena hold allocated.
  uint64_t AllocatedBytes() const;
};

/// What one map task wrote: one block per destination worker, and the
/// task's counters.
struct MapTaskOutput {
  std::vector<ShuffleBlock> by_worker;
  uint64_t replicated = 0;
  uint64_t shuffled_tuples = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t remote_bytes = 0;
  /// The bytes `by_worker` allocates, columns and arenas.
  uint64_t block_bytes = 0;
  /// Why the split cannot be routed (its lowest offending index).
  Status error;
};

/// One map task's input: rows [begin, end) of `data`, all of `side`, held
/// by logical worker `home`.
struct MapSplit {
  const Dataset* data = nullptr;
  Side side = Side::kR;
  size_t begin = 0;
  size_t end = 0;
  int home = 0;
};

/// One instance the route pass staged for the fill pass.
struct StagedInstance {
  size_t row = 0;
  PartitionId part = 0;
  int dest = 0;
};

/// Scratch of RouteSplit, reused across the map tasks of one thread. Every
/// call clears it first, so an attempt cut short leaves nothing behind for
/// the next.
struct MapScratch {
  /// The split's instances in (row, replica) order.
  std::vector<StagedInstance> staged;
  /// Per destination worker: the instances, then the fill cursor.
  std::vector<size_t> count;
  /// Per destination worker: the payload bytes (carried payloads only).
  std::vector<size_t> arena;
};

/// Routes one split through `router` into one block per destination
/// worker of `options.workers`, copying payload bytes only when they are
/// carried. Idempotent: the split is only read.
///
/// The route pass validates each tuple: a point that is not finite (or lies
/// outside `options.bounds` when they have area), no partition, more
/// partitions than a RoutedBlock holds, or an owner outside [0, workers)
/// stops the task with `error` naming that tuple, the split's lowest
/// offending index. The router never sees a tuple from the first invalid
/// point on. The fill pass writes each block at its final size. Both
/// passes poll `cancel` every kKernelPollGrain tuples or instances (no
/// router block crosses a poll) and return a partial output once it fires;
/// the caller discards it.
MapTaskOutput RouteSplit(const MapSplit& split, const Router& router,
                         const EngineOptions& options, MapScratch* scratch,
                         const spatial::KernelCancellation* cancel);

/// One partition's contiguous run in a WorkerStore: R instances occupy
/// [begin, mid), S instances [mid, end).
struct PartitionRun {
  PartitionId part = 0;
  size_t begin = 0;
  size_t mid = 0;
  size_t end = 0;
};

/// One worker's regrouped partitions in column form.
struct WorkerStore {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int64_t> id;
  /// One run per partition with both sides, ascending by partition id.
  std::vector<PartitionRun> runs;
};

/// Scratch of Regroup, reused across the regroups of one thread.
struct RegroupScratch {
  /// Slot of each inbound instance, in (block, row) order.
  std::vector<uint32_t> slot;
  /// Per slot: the partition's R and S counts, then its scatter cursors.
  std::vector<PartitionRun> runs;
  /// (ordered id, slot) key of each partition with both sides.
  std::vector<uint64_t> keys;
};

/// Regroups one worker's `inbound` blocks, given in map-task order, into a
/// WorkerStore by a counting sort on partition id. A partition with an
/// empty side gets no run, and its instances are not stored. The sort is
/// stable, so each run lists each side's instances in (map task, row)
/// order; the store does not depend on how R and S blocks interleave. No
/// kernel reads payloads, so the store has none; `consume` frees every
/// inbound block afterwards, payload arena included.
/// Polls `cancel` after each inbound block, pulsing its instance count,
/// and returns an empty store once it fires (the caller discards it).
WorkerStore Regroup(std::span<ShuffleBlock* const> inbound, bool consume,
                    RegroupScratch* scratch,
                    const spatial::KernelCancellation* cancel);

/// Copies the id and point of instances [begin, end) of `store` into `out`
/// (resized to fit); payloads are left as they are.
void GatherTuples(const WorkerStore& store, size_t begin, size_t end,
                  std::vector<Tuple>* out);

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_SHUFFLE_H_
