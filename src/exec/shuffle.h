// Copyright 2026 The pasjoin Authors.
//
// The engine's shuffle representation: column blocks from map to join.
//
// Each map task writes one ShuffleBlock per destination worker: dense
// columns (partition id, x, y, id) and, when payloads are carried, one byte
// arena with per-instance end offsets. Appending a tuple's payload to the
// arena is the only copy of its bytes — the simulated network transfer.
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

#include "common/tuple.h"
#include "exec/engine.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// The tuple instances one map task sends to one worker, all of one side.
struct ShuffleBlock {
  ShuffleBlock() = default;
  ShuffleBlock(Side block_side, bool carry)
      : side(block_side), carry_payloads(carry) {}

  Side side = Side::kR;
  /// Whether Append copies payload bytes into the arena.
  bool carry_payloads = false;
  std::vector<PartitionId> part;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int64_t> id;
  /// Arena size after each instance's payload (empty unless carried).
  std::vector<uint64_t> payload_end;
  std::vector<char> payload_bytes;

  size_t size() const { return part.size(); }

  /// Appends one instance of `t` bound for partition `p` and returns the
  /// bytes it occupies on the (simulated) network: the 24-byte header plus
  /// the payload when carried.
  uint64_t Append(PartitionId p, const Tuple& t);

  /// The payload bytes of instance `i` (empty unless carried).
  std::string_view Payload(size_t i) const;
};

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
