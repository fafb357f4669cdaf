// Copyright 2026 The pasjoin Authors.
//
// The engine's shuffle: the map's write half and the regroup's read half,
// with column blocks between them.
//
// A map task is two tasks with a barrier between them. RouteSplit, the
// route phase, validates its split a router block at a time (at most
// RoutedBlock::kMaxTuples tuples), routes each block with one Router call,
// and stages each instance as a 12-byte (row offset, partition,
// destination) entry of the task's own StagedSplit. When the router
// declares its partition-id range, it also marks in a ReachSet which
// partitions its split's side reaches. The engine ORs the threads' reach
// sets once every route task committed; a set union does not depend on
// the thread count. FillSplit, the fill phase, then ships only the joinable
// instances, those whose partition the other side reaches too (the inner
// join of the paper's Algorithm 5 as a semi-join reduction): it counts
// them per destination worker, gives each destination its ShuffleBlock at
// exactly that size, one uninitialized allocation per column and one for
// the payload arena, and writes them in (row, replica) order. A router
// that declares no range gets every instance shipped.
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
// Evaluation of Spatial Joins"). It keeps only the partitions both sides
// reached: after a filtered fill every inbound partition is one, and after
// an unfiltered one an instance whose partition has no instance of the
// other side is never stored. The join reads each run's columns in place.
// Teardown frees a few buffers per block and per worker, never one per
// instance.
#ifndef PASJOIN_EXEC_SHUFFLE_H_
#define PASJOIN_EXEC_SHUFFLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "exec/engine.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// An allocator whose value-less construct default-initializes: resizing a
/// vector of trivial elements through it leaves them unwritten, so a
/// column sized for the slots a fill overwrites is written once, not twice.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  explicit DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One column of a ShuffleBlock.
template <typename T>
using Column = std::vector<T, DefaultInitAllocator<T>>;

/// The tuple instances one map task sends to one worker, all of one side.
struct ShuffleBlock {
  ShuffleBlock() = default;
  explicit ShuffleBlock(Side block_side) : side(block_side) {}

  Side side = Side::kR;
  Column<PartitionId> part;
  Column<double> x;
  Column<double> y;
  Column<int64_t> id;
  /// Arena size after each instance's payload; empty, like the arena, when
  /// the block carries no payload bytes.
  Column<uint64_t> payload_end;
  Column<char> payload_bytes;
  /// Written by a filtered fill: every instance's partition is joinable.
  bool joinable_only = false;

  size_t size() const { return part.size(); }

  /// Sizes the block for `n` instances and an arena of `arena_bytes`
  /// payload bytes: each column and the arena get one allocation of exactly
  /// that size, left unwritten. With no arena bytes the block carries no
  /// payloads and allocates no end offsets. Put then writes instances 0 to
  /// n - 1.
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

/// One map task's input: rows [begin, end) of `data`, all of `side`, held
/// by logical worker `home`.
struct MapSplit {
  const Dataset* data = nullptr;
  Side side = Side::kR;
  size_t begin = 0;
  size_t end = 0;
  int home = 0;
};

/// One instance the route phase staged for the fill phase: row
/// split.begin + row of the split, bound for partition `part` on worker
/// `dest`.
struct StagedInstance {
  uint32_t row = 0;
  PartitionId part = 0;
  int32_t dest = 0;
};
static_assert(sizeof(StagedInstance) == 12);

/// What one route task produced: its split's instances in (row, replica)
/// order and the paper's routed counters.
struct StagedSplit {
  std::vector<StagedInstance> instances;
  uint64_t replicated = 0;
  uint64_t shuffled_tuples = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t remote_bytes = 0;
  /// The payload bytes the instances carry (0 unless carried).
  uint64_t payload_bytes = 0;
  /// Why the split cannot be routed (its lowest offending index).
  Status error;
};

/// Which partitions of a router's range [0, n) each side reaches: one bit
/// per (side, partition), in 4096-bit pages allocated on first mark, so a
/// grid of a quarter billion cells costs a page table and the pages its
/// data touches. Each map thread marks its own set; the union of the
/// threads' sets is the job's.
class ReachSet {
 public:
  /// Clears the set and sizes it for partitions [0, n).
  void Reset(PartitionId n);

  bool empty() const { return pages_[0].empty(); }

  void Mark(Side side, PartitionId p) {
    const auto u = static_cast<uint32_t>(p);
    std::unique_ptr<Page>& page = pages_[static_cast<int>(side)][u >> kShift];
    if (page == nullptr) page = std::make_unique<Page>();
    page->words[(u >> 6) & (kWords - 1)] |= uint64_t{1} << (u & 63);
  }

  bool Reaches(Side side, PartitionId p) const {
    const auto u = static_cast<uint32_t>(p);
    const Page* page = pages_[static_cast<int>(side)][u >> kShift].get();
    return page != nullptr &&
           ((page->words[(u >> 6) & (kWords - 1)] >> (u & 63)) & 1) != 0;
  }

  /// Adds every mark of `other`, which is empty or of the same range,
  /// taking its pages where this set has none.
  void Union(ReachSet&& other);

 private:
  static constexpr uint32_t kShift = 12;
  static constexpr size_t kWords = (size_t{1} << kShift) / 64;
  struct Page {
    std::array<uint64_t, kWords> words{};
  };

  /// Indexed by Side.
  std::vector<std::unique_ptr<Page>> pages_[2];
};

/// What one fill task wrote: one block per destination worker.
struct MapTaskOutput {
  std::vector<ShuffleBlock> by_worker;
  /// The instances the blocks hold.
  uint64_t instances = 0;
  /// The bytes `by_worker` allocates, columns and arenas.
  uint64_t block_bytes = 0;
};

/// The route phase of one map task: routes `split` through `router` and
/// stages every instance, counting the routed instances and their bytes
/// (payloads only when carried). Marks the split's side in `reach` for
/// every staged partition unless `reach` is null, which it must be when
/// the router declares no range. Idempotent: the split is only read.
///
/// Each tuple is validated: a point that is not finite (or lies outside
/// `options.bounds` when they have area), no partition, more partitions
/// than a RoutedBlock holds, a partition outside the router's declared
/// range, or an owner outside [0, workers) stops the task with `error`
/// naming that tuple, the split's lowest offending index. The router never
/// sees a tuple from the first invalid point on. Polls `cancel` every
/// kKernelPollGrain tuples (no router block crosses a poll) and returns a
/// partial output once it fires; the caller discards it.
StagedSplit RouteSplit(const MapSplit& split, const Router& router,
                       const EngineOptions& options, ReachSet* reach,
                       const spatial::KernelCancellation* cancel);

/// Scratch of FillSplit, reused across the fill tasks of one thread.
struct FillScratch {
  /// The joinable instances of the task being filled, in staged order.
  std::vector<StagedInstance> joinable;
};

/// The fill phase of one map task: writes the instances `staged` holds for
/// `split` into one exactly sized block per destination worker of
/// `options.workers`, in staged order, copying payload bytes only when they
/// are carried. With `reach`, only the instances whose partition the other
/// side reaches too; without it, all of them. With `consume`, frees the
/// staged list once every block is written; otherwise leaves it intact, so
/// the fill can run again. Polls `cancel` every kKernelPollGrain staged
/// instances while it picks the joinable ones, then every kKernelPollGrain
/// written ones, and returns a partial output once it fires; the caller
/// discards it.
MapTaskOutput FillSplit(const MapSplit& split, StagedSplit* staged,
                        const ReachSet* reach, const EngineOptions& options,
                        bool consume, FillScratch* scratch,
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
/// empty side gets no run, and its instances are not stored; a
/// joinable_only block has none such (a debug check). The sort is
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
