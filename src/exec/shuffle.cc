// Copyright 2026 The pasjoin Authors.
#include "exec/shuffle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/flat_index.h"
#include "common/macros.h"

namespace pasjoin::exec {

void ShuffleBlock::Allocate(size_t n, size_t arena_bytes) {
  part = std::vector<PartitionId>(n);
  x = std::vector<double>(n);
  y = std::vector<double>(n);
  id = std::vector<int64_t>(n);
  if (arena_bytes == 0) return;
  payload_end = std::vector<uint64_t>(n);
  payload_bytes = std::vector<char>(arena_bytes);
}

void ShuffleBlock::Put(size_t i, PartitionId p, const Tuple& t) {
  part[i] = p;
  x[i] = t.pt.x;
  y[i] = t.pt.y;
  id[i] = t.id;
  if (payload_end.empty()) return;
  const uint64_t begin = i == 0 ? 0 : payload_end[i - 1];
  PASJOIN_DCHECK(begin + t.payload.size() <= payload_bytes.size());
  std::copy(t.payload.begin(), t.payload.end(),
            payload_bytes.begin() + static_cast<std::ptrdiff_t>(begin));
  payload_end[i] = begin + t.payload.size();
}

std::string_view ShuffleBlock::Payload(size_t i) const {
  if (payload_end.empty()) return {};
  const uint64_t begin = i == 0 ? 0 : payload_end[i - 1];
  return {payload_bytes.data() + begin, payload_end[i] - begin};
}

uint64_t ShuffleBlock::AllocatedBytes() const {
  return part.capacity() * sizeof(PartitionId) +
         (x.capacity() + y.capacity()) * sizeof(double) +
         id.capacity() * sizeof(int64_t) +
         payload_end.capacity() * sizeof(uint64_t) + payload_bytes.capacity();
}

namespace {

/// The error of tuple `i` of `d`, which cannot be routed.
Status RoutingError(const Dataset& d, size_t i, const std::string& problem) {
  return Status::InvalidArgument(problem + " in dataset '" + d.name +
                                 "' at index " + std::to_string(i));
}

/// Whether a point can be routed: its coordinates are finite and, when
/// `bounds` has positive area, it lies inside. Such bounds mean the caller
/// partitions exactly that rectangle, and Grid::Locate would silently clamp
/// an outside point into an edge cell, so replication would run against
/// the wrong cell rectangle. Contains() is closed, so exact-boundary points
/// stay valid (Grid::Locate clamps max-edge coordinates into the last cell
/// — the one clamp that is correct).
/// `bounded` is whether `bounds` has positive area.
bool Routable(const Point& pt, const Rect& bounds, bool bounded) {
  if (!std::isfinite(pt.x) || !std::isfinite(pt.y)) return false;
  return !bounded || bounds.Contains(pt);
}

/// The error of tuple `i` of `d`, whose point is not Routable.
Status PointError(const Dataset& d, size_t i, const Rect& bounds) {
  const Point pt = d.tuples[i].pt;
  if (!std::isfinite(pt.x) || !std::isfinite(pt.y)) {
    return RoutingError(d, i, "non-finite coordinate");
  }
  return Status::InvalidArgument(
      "point outside declared bounds in dataset '" + d.name + "' at index " +
      std::to_string(i) + ": (" + std::to_string(pt.x) + ", " +
      std::to_string(pt.y) + ") not in [" + std::to_string(bounds.min_x) +
      ", " + std::to_string(bounds.max_x) + "] x [" +
      std::to_string(bounds.min_y) + ", " + std::to_string(bounds.max_y) +
      "]");
}

/// After step `k` (0-based) of a pass, every kKernelPollGrain steps: pulses
/// `cancel` and returns whether it fired.
bool StopAfter(const spatial::KernelCancellation* cancel, size_t k) {
  constexpr size_t kGrain = spatial::kKernelPollGrain;
  if (cancel == nullptr || (k & (kGrain - 1)) != kGrain - 1) return false;
  cancel->Pulse(kGrain);
  return cancel->ShouldStop();
}

/// Pulses the last `n % kKernelPollGrain` steps of a pass of `n` steps,
/// which no StopAfter pulsed.
void PulseTail(const spatial::KernelCancellation* cancel, size_t n) {
  if (cancel != nullptr) cancel->Pulse(n & (spatial::kKernelPollGrain - 1));
}

/// The slot of the instances whose partition cannot join.
constexpr uint32_t kSink = 0;

/// The `begin` of a slot that gets no run: the sink's, and that of every
/// partition with an empty side.
constexpr size_t kDropped = std::numeric_limits<size_t>::max();

/// A sort key ordering slots by signed partition id: the id's bits with
/// the sign flipped above the slot.
uint64_t RunKey(PartitionId part, uint32_t s) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(part) ^ 0x80000000U)
          << 32) |
         s;
}

}  // namespace

size_t FnRouter::Route(std::span<const Tuple> tuples, Side side,
                       RoutedBlock* out) const {
  size_t end = 0;
  for (size_t k = 0; k < tuples.size(); ++k) {
    const PartitionList parts = (*assign_)(tuples[k], side);
    if (parts.size() > RoutedBlock::kMaxInstances - end) return k;
    for (size_t j = 0; j < parts.size(); ++j, ++end) {
      out->part[end] = parts[j];
      out->owner[end] = (*owner_)(parts[j]);
    }
    out->end[k] = end;
  }
  return tuples.size();
}

MapTaskOutput RouteSplit(const MapSplit& split, const Router& router,
                         const EngineOptions& options, MapScratch* scratch,
                         const spatial::KernelCancellation* cancel) {
  constexpr size_t kGrain = spatial::kKernelPollGrain;
  static_assert(kGrain % RoutedBlock::kMaxTuples == 0);
  const Dataset& d = *split.data;
  const int workers = options.workers;
  const bool carry = options.carry_payloads;
  const bool bounded = options.bounds.Area() > 0.0;
  std::vector<StagedInstance>& staged = scratch->staged;
  std::vector<size_t>& count = scratch->count;
  std::vector<size_t>& arena = scratch->arena;
  staged.clear();
  count.assign(static_cast<size_t>(workers), 0);
  arena.assign(static_cast<size_t>(workers), 0);
  MapTaskOutput out;

  // Route pass: validate and route the split a block at a time, staging
  // each instance and counting it per destination. A block ends before its
  // first point that cannot be routed and never crosses a poll.
  RoutedBlock block{};
  for (size_t i = split.begin; i < split.end;) {
    const size_t to_poll = kGrain - ((i - split.begin) & (kGrain - 1));
    const size_t n =
        std::min({split.end - i, RoutedBlock::kMaxTuples, to_poll});
    size_t valid = 0;
    while (valid < n && Routable(d.tuples[i + valid].pt, options.bounds,
                                 bounded)) {
      ++valid;
    }
    if (valid == 0) {
      out.error = PointError(d, i, options.bounds);
      return out;
    }
    const size_t routed = router.Route(
        std::span<const Tuple>(d.tuples).subspan(i, valid), split.side,
        &block);
    if (routed == 0) {
      out.error = RoutingError(
          d, i,
          "assign returned more than " +
              std::to_string(RoutedBlock::kMaxInstances) + " partitions");
      return out;
    }
    size_t first = 0;
    for (size_t k = 0; k < routed; ++k, ++i) {
      const size_t last = block.end[k];
      if (last == first) {
        out.error = RoutingError(d, i, "assign returned no partition");
        return out;
      }
      out.replicated += last - first - 1;
      const size_t payload = carry ? d.tuples[i].payload.size() : 0;
      const uint64_t bytes = kTupleHeaderBytes + payload;
      for (; first < last; ++first) {
        const PartitionId part = block.part[first];
        const int dest = block.owner[first];
        if (dest < 0 || dest >= workers) {
          out.error = RoutingError(
              d, i,
              "owner placed partition " + std::to_string(part) +
                  " on worker " + std::to_string(dest) + ", outside [0, " +
                  std::to_string(workers) + ")");
          return out;
        }
        staged.push_back(StagedInstance{i, part, dest});
        ++count[static_cast<size_t>(dest)];
        arena[static_cast<size_t>(dest)] += payload;
        out.shuffle_bytes += bytes;
        if (dest != split.home) out.remote_bytes += bytes;
      }
    }
    if (StopAfter(cancel, i - 1 - split.begin)) return out;  // caller discards
  }
  PulseTail(cancel, split.end - split.begin);
  out.shuffled_tuples = staged.size();

  // Fill pass: every block at its final size, then each staged instance at
  // its block's cursor, so a block lists its instances in (row, replica)
  // order.
  out.by_worker.assign(static_cast<size_t>(workers), ShuffleBlock(split.side));
  for (size_t w = 0; w < out.by_worker.size(); ++w) {
    out.by_worker[w].Allocate(count[w], arena[w]);
    out.block_bytes += out.by_worker[w].AllocatedBytes();
    count[w] = 0;
  }
  for (size_t k = 0; k < staged.size(); ++k) {
    const StagedInstance& inst = staged[k];
    const auto w = static_cast<size_t>(inst.dest);
    out.by_worker[w].Put(count[w]++, inst.part, d.tuples[inst.row]);
    if (StopAfter(cancel, k)) return out;  // caller discards
  }
  PulseTail(cancel, staged.size());
  return out;
}

WorkerStore Regroup(std::span<ShuffleBlock* const> inbound, bool consume,
                    RegroupScratch* scratch,
                    const spatial::KernelCancellation* cancel) {
  // Counting sort by partition, over the partitions both sides reach. Pass
  // 1 gives each partition of the side with fewer instances a slot (in
  // order of first appearance) in a table sized for that side; pass 2 only
  // looks the other side's instances up, so a partition that side alone
  // reaches is never numbered. A slot's run counts its R instances in
  // `mid` and its S instances in `end`.
  std::vector<uint32_t>& slot = scratch->slot;
  std::vector<PartitionRun>& runs = scratch->runs;
  size_t n = 0;
  size_t n_r = 0;
  for (const ShuffleBlock* block : inbound) {
    n += block->size();
    if (block->side == Side::kR) n_r += block->size();
  }
  const Side counted = n_r <= n - n_r ? Side::kR : Side::kS;
  FlatIndex slot_of;
  slot_of.Reserve(std::min(n_r, n - n_r));
  runs.assign(1, PartitionRun{0, kDropped, 0, 0});  // the sink
  slot.resize(n);
  // One pass over the blocks of `side`: `slot_for(p)` is the slot of each
  // instance. The blocks of the other side keep their places in `slot`.
  const auto count_pass = [&](Side side, const auto& slot_for) {
    size_t pos = 0;
    for (const ShuffleBlock* block : inbound) {
      if (block->side != side) {
        pos += block->size();
        continue;
      }
      const bool is_r = side == Side::kR;
      for (const PartitionId p : block->part) {
        const uint32_t s = slot_for(p);
        ++(is_r ? runs[s].mid : runs[s].end);
        slot[pos++] = s;
      }
      if (cancel != nullptr) {
        cancel->Pulse(block->size());
        if (cancel->ShouldStop()) return false;
      }
    }
    return true;
  };
  const bool counted_all = count_pass(counted, [&](PartitionId p) {
    const auto next = static_cast<int32_t>(runs.size());
    const int32_t s = slot_of.Insert(p, next);
    if (s == next) runs.push_back(PartitionRun{p, kDropped, 0, 0});
    return static_cast<uint32_t>(s);
  });
  if (!counted_all ||
      !count_pass(counted == Side::kR ? Side::kS : Side::kR,
                  [&](PartitionId p) {
                    const int32_t s = slot_of.Find(p);
                    return s == FlatIndex::kAbsent ? kSink
                                                   : static_cast<uint32_t>(s);
                  })) {
    return WorkerStore();  // never committed
  }
  slot_of = FlatIndex();  // free the table before the store is allocated

  // Lay the runs of the partitions with both sides out in ascending
  // partition order. A slot's `begin` and `mid` then serve as its R and S
  // scatter cursors; every other slot keeps `begin` == kDropped.
  std::vector<uint64_t>& keys = scratch->keys;
  keys.clear();
  for (uint32_t s = kSink + 1; s < runs.size(); ++s) {
    if (runs[s].mid > 0 && runs[s].end > 0) {
      keys.push_back(RunKey(runs[s].part, s));
    }
  }
  std::sort(keys.begin(), keys.end());
  WorkerStore store;
  store.runs.reserve(keys.size());
  size_t next = 0;
  for (const uint64_t key : keys) {
    PartitionRun& cursors = runs[static_cast<uint32_t>(key)];
    const PartitionRun run{cursors.part, next, next + cursors.mid,
                           next + cursors.mid + cursors.end};
    store.runs.push_back(run);
    cursors.begin = run.begin;
    cursors.mid = run.mid;
    next = run.end;
  }

  // Pass 3 scatters every instance of a kept run to its slot's cursor for
  // its side. Instances are visited in (block, row) order, so the sort is
  // stable.
  store.x.resize(next);
  store.y.resize(next);
  store.id.resize(next);
  size_t pos = 0;
  for (const ShuffleBlock* block : inbound) {
    const bool is_r = block->side == Side::kR;
    for (size_t row = 0; row < block->size(); ++row) {
      PartitionRun& cursors = runs[slot[pos++]];
      if (cursors.begin == kDropped) continue;
      const size_t dest = is_r ? cursors.begin++ : cursors.mid++;
      store.x[dest] = block->x[row];
      store.y[dest] = block->y[row];
      store.id[dest] = block->id[row];
    }
  }
  if (consume) {
    for (ShuffleBlock* block : inbound) *block = ShuffleBlock();
  }
  return store;
}

void GatherTuples(const WorkerStore& store, size_t begin, size_t end,
                  std::vector<Tuple>* out) {
  out->resize(end - begin);
  for (size_t i = begin; i < end; ++i) {
    Tuple& t = (*out)[i - begin];
    t.id = store.id[i];
    t.pt = Point{store.x[i], store.y[i]};
  }
}

}  // namespace pasjoin::exec
