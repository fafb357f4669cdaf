// Copyright 2026 The pasjoin Authors.
#include "exec/shuffle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/macros.h"

namespace pasjoin::exec {

void ShuffleBlock::Allocate(size_t n, size_t arena_bytes) {
  run.resize(n);
  x.resize(n);
  y.resize(n);
  id.resize(n);
  if (arena_bytes == 0) return;
  payload_end.resize(n);
  payload_bytes.resize(arena_bytes);
}

void ShuffleBlock::Put(size_t i, uint32_t r, const Tuple& t) {
  run[i] = r;
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
  return run.capacity() * sizeof(uint32_t) +
         (x.capacity() + y.capacity()) * sizeof(double) +
         id.capacity() * sizeof(int64_t) +
         payload_end.capacity() * sizeof(uint64_t) + payload_bytes.capacity();
}

namespace {

/// Why partition `part` cannot go to worker `owner` of `workers`.
std::string OwnerProblem(PartitionId part, int owner, int workers) {
  return "owner placed partition " + std::to_string(part) + " on worker " +
         std::to_string(owner) + ", outside [0, " + std::to_string(workers) +
         ")";
}

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

void ReachSet::Reset() {
  for (std::vector<std::unique_ptr<Page>>& side : pages_) {
    std::vector<std::unique_ptr<Page>>().swap(side);
  }
}

void ReachSet::Union(ReachSet&& other) {
  for (int side = 0; side < 2; ++side) {
    std::vector<std::unique_ptr<Page>>& mine = pages_[side];
    std::vector<std::unique_ptr<Page>>& theirs = other.pages_[side];
    // Merge the shorter table into the longer one.
    if (mine.size() < theirs.size()) mine.swap(theirs);
    for (size_t i = 0; i < theirs.size(); ++i) {
      if (theirs[i] == nullptr) continue;
      if (mine[i] == nullptr) {
        mine[i] = std::move(theirs[i]);
        continue;
      }
      for (size_t w = 0; w < kWords; ++w) {
        mine[i]->words[w] |= theirs[i]->words[w];
      }
    }
  }
}

std::vector<PartitionId> ReachSet::Joinable() const {
  const std::vector<std::unique_ptr<Page>>& r = pages_[0];
  const std::vector<std::unique_ptr<Page>>& s = pages_[1];
  std::vector<PartitionId> out;
  for (size_t i = 0; i < std::min(r.size(), s.size()); ++i) {
    if (r[i] == nullptr || s[i] == nullptr) continue;
    for (size_t w = 0; w < kWords; ++w) {
      for (uint64_t bits = r[i]->words[w] & s[i]->words[w]; bits != 0;
           bits &= bits - 1) {
        out.push_back(static_cast<PartitionId>(
            (i << kShift) | (w << 6) |
            static_cast<size_t>(std::countr_zero(bits))));
      }
    }
  }
  return out;
}

Result<RunNumbering> RunNumbering::Build(const ReachSet& reach,
                                         const Router& router, int workers) {
  const std::vector<PartitionId> joinable = reach.Joinable();
  RunNumbering out;
  out.index_.Reserve(joinable.size());
  out.parts_.resize(static_cast<size_t>(workers));
  for (const PartitionId p : joinable) {
    const int owner = router.Owner(p);
    if (owner < 0 || owner >= workers) {
      return Status::InvalidArgument(OwnerProblem(p, owner, workers));
    }
    std::vector<PartitionId>& parts = out.parts_[static_cast<size_t>(owner)];
    out.index_.Insert(p, static_cast<int32_t>(out.slots_.size()));
    out.slots_.push_back(Slot{owner, static_cast<uint32_t>(parts.size())});
    parts.push_back(p);
  }
  return out;
}

StagedSplit RouteSplit(const MapSplit& split, const Router& router,
                       const EngineOptions& options, ReachSet* reach,
                       const spatial::KernelCancellation* cancel) {
  constexpr size_t kGrain = spatial::kKernelPollGrain;
  static_assert(kGrain % RoutedBlock::kMaxTuples == 0);
  const Dataset& d = *split.data;
  const int workers = options.workers;
  const bool carry = options.carry_payloads;
  const bool bounded = options.bounds.Area() > 0.0;
  StagedSplit out;
  // A staged row is a 32-bit offset into the split.
  if (split.end - split.begin > std::numeric_limits<uint32_t>::max()) {
    out.error = Status::InvalidArgument(
        "the split of dataset '" + d.name + "' at index " +
        std::to_string(split.begin) +
        " holds more than 2^32 - 1 tuples; use more splits");
    return out;
  }
  // Every tuple has at least one instance. The list lives until its fill,
  // alongside every other task's, so the route trims its growth slack.
  std::vector<StagedInstance>& staged = out.instances;
  staged.reserve(split.end - split.begin);

  // Validate and route the split a block at a time, staging each instance.
  // A block ends before its first point that cannot be routed and never
  // crosses a poll.
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
      const auto row = static_cast<uint32_t>(i - split.begin);
      for (; first < last; ++first) {
        const PartitionId part = block.part[first];
        const int dest = block.owner[first];
        if (part < 0) {
          out.error = RoutingError(d, i,
                                   "assign returned negative partition " +
                                       std::to_string(part));
          return out;
        }
        if (dest < 0 || dest >= workers) {
          out.error = RoutingError(d, i, OwnerProblem(part, dest, workers));
          return out;
        }
        staged.push_back(StagedInstance{row, part});
        reach->Mark(split.side, part);
        out.payload_bytes += payload;
        out.shuffle_bytes += bytes;
        if (dest != split.home) out.remote_bytes += bytes;
      }
    }
    if (StopAfter(cancel, i - 1 - split.begin)) return out;  // caller discards
  }
  PulseTail(cancel, split.end - split.begin);
  out.shuffled_tuples = staged.size();
  staged.shrink_to_fit();
  return out;
}

MapTaskOutput FillSplit(const MapSplit& split, StagedSplit* staged,
                        const ReachSet& reach, const RunNumbering& numbering,
                        const EngineOptions& options, bool consume,
                        FillScratch* scratch,
                        const spatial::KernelCancellation* cancel) {
  const std::vector<Tuple>& tuples = split.data->tuples;
  const std::span<const StagedInstance> instances(staged->instances);
  const auto workers = static_cast<size_t>(options.workers);
  const Side other = split.side == Side::kR ? Side::kS : Side::kR;

  // Copy the joinable instances, in staged order, into the scratch list
  // without a branch on the reach set.
  std::vector<StagedInstance>& joinable = scratch->joinable;
  joinable.resize(instances.size());
  size_t n = 0;
  for (size_t k = 0; k < instances.size(); ++k) {
    joinable[n] = instances[k];
    n += reach.Reaches(other, instances[k].part) ? 1 : 0;
    if (StopAfter(cancel, k)) return MapTaskOutput();  // caller discards
  }
  PulseTail(cancel, instances.size());
  // Look each one's slot up and count the instances and payload bytes per
  // owner.
  std::vector<RunNumbering::Slot>& slot = scratch->slot;
  slot.resize(n);
  std::vector<size_t> count(workers, 0);
  std::vector<size_t> arena(workers, 0);
  const bool carried = staged->payload_bytes > 0;  // with none, read no tuple
  for (size_t k = 0; k < n; ++k) {
    slot[k] = numbering.Find(joinable[k].part);
    const auto w = static_cast<size_t>(slot[k].owner);
    ++count[w];
    if (carried) {
      arena[w] += tuples[split.begin + joinable[k].row].payload.size();
    }
  }

  // Size every block exactly, then write each instance at its block's
  // cursor, so a block lists its instances in (row, replica) order.
  MapTaskOutput out;
  out.by_worker.assign(workers, ShuffleBlock(split.side));
  for (size_t w = 0; w < workers; ++w) {
    ShuffleBlock& block = out.by_worker[w];
    block.Allocate(count[w], arena[w]);
    out.instances += count[w];
    out.block_bytes += block.AllocatedBytes();
    count[w] = 0;
  }
  for (size_t k = 0; k < n; ++k) {
    const auto w = static_cast<size_t>(slot[k].owner);
    out.by_worker[w].Put(count[w]++, slot[k].run,
                         tuples[split.begin + joinable[k].row]);
    if (StopAfter(cancel, k)) return out;  // caller discards
  }
  PulseTail(cancel, n);
  // The fill wrote every slot it allocated.
  for (size_t w = 0; w < workers; ++w) {
    PASJOIN_DCHECK(count[w] == out.by_worker[w].size());
    PASJOIN_DCHECK(out.by_worker[w].payload_end.empty() ||
                   out.by_worker[w].payload_end.back() ==
                       out.by_worker[w].payload_bytes.size());
  }
  if (consume) std::vector<StagedInstance>().swap(staged->instances);
  return out;
}

WorkerStore Regroup(std::span<ShuffleBlock* const> inbound,
                    std::span<const PartitionId> parts, bool consume,
                    const spatial::KernelCancellation* cancel) {
  // Counting sort by run: count each run's R instances in its `mid` and its
  // S instances in its `end`.
  WorkerStore store;
  std::vector<PartitionRun>& runs = store.runs;
  runs.resize(parts.size());
  for (const ShuffleBlock* block : inbound) {
    const bool is_r = block->side == Side::kR;
    for (const uint32_t r : block->run) {
      PASJOIN_DCHECK(r < runs.size());
      ++(is_r ? runs[r].mid : runs[r].end);
    }
    if (cancel != nullptr) {
      cancel->Pulse(block->size());
      if (cancel->ShouldStop()) return WorkerStore();  // never committed
    }
  }

  // Lay the runs out in run order, which is ascending partition order. A
  // copy's `begin` and `mid` then serve as each run's R and S cursors.
  size_t next = 0;
  for (size_t k = 0; k < runs.size(); ++k) {
    PartitionRun& run = runs[k];
    run = PartitionRun{parts[k], next, next + run.mid,
                       next + run.mid + run.end};
    next = run.end;
  }
  std::vector<PartitionRun> cursors = runs;

  // The scatter writes every instance at its run's cursor for its side.
  // Instances are visited in (block, row) order, so the sort is stable.
  store.x.resize(next);
  store.y.resize(next);
  store.id.resize(next);
  for (const ShuffleBlock* block : inbound) {
    const bool is_r = block->side == Side::kR;
    for (size_t row = 0; row < block->size(); ++row) {
      PartitionRun& cursor = cursors[block->run[row]];
      const size_t dest = is_r ? cursor.begin++ : cursor.mid++;
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
