// Copyright 2026 The pasjoin Authors.
#include "exec/shuffle.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/flat_index.h"

namespace pasjoin::exec {

uint64_t ShuffleBlock::Append(PartitionId p, const Tuple& t) {
  part.push_back(p);
  x.push_back(t.pt.x);
  y.push_back(t.pt.y);
  id.push_back(t.id);
  if (!carry_payloads) return kTupleHeaderBytes;
  payload_bytes.insert(payload_bytes.end(), t.payload.begin(), t.payload.end());
  payload_end.push_back(payload_bytes.size());
  return kTupleHeaderBytes + t.payload.size();
}

std::string_view ShuffleBlock::Payload(size_t i) const {
  if (!carry_payloads) return {};
  const uint64_t begin = i == 0 ? 0 : payload_end[i - 1];
  return {payload_bytes.data() + begin, payload_end[i] - begin};
}

namespace {

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
