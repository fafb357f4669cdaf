// Copyright 2026 The pasjoin Authors.
#include "exec/shuffle.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

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

WorkerStore Regroup(std::span<ShuffleBlock* const> inbound, bool consume,
                    RegroupScratch* scratch,
                    const spatial::KernelCancellation* cancel) {
  // Counting sort by partition. Pass 1 numbers each distinct partition
  // with a slot (in order of first appearance) and counts its R and S
  // instances in the slot's run: `mid` holds the R count, `end` the S count.
  std::unordered_map<PartitionId, uint32_t>& slot_of = scratch->slot_of;
  std::vector<uint32_t>& slot = scratch->slot;
  std::vector<PartitionRun>& runs = scratch->runs;
  slot_of.clear();
  runs.clear();
  size_t n = 0;
  for (const ShuffleBlock* block : inbound) n += block->size();
  slot.resize(n);
  size_t pos = 0;
  for (const ShuffleBlock* block : inbound) {
    for (const PartitionId p : block->part) {
      const auto [it, inserted] =
          slot_of.try_emplace(p, static_cast<uint32_t>(runs.size()));
      if (inserted) runs.push_back(PartitionRun{p, 0, 0, 0});
      PartitionRun& run = runs[it->second];
      ++(block->side == Side::kR ? run.mid : run.end);
      slot[pos++] = it->second;
    }
    if (cancel != nullptr) {
      cancel->Pulse(block->size());
      if (cancel->ShouldStop()) return WorkerStore();  // never committed
    }
  }

  // Lay the runs out in ascending partition order. A slot's `begin` and
  // `mid` then serve as its R and S scatter cursors.
  WorkerStore store;
  store.runs = runs;
  std::sort(store.runs.begin(), store.runs.end(),
            [](const PartitionRun& a, const PartitionRun& b) {
              return a.part < b.part;
            });
  size_t next = 0;
  for (PartitionRun& run : store.runs) {
    const size_t r_count = run.mid;
    const size_t s_count = run.end;
    run.begin = next;
    run.mid = next + r_count;
    run.end = run.mid + s_count;
    next = run.end;
    PartitionRun& cursors = runs[slot_of.at(run.part)];
    cursors.begin = run.begin;
    cursors.mid = run.mid;
  }
  // Pass 2 needs only the slots. Free the map's nodes now, on the thread
  // that allocated them: the scratch itself is destroyed on the driver
  // thread, one node at a time, after the phase.
  slot_of.clear();

  // Pass 2 scatters every instance to its slot's cursor for its side.
  // Instances are visited in (block, row) order, so the sort is stable.
  store.x.resize(n);
  store.y.resize(n);
  store.id.resize(n);
  pos = 0;
  for (const ShuffleBlock* block : inbound) {
    const bool is_r = block->side == Side::kR;
    for (size_t row = 0; row < block->size(); ++row) {
      PartitionRun& cursors = runs[slot[pos++]];
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
