// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's columnar shuffle (exec/shuffle.h): payload bytes
// travel byte-exact through a block; the map writes each block at its final
// size, equal to a per-instance reference, with the routing errors and
// cancellation of the engine; and regroup is the stable sort of a worker's
// inbound blocks into runs of the partitions both sides reach, for any
// partition ids — negative, sparse and extreme ones included.
#include "exec/shuffle.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
#include "exec/engine_test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::ExpectedPayload;

/// Tuple `id` with its ExpectedPayload, whose length cycles through
/// pasjoin::testing::kPayloadLengths (0 to 1000 bytes).
Tuple MakeTuple(int64_t id) {
  return Tuple{id,
               Point{0.5 * static_cast<double>(id),
                     -1.0 * static_cast<double>(id)},
               ExpectedPayload(id)};
}

/// A block of `side` holding `instances` in order, sized and filled the
/// way the map's fill pass fills one.
ShuffleBlock MakeBlock(Side side, bool carry,
                       const std::vector<std::pair<PartitionId, Tuple>>&
                           instances) {
  size_t arena = 0;
  for (const auto& [part, t] : instances) arena += t.payload.size();
  ShuffleBlock block(side);
  block.Allocate(instances.size(), carry ? arena : 0);
  for (size_t i = 0; i < instances.size(); ++i) {
    block.Put(i, instances[i].first, instances[i].second);
  }
  return block;
}

TEST(ShuffleBlockTest, PayloadBytesReadBackByteExact) {
  std::vector<std::pair<PartitionId, Tuple>> instances;
  uint64_t arena = 0;
  for (int64_t id = 40; id < 52; ++id) {
    instances.emplace_back(static_cast<PartitionId>(id % 5), MakeTuple(id));
    arena += instances.back().second.payload.size();
  }
  const ShuffleBlock block = MakeBlock(Side::kS, /*carry=*/true, instances);
  ASSERT_EQ(block.size(), 12u);
  for (size_t i = 0; i < block.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i) + 40;
    EXPECT_EQ(block.part[i], static_cast<PartitionId>(id % 5));
    EXPECT_EQ(block.id[i], id);
    EXPECT_EQ(block.x[i], 0.5 * static_cast<double>(id));
    EXPECT_EQ(block.y[i], -1.0 * static_cast<double>(id));
    EXPECT_EQ(std::string(block.Payload(i)), ExpectedPayload(id))
        << "instance " << i;
  }
  // The bytes live in the one arena, allocated at its final size.
  EXPECT_EQ(block.payload_bytes.size(), arena);
  EXPECT_EQ(block.payload_bytes.capacity(), arena);
  EXPECT_EQ(block.payload_end.back(), arena);
  EXPECT_EQ(block.AllocatedBytes(), 36 * block.size() + arena);
}

TEST(ShuffleBlockTest, UncarriedPayloadsAreNeitherCopiedNorCounted) {
  const ShuffleBlock block =
      MakeBlock(Side::kR, /*carry=*/false, {{3, MakeTuple(5)}});
  ASSERT_EQ(block.size(), 1u);
  EXPECT_TRUE(block.payload_bytes.empty());
  EXPECT_TRUE(block.payload_end.empty());
  EXPECT_TRUE(block.Payload(0).empty());
  EXPECT_EQ(block.AllocatedBytes(), 28u);
}

/// One shuffled instance, as the reference sort sees it.
struct Instance {
  PartitionId part;
  Side side;
  int64_t id;
};

/// What one side of RandomBlocks sends: `rows` instances per non-empty
/// block, with partitions drawn from `parts`.
struct SideSpec {
  std::vector<PartitionId> parts;
  size_t rows = 0;
};

/// Random blocks in map-task order (every R block before every S block),
/// `blocks_per_side` per side. Ids start at `first_id`.
std::vector<ShuffleBlock> RandomBlocks(const SideSpec& r, const SideSpec& s,
                                       size_t blocks_per_side, uint64_t seed,
                                       int64_t first_id = 0) {
  Rng rng(seed);
  std::vector<ShuffleBlock> blocks;
  int64_t id = first_id;
  for (const Side side : {Side::kR, Side::kS}) {
    const SideSpec& spec = side == Side::kR ? r : s;
    for (size_t b = 0; b < blocks_per_side; ++b) {
      std::vector<std::pair<PartitionId, Tuple>> instances;
      // Some blocks stay empty, as for a worker a split sends nothing to.
      const size_t n = b % 3 == 1 ? 0 : spec.rows;
      for (size_t i = 0; i < n; ++i, ++id) {
        const PartitionId part = spec.parts[rng.NextBounded(spec.parts.size())];
        instances.emplace_back(part, MakeTuple(id));
      }
      blocks.push_back(MakeBlock(side, /*carry=*/true, instances));
    }
  }
  return blocks;
}

/// RandomBlocks with both sides drawing `rows` instances from `parts`.
std::vector<ShuffleBlock> RandomBlocks(const std::vector<PartitionId>& parts,
                                       size_t blocks_per_side, size_t rows,
                                       uint64_t seed) {
  return RandomBlocks(SideSpec{parts, rows}, SideSpec{parts, rows},
                      blocks_per_side, seed);
}

/// The blocks' instances in (block, row) order.
std::vector<Instance> Contents(const std::vector<ShuffleBlock>& blocks) {
  std::vector<Instance> all;
  for (const ShuffleBlock& block : blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      all.push_back(Instance{block.part[i], block.side, block.id[i]});
    }
  }
  return all;
}

/// The stable sort by partition of the blocks' concatenation, without the
/// partitions one side never reaches.
std::vector<Instance> ReferenceOrder(const std::vector<ShuffleBlock>& blocks) {
  std::vector<Instance> all = Contents(blocks);
  std::set<PartitionId> reached[2];
  for (const Instance& inst : all) {
    reached[inst.side == Side::kR ? 0 : 1].insert(inst.part);
  }
  std::erase_if(all, [&](const Instance& inst) {
    return !reached[0].contains(inst.part) || !reached[1].contains(inst.part);
  });
  std::stable_sort(all.begin(), all.end(),
                   [](const Instance& a, const Instance& b) {
                     return a.part < b.part;
                   });
  return all;
}

std::vector<ShuffleBlock*> Pointers(std::vector<ShuffleBlock>* blocks) {
  std::vector<ShuffleBlock*> out;
  for (ShuffleBlock& block : *blocks) out.push_back(&block);
  return out;
}

/// Checks `store` against the reference order: the columns and one run per
/// partition with R before S.
void ExpectStoreMatches(const WorkerStore& store,
                        const std::vector<Instance>& want) {
  ASSERT_EQ(store.id.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(store.id[i], want[i].id) << "position " << i;
    EXPECT_EQ(store.x[i], 0.5 * static_cast<double>(want[i].id));
    EXPECT_EQ(store.y[i], -1.0 * static_cast<double>(want[i].id));
  }
  size_t next = 0;
  for (size_t k = 0; k < store.runs.size(); ++k) {
    const PartitionRun& run = store.runs[k];
    if (k > 0) {
      EXPECT_LT(store.runs[k - 1].part, run.part);
    }
    EXPECT_EQ(run.begin, next);
    EXPECT_LE(run.begin, run.mid);
    EXPECT_LE(run.mid, run.end);
    for (size_t i = run.begin; i < run.end; ++i) {
      EXPECT_EQ(want[i].part, run.part);
      EXPECT_EQ(want[i].side, i < run.mid ? Side::kR : Side::kS);
    }
    next = run.end;
  }
  EXPECT_EQ(next, want.size());
}

/// Requires `a` and `b` to hold the same columns and runs.
void ExpectSameStore(const WorkerStore& a, const WorkerStore& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t k = 0; k < a.runs.size(); ++k) {
    EXPECT_EQ(a.runs[k].part, b.runs[k].part) << "run " << k;
    EXPECT_EQ(a.runs[k].begin, b.runs[k].begin) << "run " << k;
    EXPECT_EQ(a.runs[k].mid, b.runs[k].mid) << "run " << k;
    EXPECT_EQ(a.runs[k].end, b.runs[k].end) << "run " << k;
  }
}

TEST(RegroupTest, StableRunsForNegativeAndSparsePartitionIds) {
  // The ids span both signs, ~2^30 and the int32 extremes: runs must
  // ascend as signed values, nothing may be indexed by id, and no id may
  // read as an empty table entry.
  const std::vector<PartitionId> parts = {
      std::numeric_limits<PartitionId>::min(),
      -(1 << 30),
      -65537,
      -7,
      -1,
      0,
      3,
      65536,
      1 << 29,
      (1 << 30) + 5,
      std::numeric_limits<PartitionId>::max()};
  for (const size_t rows : {size_t{20}, size_t{3000}}) {
    std::vector<ShuffleBlock> blocks = RandomBlocks(parts, 5, rows, rows);
    const std::vector<Instance> want = ReferenceOrder(blocks);
    const std::vector<ShuffleBlock*> inbound = Pointers(&blocks);
    RegroupScratch scratch;
    const WorkerStore store =
        Regroup(inbound, /*consume=*/false, &scratch, nullptr);
    ExpectStoreMatches(store, want);
    EXPECT_EQ(store.runs.size(), parts.size()) << rows;
  }
}

TEST(RegroupTest, CollidingIdsProbePastEachOther) {
  // 1024 ids, each once per side, fill the partition table to half: probe
  // sequences cross the entries of 0, -1 and the int32 extremes, which
  // must never read as empty.
  std::vector<PartitionId> parts = {std::numeric_limits<PartitionId>::min(),
                                    -1, 0,
                                    std::numeric_limits<PartitionId>::max()};
  Rng rng(23);
  while (parts.size() < 1024) {
    parts.push_back(static_cast<PartitionId>(
        static_cast<uint32_t>(rng.NextUint64())));
  }
  std::vector<ShuffleBlock> blocks;
  int64_t id = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    std::vector<std::pair<PartitionId, Tuple>> instances;
    for (const PartitionId p : parts) {
      instances.emplace_back(p, MakeTuple(id++));
    }
    blocks.push_back(MakeBlock(side, /*carry=*/false, instances));
  }
  RegroupScratch scratch;
  const WorkerStore store =
      Regroup(Pointers(&blocks), /*consume=*/false, &scratch, nullptr);
  ExpectStoreMatches(store, ReferenceOrder(blocks));
}

TEST(RegroupTest, PartitionsWithAnEmptySideGetNoRun) {
  // R reaches 1..4 and S reaches 3..6, with extreme ids on one side only:
  // only 3 and 4 can join.
  const SideSpec r{{1, 2, 3, 4, std::numeric_limits<PartitionId>::min()}, 40};
  const SideSpec s{{3, 4, 5, 6, -1, std::numeric_limits<PartitionId>::max()},
                   70};
  std::vector<ShuffleBlock> blocks = RandomBlocks(r, s, 4, 11);
  const std::vector<Instance> want = ReferenceOrder(blocks);
  RegroupScratch scratch;
  const WorkerStore store =
      Regroup(Pointers(&blocks), /*consume=*/true, &scratch, nullptr);
  ExpectStoreMatches(store, want);
  ASSERT_EQ(store.runs.size(), 2u);
  EXPECT_EQ(store.runs[0].part, 3);
  EXPECT_EQ(store.runs[1].part, 4);
}

TEST(RegroupTest, OneSidedInboundGivesAnEmptyStore) {
  const std::vector<PartitionId> parts = {-1, 0, 7, 1 << 30};
  for (const Side only : {Side::kR, Side::kS}) {
    const SideSpec some{parts, 30};
    const SideSpec none{parts, 0};
    std::vector<ShuffleBlock> blocks =
        only == Side::kR ? RandomBlocks(some, none, 3, 5)
                         : RandomBlocks(none, some, 3, 5);
    RegroupScratch scratch;
    const WorkerStore store =
        Regroup(Pointers(&blocks), /*consume=*/true, &scratch, nullptr);
    EXPECT_TRUE(store.runs.empty());
    EXPECT_TRUE(store.id.empty());
    EXPECT_TRUE(store.x.empty());
  }
}

TEST(RegroupTest, StoreIgnoresWhichSideIsSmallerAndBlockOrder) {
  // R sends more instances than S, so regroup numbers S's partitions.
  const std::vector<PartitionId> parts = {-9, -2, 0, 5, 6, 1 << 20};
  std::vector<ShuffleBlock> blocks =
      RandomBlocks(SideSpec{parts, 200}, SideSpec{parts, 60}, 4, 3);
  RegroupScratch scratch;
  const WorkerStore base =
      Regroup(Pointers(&blocks), /*consume=*/false, &scratch, nullptr);
  ExpectStoreMatches(base, ReferenceOrder(blocks));

  // S blocks before R blocks: each side keeps its own block order.
  std::vector<ShuffleBlock> s_first;
  for (const Side side : {Side::kS, Side::kR}) {
    for (const ShuffleBlock& block : blocks) {
      if (block.side == side) s_first.push_back(block);
    }
  }
  ExpectSameStore(
      Regroup(Pointers(&s_first), /*consume=*/false, &scratch, nullptr),
      base);

  // 500 extra S instances in partitions R never reaches make S (680) the
  // larger side against R (600), so regroup numbers R's partitions
  // instead; the store must not move.
  std::vector<ShuffleBlock> larger_s = blocks;
  for (ShuffleBlock& extra :
       RandomBlocks(SideSpec{parts, 0}, SideSpec{{7, 8, -3}, 500}, 2, 9,
                    /*first_id=*/100000)) {
    if (extra.side == Side::kS) larger_s.push_back(std::move(extra));
  }
  ExpectSameStore(
      Regroup(Pointers(&larger_s), /*consume=*/false, &scratch, nullptr),
      base);
}

TEST(RegroupTest, RetainedBlocksRegroupIdentically) {
  // The lost-worker rebuild re-runs Regroup over the retained blocks: they
  // must be intact, and the second store identical to the first.
  const std::vector<PartitionId> parts = {-5, 0, 2, 3, 1 << 25};
  std::vector<ShuffleBlock> blocks =
      RandomBlocks(SideSpec{parts, 90}, SideSpec{{0, 2, 3, 4, 9}, 50}, 5, 21);
  const std::vector<Instance> before = Contents(blocks);
  RegroupScratch scratch;
  const WorkerStore first =
      Regroup(Pointers(&blocks), /*consume=*/false, &scratch, nullptr);
  const std::vector<Instance> after = Contents(blocks);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].part, before[i].part);
    EXPECT_EQ(after[i].side, before[i].side);
  }
  for (const ShuffleBlock& block : blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(std::string(block.Payload(i)), ExpectedPayload(block.id[i]));
    }
  }
  // A fresh scratch, as the rebuild uses.
  RegroupScratch rebuild;
  ExpectSameStore(
      Regroup(Pointers(&blocks), /*consume=*/false, &rebuild, nullptr), first);
}

TEST(RegroupTest, PollsEveryBlockOnce) {
  const std::vector<PartitionId> parts = {1, 2, 3};
  std::vector<ShuffleBlock> blocks =
      RandomBlocks(SideSpec{parts, 25}, SideSpec{parts, 40}, 4, 2);
  size_t n = 0;
  for (const ShuffleBlock& block : blocks) n += block.size();
  CancellationSource live;
  const CancellationToken live_token = live.token();
  std::atomic<uint64_t> progress{0};
  RegroupScratch scratch;
  const spatial::KernelCancellation polled{&live_token, &progress};
  const WorkerStore store =
      Regroup(Pointers(&blocks), /*consume=*/false, &scratch, &polled);
  ExpectStoreMatches(store, ReferenceOrder(blocks));
  EXPECT_EQ(progress.load(), n);

  // A fired token stops the regroup at its first poll.
  CancellationSource fired;
  fired.Cancel(StatusCode::kCancelled, "test");
  const CancellationToken fired_token = fired.token();
  const spatial::KernelCancellation stopped{&fired_token, nullptr};
  const WorkerStore empty =
      Regroup(Pointers(&blocks), /*consume=*/false, &scratch, &stopped);
  EXPECT_TRUE(empty.runs.empty());
  EXPECT_TRUE(empty.id.empty());
}

TEST(RegroupTest, ConsumingFreesInboundBlocks) {
  const std::vector<PartitionId> parts = {9, -3, 1 << 30};
  std::vector<ShuffleBlock> blocks = RandomBlocks(parts, 4, 50, 7);
  const std::vector<Instance> want = ReferenceOrder(blocks);
  RegroupScratch scratch;
  const WorkerStore store =
      Regroup(Pointers(&blocks), /*consume=*/true, &scratch, nullptr);
  for (const ShuffleBlock& block : blocks) {
    EXPECT_EQ(block.size(), 0u);
    EXPECT_EQ(block.payload_bytes.capacity(), 0u);
  }
  ExpectStoreMatches(store, want);

  // GatherTuples rebuilds a run's ids and points.
  std::vector<Tuple> gathered;
  const PartitionRun& run = store.runs.back();
  GatherTuples(store, run.begin, run.end, &gathered);
  ASSERT_EQ(gathered.size(), run.end - run.begin);
  for (size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(gathered[i].id, want[run.begin + i].id);
    EXPECT_EQ(gathered[i].pt.x, store.x[run.begin + i]);
    EXPECT_EQ(gathered[i].pt.y, store.y[run.begin + i]);
  }
}

TEST(RegroupTest, NoInstancesGiveNoRuns) {
  std::vector<ShuffleBlock> blocks(3);
  RegroupScratch scratch;
  const WorkerStore store =
      Regroup(Pointers(&blocks), /*consume=*/true, &scratch, nullptr);
  EXPECT_TRUE(store.runs.empty());
  EXPECT_TRUE(store.id.empty());
}

// ---------------------------------------------------------------------------
// The map's write half: RouteSplit (route) then FillSplit (fill).
// ---------------------------------------------------------------------------

constexpr int kRouteWorkers = 6;

/// Tuples 0 to n - 1, each MakeTuple(row): the id is the row.
Dataset RouteDataset(size_t n) {
  Dataset d{"R", {}};
  for (size_t i = 0; i < n; ++i) {
    d.tuples.push_back(MakeTuple(static_cast<int64_t>(i)));
  }
  return d;
}

/// 1 to 4 partitions per tuple, negative ids included.
PartitionList RouteAssign(const Tuple& t, Side side) {
  PartitionList out;
  const int64_t k = 1 + (t.id + (side == Side::kS ? 1 : 0)) % 4;
  for (int64_t j = 0; j < k; ++j) {
    out.push_back(static_cast<PartitionId>((t.id * 7 + j * 5) % 23 - 11));
  }
  return out;
}

/// Several partitions per worker; workers 3 to 5 receive nothing.
int RouteOwner(PartitionId p) { return ((p % 3) + 3) % 3; }

/// One map task's two phases: what the route staged and what the fill
/// wrote (nothing when the route failed).
struct Routed {
  StagedSplit staged;
  MapTaskOutput filled;
};

/// RouteSplit through FnRouter(assign, owner), then an unfiltered,
/// consuming FillSplit unless the route failed or was cancelled.
Routed RouteFns(const MapSplit& split, const AssignFn& assign,
                const OwnerFn& owner, const EngineOptions& options,
                const spatial::KernelCancellation* cancel) {
  Routed out;
  out.staged =
      RouteSplit(split, FnRouter(assign, owner), options, nullptr, cancel);
  if (out.staged.error.ok() && (cancel == nullptr || !cancel->ShouldStop())) {
    FillScratch scratch;
    out.filled = FillSplit(split, &out.staged, nullptr, options,
                           /*consume=*/true, &scratch, cancel);
  }
  return out;
}

EngineOptions RouteOptions(bool carry) {
  EngineOptions options;
  options.workers = kRouteWorkers;
  options.carry_payloads = carry;
  return options;
}

/// A block column as a plain vector.
template <typename T>
std::vector<T> Plain(const Column<T>& column) {
  return std::vector<T>(column.begin(), column.end());
}

/// What the fill must write, built one instance at a time.
struct ReferenceBlock {
  std::vector<PartitionId> part;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int64_t> id;
  std::vector<uint64_t> payload_end;
  std::string arena;
};

/// The per-instance reference of a map task: blocks and routed counters.
struct ReferenceRoute {
  std::vector<ReferenceBlock> blocks;
  StagedSplit counters;
};

/// The reference of `split` under RouteAssign and RouteOwner. With
/// `ships`, only the instances whose partition it accepts are written;
/// the counters count every routed instance.
ReferenceRoute RouteReference(
    const MapSplit& split, bool carry,
    const std::function<bool(PartitionId)>& ships = nullptr) {
  ReferenceRoute ref;
  ref.blocks.resize(kRouteWorkers);
  StagedSplit& c = ref.counters;
  for (size_t row = split.begin; row < split.end; ++row) {
    const Tuple& t = split.data->tuples[row];
    const PartitionList parts = RouteAssign(t, split.side);
    c.replicated += parts.size() - 1;
    for (size_t k = 0; k < parts.size(); ++k) {
      const int w = RouteOwner(parts[k]);
      const uint64_t bytes = kTupleHeaderBytes + (carry ? t.payload.size() : 0);
      c.shuffled_tuples += 1;
      c.shuffle_bytes += bytes;
      if (w != split.home) c.remote_bytes += bytes;
      if (ships && !ships(parts[k])) continue;
      ReferenceBlock& b = ref.blocks[static_cast<size_t>(w)];
      b.part.push_back(parts[k]);
      b.x.push_back(t.pt.x);
      b.y.push_back(t.pt.y);
      b.id.push_back(t.id);
      if (carry) {
        b.arena += t.payload;
        b.payload_end.push_back(b.arena.size());
      }
    }
  }
  // A block whose payloads are all empty carries no end offsets.
  for (ReferenceBlock& b : ref.blocks) {
    if (b.arena.empty()) b.payload_end.clear();
  }
  return ref;
}

/// Requires `out` to hold exactly the reference's blocks, column by
/// column, each allocated at its final size, and its counters.
void ExpectRouteMatches(const Routed& out, const ReferenceRoute& ref,
                        Side side, const std::string& label) {
  ASSERT_TRUE(out.staged.error.ok())
      << label << ": " << out.staged.error.ToString();
  ASSERT_EQ(out.filled.by_worker.size(), ref.blocks.size()) << label;
  uint64_t allocated = 0;
  uint64_t instances = 0;
  for (size_t w = 0; w < ref.blocks.size(); ++w) {
    const ShuffleBlock& b = out.filled.by_worker[w];
    const ReferenceBlock& want = ref.blocks[w];
    const std::string where = label + " worker " + std::to_string(w);
    EXPECT_EQ(b.side, side) << where;
    EXPECT_EQ(Plain(b.part), want.part) << where;
    EXPECT_EQ(Plain(b.x), want.x) << where;
    EXPECT_EQ(Plain(b.y), want.y) << where;
    EXPECT_EQ(Plain(b.id), want.id) << where;
    EXPECT_EQ(Plain(b.payload_end), want.payload_end) << where;
    EXPECT_EQ(std::string(b.payload_bytes.begin(), b.payload_bytes.end()),
              want.arena)
        << where;
    EXPECT_EQ(b.part.capacity(), b.part.size()) << where;
    EXPECT_EQ(b.x.capacity(), b.x.size()) << where;
    EXPECT_EQ(b.y.capacity(), b.y.size()) << where;
    EXPECT_EQ(b.id.capacity(), b.id.size()) << where;
    EXPECT_EQ(b.payload_end.capacity(), b.payload_end.size()) << where;
    EXPECT_EQ(b.payload_bytes.capacity(), b.payload_bytes.size()) << where;
    // Four columns, and with payload bytes an end offset and the bytes.
    allocated += (want.arena.empty() ? 28 : 36) * want.id.size() +
                 want.arena.size();
    instances += want.id.size();
  }
  const StagedSplit& c = ref.counters;
  EXPECT_EQ(out.staged.replicated, c.replicated) << label;
  EXPECT_EQ(out.staged.shuffled_tuples, c.shuffled_tuples) << label;
  EXPECT_EQ(out.staged.shuffle_bytes, c.shuffle_bytes) << label;
  EXPECT_EQ(out.staged.remote_bytes, c.remote_bytes) << label;
  EXPECT_EQ(out.filled.instances, instances) << label;
  EXPECT_EQ(out.filled.block_bytes, allocated) << label;
}

TEST(RouteSplitTest, ExactlySizedBlocksMatchAPerInstanceReference) {
  const Dataset d = RouteDataset(3000);
  for (const bool carry : {true, false}) {
    // A split crossing the poll grain, a one-tuple split whose payload is
    // empty and an empty split.
    for (const auto& [begin, end] : {std::pair<size_t, size_t>{450, 2950},
                                     {6, 7},
                                     {1000, 1000}}) {
      for (const Side side : {Side::kR, Side::kS}) {
        const MapSplit split{&d, side, begin, end, /*home=*/1};
        std::string label = carry ? "carried " : "bare ";
        label.append(std::to_string(begin)).append("-");
        label.append(std::to_string(end));
        label.append(side == Side::kR ? " R" : " S");
        const Routed out = RouteFns(split, RouteAssign, RouteOwner,
                                    RouteOptions(carry), nullptr);
        ExpectRouteMatches(out, RouteReference(split, carry), side, label);
        // The consuming fill freed the staged list.
        EXPECT_EQ(out.staged.instances.capacity(), 0u) << label;
      }
    }
  }
}

TEST(RouteSplitTest, RoutingErrorsNameTheLowestOffendingIndex) {
  // Every point of RouteDataset lies inside these (closed) bounds.
  const Rect bounds{0.0, -3000.0, 1500.0, 0.0};
  enum class Fault { kNonFinite, kOutside, kNoPartition, kBadOwner };
  const auto message = [](Fault fault, size_t i) {
    const std::string at =
        std::string(" in dataset 'R' at index ").append(std::to_string(i));
    switch (fault) {
      case Fault::kNonFinite:
        return std::string("non-finite coordinate").append(at);
      case Fault::kOutside:
        return std::string("point outside declared bounds").append(at).append(
            ": (1600.000000, -1.000000) not in [0.000000, 1500.000000] x "
            "[-3000.000000, 0.000000]");
      case Fault::kNoPartition:
        return std::string("assign returned no partition").append(at);
      case Fault::kBadOwner:
        return std::string("owner placed partition 99 on worker 6, outside "
                           "[0, 6)")
            .append(at);
    }
    return std::string();
  };
  // The split is [200, 1800): two offenders, reported at the lower index,
  // or one on the split's last tuple.
  const std::vector<std::vector<size_t>> offenders = {{1300, 900}, {1799}};
  for (const Fault fault : {Fault::kNonFinite, Fault::kOutside,
                            Fault::kNoPartition, Fault::kBadOwner}) {
    for (const std::vector<size_t>& bad : offenders) {
      for (const bool carry : {true, false}) {
        Dataset d = RouteDataset(2000);
        const auto offends = [&bad](int64_t id) {
          return std::find(bad.begin(), bad.end(), static_cast<size_t>(id)) !=
                 bad.end();
        };
        for (const size_t i : bad) {
          if (fault == Fault::kNonFinite) {
            d.tuples[i].pt.y = std::numeric_limits<double>::quiet_NaN();
          } else if (fault == Fault::kOutside) {
            d.tuples[i].pt = Point{1600.0, -1.0};
          }
        }
        const AssignFn assign = [&](const Tuple& t, Side side) {
          PartitionList parts = RouteAssign(t, side);
          if (offends(t.id) && fault == Fault::kNoPartition) {
            return PartitionList();
          }
          if (offends(t.id) && fault == Fault::kBadOwner) parts.push_back(99);
          return parts;
        };
        const OwnerFn owner = [](PartitionId p) {
          return p == 99 ? kRouteWorkers : RouteOwner(p);
        };
        EngineOptions options = RouteOptions(carry);
        options.bounds = bounds;
        const Routed out =
            RouteFns(MapSplit{&d, Side::kR, 200, 1800, 0}, assign, owner,
                     options, nullptr);
        const size_t lowest = *std::min_element(bad.begin(), bad.end());
        EXPECT_EQ(out.staged.error.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(out.staged.error.message(), message(fault, lowest))
            << static_cast<int>(fault) << " carry=" << carry;
      }
    }
  }
}

TEST(RouteSplitTest, AnErrorBeforeANonFinitePointOfItsBlockIsReported) {
  // Rows 10 and 20 share the split's first router block. Row 10 has no
  // partition or an owner outside [0, workers), row 20 a non-finite point:
  // the task reports row 10 with the message a lone offender gets, and the
  // router never sees row 20 or any row after it.
  for (const bool no_partition : {false, true}) {
    Dataset d = RouteDataset(300);
    d.tuples[20].pt.x = std::numeric_limits<double>::quiet_NaN();
    int64_t last_seen = -1;
    const AssignFn assign = [&](const Tuple& t, Side side) {
      last_seen = std::max(last_seen, t.id);
      PartitionList parts = RouteAssign(t, side);
      if (t.id != 10) return parts;
      if (no_partition) return PartitionList();
      parts.push_back(99);
      return parts;
    };
    const OwnerFn owner = [](PartitionId p) {
      return p == 99 ? kRouteWorkers : RouteOwner(p);
    };
    const Routed out = RouteFns(MapSplit{&d, Side::kR, 0, 300, 0}, assign,
                                owner, RouteOptions(true), nullptr);
    EXPECT_EQ(out.staged.error.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out.staged.error.message(),
              std::string(no_partition ? "assign returned no partition"
                                       : "owner placed partition 99 on "
                                         "worker 6, outside [0, 6)")
                  .append(" in dataset 'R' at index 10"));
    EXPECT_EQ(last_seen, 19);
  }
}

TEST(RouteSplitTest, LongPartitionListsSplitTheRouterBlock) {
  // 600 partitions per tuple: three tuples fill a block, so the fourth
  // opens the next one and is assigned again. A tuple with more partitions
  // than a block holds is rejected.
  const Dataset d = RouteDataset(10);
  const auto wide = [](size_t n) {
    return [n](const Tuple& t, Side) {
      PartitionList parts;
      for (size_t j = 0; j < n; ++j) {
        parts.push_back(static_cast<PartitionId>(t.id * 1000) +
                        static_cast<PartitionId>(j));
      }
      return parts;
    };
  };
  const OwnerFn owner = RouteOwner;
  const Routed out = RouteFns(MapSplit{&d, Side::kR, 0, 10, 0}, wide(600),
                              owner, RouteOptions(false), nullptr);
  ASSERT_TRUE(out.staged.error.ok()) << out.staged.error.ToString();
  EXPECT_EQ(out.staged.shuffled_tuples, 6000u);
  EXPECT_EQ(out.staged.replicated, 5990u);
  for (const ShuffleBlock& block : out.filled.by_worker) {
    for (size_t k = 1; k < block.size(); ++k) {
      EXPECT_LT(block.part[k - 1], block.part[k]);  // (row, replica) order
    }
  }
  const Routed too_wide =
      RouteFns(MapSplit{&d, Side::kR, 0, 10, 0},
               wide(RoutedBlock::kMaxInstances + 1), owner,
               RouteOptions(false), nullptr);
  EXPECT_EQ(too_wide.staged.error.message(),
            "assign returned more than 2048 partitions in dataset 'R' at "
            "index 0");
}

TEST(RouteSplitTest, CancelInEitherPassStopsAtItsPollAndLeavesNoStaleStaging) {
  // The split is 2500 tuples: the route polls after tuples 1024 and 2048,
  // the fill after every 1024 instances. A cancel fired on a middle tuple
  // stops the route at its first poll; one fired on the split's last tuple
  // lets the route finish and stops the fill at its first poll. A fill cut
  // short leaves its staged list whole even when it consumes, so the fill
  // can run again from it on the same scratch; and a rerun of the task
  // writes what an uncancelled run writes.
  const Dataset d = RouteDataset(3000);
  const MapSplit split{&d, Side::kR, 450, 2950, 2};
  for (const bool carry : {true, false}) {
    const ReferenceRoute want = RouteReference(split, carry);
    for (const size_t cancel_at : {size_t{460}, size_t{2949}}) {
      CancellationSource source;
      const CancellationToken token = source.token();
      std::atomic<uint64_t> progress{0};
      const spatial::KernelCancellation cancel{&token, &progress};
      const AssignFn assign = [&](const Tuple& t, Side side) {
        if (static_cast<size_t>(t.id) == cancel_at) {
          source.Cancel(StatusCode::kCancelled, "test");
        }
        return RouteAssign(t, side);
      };
      Routed partial = RouteFns(split, assign, RouteOwner,
                                RouteOptions(carry), &cancel);
      EXPECT_TRUE(partial.staged.error.ok());
      EXPECT_TRUE(partial.filled.by_worker.empty());
      const bool in_route = cancel_at < 2949;
      FillScratch scratch;
      if (in_route) {
        EXPECT_EQ(progress.load(), 1024u);
      } else {
        // The route finished; a fill under the fired token stops at its
        // first poll.
        EXPECT_EQ(progress.load(), 2500u);
        partial.filled = FillSplit(split, &partial.staged, nullptr,
                                   RouteOptions(carry), /*consume=*/true,
                                   &scratch, &cancel);
        EXPECT_EQ(progress.load(), 2500u + 1024u);
      }
      // The staged list stops where the route did.
      size_t staged = 0;
      for (size_t row = split.begin;
           row < (in_route ? split.begin + 1024 : split.end); ++row) {
        staged += RouteAssign(d.tuples[row], Side::kR).size();
      }
      EXPECT_EQ(partial.staged.instances.size(), staged);
      // A fill cut short reports no instances and no bytes, the counters
      // its task span reads.
      EXPECT_EQ(partial.filled.instances, 0u);
      EXPECT_EQ(partial.filled.block_bytes, 0u);
      const std::string label =
          std::string("rerun after ").append(std::to_string(cancel_at));
      if (!in_route) {
        // The fill again, from the list and the scratch the cut-short
        // fill left.
        partial.filled = FillSplit(split, &partial.staged, nullptr,
                                   RouteOptions(carry), /*consume=*/true,
                                   &scratch, nullptr);
        ExpectRouteMatches(partial, want, Side::kR, label + " (fill)");
      }
      // The rerun of the whole task, not cancelled.
      ExpectRouteMatches(RouteFns(split, RouteAssign, RouteOwner,
                                  RouteOptions(carry), nullptr),
                         want, Side::kR, label);
    }
  }
}

/// R and S splits of one dataset whose partitions overlap only in part:
/// every R tuple reaches partitions 0 to 4, every S tuple 3 to 7.
PartitionList HalfOverlapAssign(const Tuple& t, Side side) {
  PartitionList out;
  const PartitionId base = side == Side::kR ? 0 : 3;
  out.push_back(base + static_cast<PartitionId>(t.id % 5));
  if (t.id % 3 == 0) {
    out.push_back(base + static_cast<PartitionId>((t.id + 2) % 5));
  }
  return out;
}

TEST(FillSplitTest, ShipsOnlyPartitionsTheOtherSideReaches) {
  // The routes mark what each side reaches in one ReachSet per "thread";
  // their union is the job's. Each fill then writes only the instances of
  // partitions 3 and 4, which both sides reach, in (row, replica) order,
  // while the routed counters still count every instance.
  const Dataset d = RouteDataset(3000);
  const AssignFn assign = HalfOverlapAssign;
  const OwnerFn owner = RouteOwner;
  const FnRouter router(assign, owner, /*partition_count=*/8);
  for (const bool carry : {true, false}) {
    const EngineOptions options = RouteOptions(carry);
    const MapSplit r_split{&d, Side::kR, 0, 1700, 0};
    const MapSplit s_split{&d, Side::kS, 1700, 3000, 1};
    ReachSet reach_a;
    ReachSet reach_b;
    reach_a.Reset(8);
    reach_b.Reset(8);
    StagedSplit r_staged = RouteSplit(r_split, router, options, &reach_a,
                                      nullptr);
    StagedSplit s_staged = RouteSplit(s_split, router, options, &reach_b,
                                      nullptr);
    ASSERT_TRUE(r_staged.error.ok() && s_staged.error.ok());
    ReachSet reach;
    reach.Union(std::move(reach_a));
    reach.Union(std::move(reach_b));
    for (PartitionId p = 0; p < 8; ++p) {
      EXPECT_EQ(reach.Reaches(Side::kR, p), p <= 4) << p;
      EXPECT_EQ(reach.Reaches(Side::kS, p), p >= 3) << p;
    }
    for (const MapSplit* split : {&r_split, &s_split}) {
      StagedSplit& staged = split->side == Side::kR ? r_staged : s_staged;
      Routed out;
      out.staged = staged;
      FillScratch scratch;
      out.filled = FillSplit(*split, &staged, &reach, options,
                             /*consume=*/false, &scratch, nullptr);
      EXPECT_EQ(staged.instances.size(), out.staged.instances.size());
      for (const ShuffleBlock& block : out.filled.by_worker) {
        EXPECT_TRUE(block.joinable_only);
      }
      // The reference of HalfOverlapAssign, built like RouteReference's.
      ReferenceRoute want;
      want.blocks.resize(kRouteWorkers);
      for (size_t row = split->begin; row < split->end; ++row) {
        const Tuple& t = d.tuples[row];
        const PartitionList parts = HalfOverlapAssign(t, split->side);
        for (size_t k = 0; k < parts.size(); ++k) {
          const PartitionId p = parts[k];
          const uint64_t bytes =
              kTupleHeaderBytes + (carry ? t.payload.size() : 0);
          ++want.counters.shuffled_tuples;
          want.counters.shuffle_bytes += bytes;
          if (RouteOwner(p) != split->home) {
            want.counters.remote_bytes += bytes;
          }
          if (p < 3 || p > 4) continue;
          ReferenceBlock& b = want.blocks[static_cast<size_t>(RouteOwner(p))];
          b.part.push_back(p);
          b.x.push_back(t.pt.x);
          b.y.push_back(t.pt.y);
          b.id.push_back(t.id);
          if (carry) {
            b.arena += t.payload;
            b.payload_end.push_back(b.arena.size());
          }
        }
        want.counters.replicated += parts.size() - 1;
      }
      for (ReferenceBlock& b : want.blocks) {
        if (b.arena.empty()) b.payload_end.clear();
      }
      ExpectRouteMatches(out, want, split->side,
                         std::string(carry ? "carried " : "bare ")
                             .append(split->side == Side::kR ? "R" : "S"));
      EXPECT_LT(out.filled.instances, out.staged.shuffled_tuples);
    }
  }
}

TEST(FillSplitTest, OnlyAConsumingFillFreesItsStagedList) {
  const Dataset d = RouteDataset(500);
  const MapSplit split{&d, Side::kR, 0, 500, 0};
  const EngineOptions options = RouteOptions(true);
  StagedSplit staged = RouteSplit(split, FnRouter(RouteAssign, RouteOwner),
                                  options, nullptr, nullptr);
  ASSERT_TRUE(staged.error.ok());
  const size_t n = staged.instances.size();
  FillScratch scratch;
  const MapTaskOutput kept =
      FillSplit(split, &staged, nullptr, options, /*consume=*/false, &scratch,
                nullptr);
  EXPECT_EQ(staged.instances.size(), n);
  EXPECT_GE(staged.instances.capacity(), n);
  const MapTaskOutput freed =
      FillSplit(split, &staged, nullptr, options, /*consume=*/true, &scratch,
                nullptr);
  EXPECT_EQ(staged.instances.capacity(), 0u);
  EXPECT_EQ(freed.instances, kept.instances);
  EXPECT_EQ(freed.block_bytes, kept.block_bytes);
}

TEST(RouteSplitTest, APartitionOutsideTheDeclaredRangeIsAnError) {
  // HalfOverlapAssign reaches partition 7 on S, outside a range of 7.
  const Dataset d = RouteDataset(100);
  const AssignFn assign = HalfOverlapAssign;
  const OwnerFn owner = RouteOwner;
  const FnRouter router(assign, owner, /*partition_count=*/7);
  ReachSet reach;
  reach.Reset(7);
  const StagedSplit r = RouteSplit(MapSplit{&d, Side::kR, 0, 100, 0}, router,
                                   RouteOptions(false), &reach, nullptr);
  EXPECT_TRUE(r.error.ok()) << r.error.ToString();
  const StagedSplit s = RouteSplit(MapSplit{&d, Side::kS, 0, 100, 0}, router,
                                   RouteOptions(false), &reach, nullptr);
  EXPECT_EQ(s.error.message(),
            "assign returned partition 7, outside the router's range [0, 7) "
            "in dataset 'R' at index 4");
}

TEST(RouteSplitTest, CancelledMapOutputIsNeverCommitted) {
  // Through the engine, on both executors: a cancel fired while a map task
  // routes a middle tuple, or its split's last tuple, fails the run with
  // the token's status and publishes nothing.
  const Dataset r = RouteDataset(3000);
  Dataset s = RouteDataset(3000);
  s.name = "S";
  for (const bool fault : {false, true}) {
    for (const int64_t cancel_at : {int64_t{40}, int64_t{1499}}) {
      CancellationSource source;
      EngineOptions options = RouteOptions(true);
      options.eps = 1.0;
      options.num_splits = 2;  // R's first split is [0, 1500)
      options.physical_threads = 2;
      options.collect_results = true;
      options.cancel = source.token();
      options.fault.enabled = fault;
      const AssignFn assign = [&](const Tuple& t, Side side) {
        if (side == Side::kR && t.id == cancel_at) {
          source.Cancel(StatusCode::kCancelled, "test");
        }
        return RouteAssign(t, side);
      };
      const Result<JoinRun> run =
          TryRunPartitionedJoin(r, s, assign, RouteOwner, options);
      ASSERT_FALSE(run.ok()) << "fault=" << fault << " at " << cancel_at;
      EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    }
  }
}

}  // namespace
}  // namespace pasjoin::exec
