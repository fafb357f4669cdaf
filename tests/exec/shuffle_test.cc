// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's columnar shuffle (exec/shuffle.h): payload bytes
// travel byte-exact through a block, and regroup is the stable sort of a
// worker's inbound blocks into runs of the partitions both sides reach, for
// any partition ids — negative, sparse and extreme ones included.
#include "exec/shuffle.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
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

TEST(ShuffleBlockTest, PayloadBytesReadBackByteExact) {
  ShuffleBlock block(Side::kS, /*carry=*/true);
  uint64_t bytes = 0;
  uint64_t arena = 0;
  for (int64_t id = 40; id < 52; ++id) {
    const Tuple t = MakeTuple(id);
    const uint64_t sent = block.Append(static_cast<PartitionId>(id % 5), t);
    EXPECT_EQ(sent, kTupleHeaderBytes + t.payload.size());
    bytes += sent;
    arena += t.payload.size();
  }
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
  // The bytes live in the one arena, not in per-instance strings.
  EXPECT_EQ(block.payload_bytes.size(), arena);
  EXPECT_EQ(bytes, kTupleHeaderBytes * block.size() + arena);
}

TEST(ShuffleBlockTest, UncarriedPayloadsAreNeitherCopiedNorCounted) {
  ShuffleBlock block(Side::kR, /*carry=*/false);
  EXPECT_EQ(block.Append(3, MakeTuple(5)), kTupleHeaderBytes);
  EXPECT_TRUE(block.payload_bytes.empty());
  EXPECT_TRUE(block.Payload(0).empty());
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
      ShuffleBlock block(side, /*carry=*/true);
      // Some blocks stay empty, as for a worker a split sends nothing to.
      const size_t n = b % 3 == 1 ? 0 : spec.rows;
      for (size_t i = 0; i < n; ++i, ++id) {
        const PartitionId part = spec.parts[rng.NextBounded(spec.parts.size())];
        block.Append(part, MakeTuple(id));
      }
      blocks.push_back(std::move(block));
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
    ShuffleBlock block(side, /*carry=*/false);
    for (const PartitionId p : parts) block.Append(p, MakeTuple(id++));
    blocks.push_back(std::move(block));
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

}  // namespace
}  // namespace pasjoin::exec
