// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's columnar shuffle (exec/shuffle.h): payload bytes
// travel byte-exact through a block, and regroup is the stable sort of a
// worker's inbound blocks into partition runs for any partition ids —
// negative and sparse ones included.
#include "exec/shuffle.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

/// Random blocks in map-task order (every R block before every S block),
/// with partitions drawn from `parts`.
std::vector<ShuffleBlock> RandomBlocks(const std::vector<PartitionId>& parts,
                                       size_t blocks_per_side, size_t rows,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<ShuffleBlock> blocks;
  int64_t id = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    for (size_t b = 0; b < blocks_per_side; ++b) {
      ShuffleBlock block(side, /*carry=*/true);
      // Some blocks stay empty, as for a worker a split sends nothing to.
      const size_t n = b % 3 == 1 ? 0 : rows;
      for (size_t i = 0; i < n; ++i, ++id) {
        const PartitionId part = parts[rng.NextBounded(parts.size())];
        block.Append(part, MakeTuple(id));
      }
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

/// The stable sort by partition of the blocks' concatenation.
std::vector<Instance> ReferenceOrder(const std::vector<ShuffleBlock>& blocks) {
  std::vector<Instance> all;
  for (const ShuffleBlock& block : blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      all.push_back(Instance{block.part[i], block.side, block.id[i]});
    }
  }
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

TEST(RegroupTest, StableRunsForNegativeAndSparsePartitionIds) {
  // The ids span both signs and ~2^30: runs must ascend as signed values,
  // and nothing may be indexed by id.
  const std::vector<PartitionId> parts = {
      -(1 << 30), -65537, -7, -1, 0, 3, 65536, 1 << 29, (1 << 30) + 5};
  for (const size_t rows : {size_t{20}, size_t{3000}}) {
    std::vector<ShuffleBlock> blocks = RandomBlocks(parts, 5, rows, rows);
    const std::vector<Instance> want = ReferenceOrder(blocks);
    const std::vector<ShuffleBlock*> inbound = Pointers(&blocks);
    RegroupScratch scratch;
    const WorkerStore store =
        Regroup(inbound, /*consume=*/false, &scratch, nullptr);
    ExpectStoreMatches(store, want);
    EXPECT_EQ(store.runs.size(), parts.size()) << rows;
    // Not consumed: the blocks are intact for a rebuild.
    EXPECT_EQ(ReferenceOrder(blocks).size(), want.size());
  }
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
