// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's columnar shuffle (exec/shuffle.h): payload bytes
// travel byte-exact through a block; the map writes each block at its final
// size, equal to a per-instance reference, with the routing errors and
// cancellation of the engine; the reach set marks any non-negative id; the
// barrier numbers only the partitions both sides reach, ascending per
// worker, whatever thread marked them; the fill ships only those, each with
// its run; and regroup is the stable sort of a worker's inbound blocks into
// partition runs, for sparse and extreme partition ids too.
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
                       const std::vector<std::pair<uint32_t, Tuple>>&
                           instances) {
  size_t arena = 0;
  for (const auto& [run, t] : instances) arena += t.payload.size();
  ShuffleBlock block(side);
  block.Allocate(instances.size(), carry ? arena : 0);
  for (size_t i = 0; i < instances.size(); ++i) {
    block.Put(i, instances[i].first, instances[i].second);
  }
  return block;
}

TEST(ShuffleBlockTest, PayloadBytesReadBackByteExact) {
  std::vector<std::pair<uint32_t, Tuple>> instances;
  uint64_t arena = 0;
  for (int64_t id = 40; id < 52; ++id) {
    instances.emplace_back(static_cast<uint32_t>(id % 5), MakeTuple(id));
    arena += instances.back().second.payload.size();
  }
  const ShuffleBlock block = MakeBlock(Side::kS, /*carry=*/true, instances);
  ASSERT_EQ(block.size(), 12u);
  for (size_t i = 0; i < block.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i) + 40;
    EXPECT_EQ(block.run[i], static_cast<uint32_t>(id % 5));
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

/// One block's instances as a route stages them: its side and each
/// instance's partition and tuple.
struct DrawnBlock {
  Side side = Side::kR;
  std::vector<std::pair<PartitionId, Tuple>> instances;
};

/// One worker's inbound blocks, as the fill writes them, and the worker's
/// joinable partitions in ascending id: run k of the blocks joins parts[k].
struct Inbound {
  std::vector<ShuffleBlock> blocks;
  std::vector<PartitionId> parts;
};

/// The blocks the fill writes from `drawn` for a worker that owns every
/// partition: an instance whose partition the other side never draws is
/// dropped, and the rest carry their partition's run, its rank among the
/// partitions both sides draw.
Inbound FillForOneWorker(const std::vector<DrawnBlock>& drawn) {
  std::set<PartitionId> reached[2];
  for (const DrawnBlock& block : drawn) {
    for (const auto& [part, t] : block.instances) {
      reached[static_cast<int>(block.side)].insert(part);
    }
  }
  Inbound in;
  std::set_intersection(reached[0].begin(), reached[0].end(),
                        reached[1].begin(), reached[1].end(),
                        std::back_inserter(in.parts));
  for (const DrawnBlock& block : drawn) {
    std::vector<std::pair<uint32_t, Tuple>> kept;
    for (const auto& [part, t] : block.instances) {
      const auto at = std::lower_bound(in.parts.begin(), in.parts.end(), part);
      if (at == in.parts.end() || *at != part) continue;
      kept.emplace_back(static_cast<uint32_t>(at - in.parts.begin()), t);
    }
    in.blocks.push_back(MakeBlock(block.side, /*carry=*/true, kept));
  }
  return in;
}

/// What one side of RandomDraw sends: `rows` instances per non-empty
/// block, with partitions drawn from `parts`.
struct SideSpec {
  std::vector<PartitionId> parts;
  size_t rows = 0;
};

/// Random blocks in map-task order (every R block before every S block),
/// `blocks_per_side` per side. Ids start at `first_id`.
std::vector<DrawnBlock> RandomDraw(const SideSpec& r, const SideSpec& s,
                                   size_t blocks_per_side, uint64_t seed,
                                   int64_t first_id = 0) {
  Rng rng(seed);
  std::vector<DrawnBlock> drawn;
  int64_t id = first_id;
  for (const Side side : {Side::kR, Side::kS}) {
    const SideSpec& spec = side == Side::kR ? r : s;
    for (size_t b = 0; b < blocks_per_side; ++b) {
      DrawnBlock& block = drawn.emplace_back();
      block.side = side;
      // Some blocks stay empty, as for a worker a split sends nothing to.
      const size_t n = b % 3 == 1 ? 0 : spec.rows;
      for (size_t i = 0; i < n; ++i, ++id) {
        const PartitionId part = spec.parts[rng.NextBounded(spec.parts.size())];
        block.instances.emplace_back(part, MakeTuple(id));
      }
    }
  }
  return drawn;
}

/// FillForOneWorker of RandomDraw with both sides drawing `rows` instances
/// from `parts`.
Inbound RandomBlocks(const std::vector<PartitionId>& parts,
                     size_t blocks_per_side, size_t rows, uint64_t seed) {
  return FillForOneWorker(RandomDraw(SideSpec{parts, rows},
                                     SideSpec{parts, rows}, blocks_per_side,
                                     seed));
}

/// The blocks' instances in (block, row) order, each with the partition
/// of its run.
std::vector<Instance> Contents(const Inbound& in) {
  std::vector<Instance> all;
  for (const ShuffleBlock& block : in.blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      all.push_back(
          Instance{in.parts[block.run[i]], block.side, block.id[i]});
    }
  }
  return all;
}

/// The stable sort by partition of the blocks' concatenation.
std::vector<Instance> ReferenceOrder(const Inbound& in) {
  std::vector<Instance> all = Contents(in);
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

/// Regroups `in` without consuming it, polling `cancel`.
WorkerStore RegroupOf(Inbound* in,
                      const spatial::KernelCancellation* cancel = nullptr) {
  return Regroup(Pointers(&in->blocks), in->parts, /*consume=*/false, cancel);
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
    EXPECT_LT(run.begin, run.mid);
    EXPECT_LT(run.mid, run.end);
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

TEST(RegroupTest, StableRunsForSparsePartitionIds) {
  // The ids span 0, ~2^30 and 2^31 - 1: runs must ascend by id, and
  // nothing may be indexed by id.
  const std::vector<PartitionId> parts = {
      0, 1, 3, 7, 65536, 65537, 1 << 29, 1 << 30, (1 << 30) + 5,
      std::numeric_limits<PartitionId>::max()};
  for (const size_t rows : {size_t{20}, size_t{3000}}) {
    Inbound in = RandomBlocks(parts, 5, rows, rows);
    const WorkerStore store = RegroupOf(&in);
    ExpectStoreMatches(store, ReferenceOrder(in));
    EXPECT_EQ(store.runs.size(), parts.size()) << rows;
  }
}

/// The router of the numbering tests: `owner` places each partition; Route
/// is never called.
class OwnerRouter final : public Router {
 public:
  explicit OwnerRouter(std::function<int(PartitionId)> owner)
      : owner_(std::move(owner)) {}

  size_t Route(std::span<const Tuple> /*tuples*/, Side /*side*/,
               RoutedBlock* /*out*/) const override {
    ADD_FAILURE() << "the numbering routed a tuple";
    return 0;
  }
  int Owner(PartitionId p) const override { return owner_(p); }

 private:
  std::function<int(PartitionId)> owner_;
};

TEST(RegroupTest, CollidingIdsProbePastEachOther) {
  // 1024 ids, each once per side, numbered on one worker: probe sequences
  // of the numbering's table cross the entries of 0 and 2^31 - 1, which
  // must never read as empty, and regroup gets every run in id order.
  std::vector<PartitionId> parts = {0, 1,
                                    std::numeric_limits<PartitionId>::max()};
  Rng rng(23);
  while (parts.size() < 1024) {
    parts.push_back(static_cast<PartitionId>(
        static_cast<uint32_t>(rng.NextUint64()) >> 1));
  }
  ReachSet reach;
  for (const PartitionId p : parts) {
    reach.Mark(Side::kR, p);
    reach.Mark(Side::kS, p);
  }
  const Result<RunNumbering> numbering = RunNumbering::Build(
      reach, OwnerRouter([](PartitionId) { return 0; }), 1);
  ASSERT_TRUE(numbering.ok()) << numbering.status().ToString();
  Inbound in;
  const std::span<const PartitionId> numbered = numbering.value().Parts(0);
  in.parts.assign(numbered.begin(), numbered.end());
  std::vector<PartitionId> sorted = parts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  ASSERT_EQ(in.parts, sorted);
  int64_t id = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    std::vector<std::pair<uint32_t, Tuple>> instances;
    for (const PartitionId p : parts) {
      const RunNumbering::Slot slot = numbering.value().Find(p);
      EXPECT_EQ(slot.owner, 0);
      EXPECT_EQ(sorted[slot.run], p);
      instances.emplace_back(slot.run, MakeTuple(id++));
    }
    in.blocks.push_back(MakeBlock(side, /*carry=*/false, instances));
  }
  ExpectStoreMatches(RegroupOf(&in), ReferenceOrder(in));
}

TEST(RegroupTest, StoreIgnoresWhichSideIsSmallerAndBlockOrder) {
  // R sends more instances than S.
  const std::vector<PartitionId> parts = {0, 2, 5, 6, 9, 1 << 20};
  const std::vector<DrawnBlock> drawn =
      RandomDraw(SideSpec{parts, 200}, SideSpec{parts, 60}, 4, 3);
  Inbound in = FillForOneWorker(drawn);
  const WorkerStore base = RegroupOf(&in);
  ExpectStoreMatches(base, ReferenceOrder(in));

  // S blocks before R blocks: each side keeps its own block order.
  std::vector<DrawnBlock> s_first;
  for (const Side side : {Side::kS, Side::kR}) {
    for (const DrawnBlock& block : drawn) {
      if (block.side == side) s_first.push_back(block);
    }
  }
  Inbound reordered = FillForOneWorker(s_first);
  ExpectSameStore(RegroupOf(&reordered), base);

  // 1000 extra S instances in the partitions R reaches make S (1180) the
  // larger side against R (600): the store is still the reference sort.
  std::vector<DrawnBlock> larger_s = drawn;
  for (DrawnBlock& extra :
       RandomDraw(SideSpec{parts, 500}, SideSpec{parts, 500}, 3, 9,
                  /*first_id=*/100000)) {
    if (extra.side == Side::kS) larger_s.push_back(std::move(extra));
  }
  Inbound larger = FillForOneWorker(larger_s);
  ExpectStoreMatches(RegroupOf(&larger), ReferenceOrder(larger));
}

TEST(RegroupTest, RetainedBlocksRegroupIdentically) {
  // The lost-worker rebuild re-runs Regroup over the retained blocks and
  // the retained numbering: the blocks must be intact, and the second
  // store identical to the first.
  Inbound in = FillForOneWorker(RandomDraw(SideSpec{{0, 2, 3, 5, 1 << 25}, 90},
                                           SideSpec{{0, 2, 3, 4, 9}, 50}, 5,
                                           21));
  const std::vector<Instance> before = Contents(in);
  const WorkerStore first = RegroupOf(&in);
  const std::vector<Instance> after = Contents(in);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].part, before[i].part);
    EXPECT_EQ(after[i].side, before[i].side);
  }
  for (const ShuffleBlock& block : in.blocks) {
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(std::string(block.Payload(i)), ExpectedPayload(block.id[i]));
    }
  }
  ExpectSameStore(RegroupOf(&in), first);
}

TEST(RegroupTest, PollsEveryBlockOnce) {
  Inbound in = FillForOneWorker(
      RandomDraw(SideSpec{{1, 2, 3}, 25}, SideSpec{{1, 2, 3}, 40}, 4, 2));
  size_t n = 0;
  for (const ShuffleBlock& block : in.blocks) n += block.size();
  CancellationSource live;
  const CancellationToken live_token = live.token();
  std::atomic<uint64_t> progress{0};
  const spatial::KernelCancellation polled{&live_token, &progress};
  ExpectStoreMatches(RegroupOf(&in, &polled), ReferenceOrder(in));
  EXPECT_EQ(progress.load(), n);

  // A fired token stops the regroup at its first poll.
  CancellationSource fired;
  fired.Cancel(StatusCode::kCancelled, "test");
  const CancellationToken fired_token = fired.token();
  const spatial::KernelCancellation stopped{&fired_token, nullptr};
  const WorkerStore empty = RegroupOf(&in, &stopped);
  EXPECT_TRUE(empty.runs.empty());
  EXPECT_TRUE(empty.id.empty());
}

TEST(RegroupTest, ConsumingFreesInboundBlocks) {
  Inbound in = RandomBlocks({9, 3, 1 << 30}, 4, 50, 7);
  const std::vector<Instance> want = ReferenceOrder(in);
  const WorkerStore store =
      Regroup(Pointers(&in.blocks), in.parts, /*consume=*/true, nullptr);
  for (const ShuffleBlock& block : in.blocks) {
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
  const WorkerStore store =
      Regroup(Pointers(&blocks), {}, /*consume=*/true, nullptr);
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

/// 1 to 4 partitions per tuple, ids 0 to 22.
PartitionList RouteAssign(const Tuple& t, Side side) {
  PartitionList out;
  const int64_t k = 1 + (t.id + (side == Side::kS ? 1 : 0)) % 4;
  for (int64_t j = 0; j < k; ++j) {
    out.push_back(static_cast<PartitionId>((t.id * 7 + j * 5) % 23));
  }
  return out;
}

/// Several partitions per worker; workers 3 to 5 receive nothing.
int RouteOwner(PartitionId p) { return p % 3; }

/// Marks the side opposite `split`'s in `reach` for every partition
/// `staged` holds, so a fill of the split ships every staged instance.
void MarkOtherSide(const MapSplit& split, const StagedSplit& staged,
                   ReachSet* reach) {
  const Side other = split.side == Side::kR ? Side::kS : Side::kR;
  for (const StagedInstance& inst : staged.instances) {
    reach->Mark(other, inst.part);
  }
}

/// One map task's two phases: what the route staged, what it reached
/// (with the other side marked wherever this one is), the barrier's
/// numbering of that and what the fill wrote (nothing when the route
/// failed).
struct Routed {
  StagedSplit staged;
  ReachSet reach;
  RunNumbering numbering;
  MapTaskOutput filled;
};

/// RouteSplit through FnRouter(assign, owner) and, unless the route
/// failed, the barrier's numbering, then a consuming FillSplit that ships
/// every instance, unless the route was cancelled too.
Routed RouteFns(const MapSplit& split, const AssignFn& assign,
                const OwnerFn& owner, const EngineOptions& options,
                const spatial::KernelCancellation* cancel) {
  Routed out;
  const FnRouter router(assign, owner);
  out.staged = RouteSplit(split, router, options, &out.reach, cancel);
  if (!out.staged.error.ok()) return out;
  MarkOtherSide(split, out.staged, &out.reach);
  Result<RunNumbering> numbering =
      RunNumbering::Build(out.reach, router, options.workers);
  EXPECT_TRUE(numbering.ok()) << numbering.status().ToString();
  if (!numbering.ok()) return out;
  out.numbering = std::move(numbering).value();
  if (cancel == nullptr || !cancel->ShouldStop()) {
    FillScratch scratch;
    out.filled = FillSplit(split, &out.staged, out.reach, out.numbering,
                           options, /*consume=*/true, &scratch, cancel);
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
  std::vector<uint32_t> run;
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

/// The run of partition `p` when both sides reach the partitions of
/// `joinable`: its rank among the joinable partitions RouteOwner places
/// where it places `p`.
uint32_t ReferenceRun(PartitionId p, const std::set<PartitionId>& joinable) {
  uint32_t run = 0;
  for (const PartitionId q : joinable) {
    run += q < p && RouteOwner(q) == RouteOwner(p) ? 1 : 0;
  }
  return run;
}

/// The reference of `split` under `assign` and RouteOwner: the instances of
/// the partitions `joinable` holds are written, each with its
/// ReferenceRun; the counters count every routed instance.
ReferenceRoute RouteReference(const MapSplit& split, bool carry,
                              const AssignFn& assign,
                              const std::set<PartitionId>& joinable) {
  ReferenceRoute ref;
  ref.blocks.resize(kRouteWorkers);
  StagedSplit& c = ref.counters;
  for (size_t row = split.begin; row < split.end; ++row) {
    const Tuple& t = split.data->tuples[row];
    const PartitionList parts = assign(t, split.side);
    c.replicated += parts.size() - 1;
    for (size_t k = 0; k < parts.size(); ++k) {
      const int w = RouteOwner(parts[k]);
      const uint64_t bytes = kTupleHeaderBytes + (carry ? t.payload.size() : 0);
      c.shuffled_tuples += 1;
      c.shuffle_bytes += bytes;
      if (w != split.home) c.remote_bytes += bytes;
      if (!joinable.contains(parts[k])) continue;
      ReferenceBlock& b = ref.blocks[static_cast<size_t>(w)];
      b.run.push_back(ReferenceRun(parts[k], joinable));
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

/// The reference of `split` under RouteAssign and RouteOwner when the other
/// side reaches every partition the split reaches.
ReferenceRoute RouteReference(const MapSplit& split, bool carry) {
  std::set<PartitionId> reached;
  for (size_t row = split.begin; row < split.end; ++row) {
    const PartitionList parts =
        RouteAssign(split.data->tuples[row], split.side);
    for (size_t k = 0; k < parts.size(); ++k) reached.insert(parts[k]);
  }
  return RouteReference(split, carry, RouteAssign, reached);
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
    EXPECT_EQ(Plain(b.run), want.run) << where;
    EXPECT_EQ(Plain(b.x), want.x) << where;
    EXPECT_EQ(Plain(b.y), want.y) << where;
    EXPECT_EQ(Plain(b.id), want.id) << where;
    EXPECT_EQ(Plain(b.payload_end), want.payload_end) << where;
    EXPECT_EQ(std::string(b.payload_bytes.begin(), b.payload_bytes.end()),
              want.arena)
        << where;
    EXPECT_EQ(b.run.capacity(), b.run.size()) << where;
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
      EXPECT_LT(block.run[k - 1], block.run[k]);  // (row, replica) order
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
        partial.filled = FillSplit(split, &partial.staged, partial.reach,
                                   partial.numbering, RouteOptions(carry),
                                   /*consume=*/true, &scratch, &cancel);
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
        partial.filled = FillSplit(split, &partial.staged, partial.reach,
                                   partial.numbering, RouteOptions(carry),
                                   /*consume=*/true, &scratch, nullptr);
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
  const FnRouter router(assign, owner);
  for (const bool carry : {true, false}) {
    const EngineOptions options = RouteOptions(carry);
    const MapSplit r_split{&d, Side::kR, 0, 1700, 0};
    const MapSplit s_split{&d, Side::kS, 1700, 3000, 1};
    ReachSet reach_a;
    ReachSet reach_b;
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
    const Result<RunNumbering> numbering =
        RunNumbering::Build(reach, router, options.workers);
    ASSERT_TRUE(numbering.ok()) << numbering.status().ToString();
    for (const MapSplit* split : {&r_split, &s_split}) {
      StagedSplit& staged = split->side == Side::kR ? r_staged : s_staged;
      Routed out;
      out.staged = staged;
      FillScratch scratch;
      out.filled = FillSplit(*split, &staged, reach, numbering.value(),
                             options, /*consume=*/false, &scratch, nullptr);
      EXPECT_EQ(staged.instances.size(), out.staged.instances.size());
      ExpectRouteMatches(out,
                         RouteReference(*split, carry, assign, {3, 4}),
                         split->side,
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
  ReachSet reach;
  const AssignFn assign = RouteAssign;
  const OwnerFn owner = RouteOwner;
  const FnRouter router(assign, owner);
  StagedSplit staged = RouteSplit(split, router, options, &reach, nullptr);
  ASSERT_TRUE(staged.error.ok());
  MarkOtherSide(split, staged, &reach);
  const Result<RunNumbering> numbering =
      RunNumbering::Build(reach, router, options.workers);
  ASSERT_TRUE(numbering.ok()) << numbering.status().ToString();
  const size_t n = staged.instances.size();
  FillScratch scratch;
  const MapTaskOutput kept =
      FillSplit(split, &staged, reach, numbering.value(), options,
                /*consume=*/false, &scratch, nullptr);
  EXPECT_EQ(staged.instances.size(), n);
  EXPECT_GE(staged.instances.capacity(), n);
  EXPECT_EQ(kept.instances, n);
  const MapTaskOutput freed =
      FillSplit(split, &staged, reach, numbering.value(), options,
                /*consume=*/true, &scratch, nullptr);
  EXPECT_EQ(staged.instances.capacity(), 0u);
  EXPECT_EQ(freed.instances, kept.instances);
  EXPECT_EQ(freed.block_bytes, kept.block_bytes);
}

/// Routes `r_split` and `s_split` through FnRouter(assign, RouteOwner),
/// numbers the union of their reach sets, fills them against it and
/// regroups each worker's two inbound blocks: the map and regroup of one
/// job. Requires each store to be the reference sort of its blocks.
std::vector<WorkerStore> MapAndRegroup(const MapSplit& r_split,
                                       const MapSplit& s_split,
                                       const AssignFn& assign) {
  const EngineOptions options = RouteOptions(true);
  const OwnerFn owner = RouteOwner;
  const FnRouter router(assign, owner);
  ReachSet reach;
  std::vector<StagedSplit> staged;
  for (const MapSplit* split : {&r_split, &s_split}) {
    ReachSet mine;
    staged.push_back(RouteSplit(*split, router, options, &mine, nullptr));
    EXPECT_TRUE(staged.back().error.ok()) << staged.back().error.ToString();
    reach.Union(std::move(mine));
  }
  const Result<RunNumbering> numbering =
      RunNumbering::Build(reach, router, options.workers);
  EXPECT_TRUE(numbering.ok()) << numbering.status().ToString();
  if (!numbering.ok()) return {};
  std::vector<MapTaskOutput> filled;
  FillScratch fill_scratch;
  for (size_t t = 0; t < staged.size(); ++t) {
    filled.push_back(FillSplit(t == 0 ? r_split : s_split, &staged[t], reach,
                               numbering.value(), options, /*consume=*/true,
                               &fill_scratch, nullptr));
  }
  std::vector<WorkerStore> stores;
  for (int w = 0; w < kRouteWorkers; ++w) {
    Inbound in;
    for (MapTaskOutput& out : filled) {
      in.blocks.push_back(std::move(out.by_worker[static_cast<size_t>(w)]));
    }
    const std::span<const PartitionId> parts = numbering.value().Parts(w);
    in.parts.assign(parts.begin(), parts.end());
    const std::vector<Instance> want = ReferenceOrder(in);
    stores.push_back(Regroup(Pointers(&in.blocks), in.parts,
                             /*consume=*/true, nullptr));
    ExpectStoreMatches(stores.back(), want);
  }
  return stores;
}

TEST(RegroupTest, PartitionsWithAnEmptySideGetNoRun) {
  // R reaches 1 to 4 and 2^31 - 1, S reaches 0 and 3 to 6: the fill ships
  // only partitions 3 and 4, so regroup gets only runs of those, each on
  // its owner.
  const Dataset d = RouteDataset(1000);
  const AssignFn assign = [](const Tuple& t, Side side) {
    constexpr PartitionId kR[] = {1, 2, 3, 4,
                                  std::numeric_limits<PartitionId>::max()};
    constexpr PartitionId kS[] = {0, 3, 4, 5, 6};
    PartitionList out;
    out.push_back((side == Side::kR ? kR : kS)[t.id % 5]);
    return out;
  };
  const std::vector<WorkerStore> stores =
      MapAndRegroup(MapSplit{&d, Side::kR, 0, 600, 0},
                    MapSplit{&d, Side::kS, 600, 1000, 1}, assign);
  std::vector<PartitionId> parts;
  for (size_t w = 0; w < stores.size(); ++w) {
    for (const PartitionRun& run : stores[w].runs) {
      parts.push_back(run.part);
      EXPECT_EQ(RouteOwner(run.part), static_cast<int>(w));
    }
  }
  EXPECT_EQ(parts, (std::vector<PartitionId>{3, 4}));
}

TEST(RegroupTest, OneSidedInboundGivesAnEmptyStore) {
  // Only one side has tuples, so the fill ships nothing and every
  // worker's store is empty.
  const Dataset d = RouteDataset(300);
  for (const Side only : {Side::kR, Side::kS}) {
    const MapSplit some{&d, only, 0, 300, 0};
    const MapSplit none{&d, only == Side::kR ? Side::kS : Side::kR, 0, 0, 1};
    const std::vector<WorkerStore> stores =
        only == Side::kR ? MapAndRegroup(some, none, RouteAssign)
                         : MapAndRegroup(none, some, RouteAssign);
    for (const WorkerStore& store : stores) {
      EXPECT_TRUE(store.runs.empty());
      EXPECT_TRUE(store.id.empty());
      EXPECT_TRUE(store.x.empty());
    }
  }
}

TEST(ReachSetTest, MarksAcrossPageEdgesAndAtInt32Max) {
  constexpr PartitionId kMax = std::numeric_limits<PartitionId>::max();
  ReachSet reach;
  for (const PartitionId p : {4095, 4096, kMax}) reach.Mark(Side::kR, p);
  reach.Mark(Side::kS, 0);
  for (const PartitionId p : {4095, 4096, kMax}) {
    EXPECT_TRUE(reach.Reaches(Side::kR, p)) << p;
    EXPECT_FALSE(reach.Reaches(Side::kS, p)) << p;
  }
  for (const PartitionId p : {0, 4094, 4097, 8191, 8192, kMax - 1}) {
    EXPECT_FALSE(reach.Reaches(Side::kR, p)) << p;
  }
  EXPECT_TRUE(reach.Reaches(Side::kS, 0));
  reach.Reset();
  EXPECT_FALSE(reach.Reaches(Side::kR, kMax));
  EXPECT_FALSE(reach.Reaches(Side::kS, 0));
}

TEST(ReachSetTest, ReachesPastTheTableEndIsFalse) {
  // S's page table ends after partition 4095, R's has none: every id past
  // the end reads false, a negative one included.
  ReachSet reach;
  reach.Mark(Side::kS, 10);
  for (const PartitionId p :
       {-1, 0, 10, 4096, 1 << 20, std::numeric_limits<PartitionId>::max()}) {
    EXPECT_FALSE(reach.Reaches(Side::kR, p)) << p;
    EXPECT_EQ(reach.Reaches(Side::kS, p), p == 10) << p;
  }
  const ReachSet empty;
  EXPECT_FALSE(empty.Reaches(Side::kR, 0));
  EXPECT_FALSE(
      empty.Reaches(Side::kS, std::numeric_limits<PartitionId>::min()));
}

TEST(ReachSetTest, UnionTakesSetsOfAnySize) {
  // A short set (one page per side) and a long one (up to 2^31 - 1),
  // merged in both orders and with an empty set on either side.
  constexpr PartitionId kMax = std::numeric_limits<PartitionId>::max();
  const auto short_set = [] {
    ReachSet reach;
    reach.Mark(Side::kR, 1);
    reach.Mark(Side::kR, 70);
    reach.Mark(Side::kS, 2);
    return reach;
  };
  const auto long_set = [] {
    ReachSet reach;
    reach.Mark(Side::kR, 70);
    reach.Mark(Side::kR, kMax);
    reach.Mark(Side::kS, 5000);
    return reach;
  };
  const auto expect_union = [&](const ReachSet& reach, const char* label) {
    for (const PartitionId p : {1, 70, kMax}) {
      EXPECT_TRUE(reach.Reaches(Side::kR, p)) << label << " " << p;
    }
    for (const PartitionId p : {2, 5000}) {
      EXPECT_TRUE(reach.Reaches(Side::kS, p)) << label << " " << p;
    }
    for (const PartitionId p : {0, 2, 71, 5000, kMax - 1}) {
      EXPECT_FALSE(reach.Reaches(Side::kR, p)) << label << " " << p;
    }
    for (const PartitionId p : {1, 70, 4999, kMax}) {
      EXPECT_FALSE(reach.Reaches(Side::kS, p)) << label << " " << p;
    }
  };
  ReachSet short_first = short_set();
  short_first.Union(long_set());
  expect_union(short_first, "short first");
  ReachSet long_first = long_set();
  long_first.Union(short_set());
  expect_union(long_first, "long first");

  for (const bool empty_first : {true, false}) {
    const char* label = empty_first ? "empty first" : "empty last";
    ReachSet reach;
    if (empty_first) {
      reach.Union(short_set());
      reach.Union(long_set());
    } else {
      reach = short_set();
      reach.Union(long_set());
      reach.Union(ReachSet());
    }
    expect_union(reach, label);
  }
}

/// Requires `a` and `b` to give every partition of `parts` the same slot
/// and every worker of `workers` the same partition list.
void ExpectSameNumbering(const RunNumbering& a, const RunNumbering& b,
                         const std::vector<PartitionId>& parts, int workers,
                         const std::string& label) {
  for (const PartitionId p : parts) {
    EXPECT_EQ(a.Find(p).owner, b.Find(p).owner) << label << " " << p;
    EXPECT_EQ(a.Find(p).run, b.Find(p).run) << label << " " << p;
  }
  for (int w = 0; w < workers; ++w) {
    EXPECT_TRUE(std::ranges::equal(a.Parts(w), b.Parts(w)))
        << label << " worker " << w;
  }
}

TEST(RunNumberingTest, NumbersOnlyJoinablePartitionsAscendingPerWorker) {
  // Both sides reach 1, 5, 4096, 70000 and 2^31 - 1 (pages 0, 1, 17 and
  // the last); each side alone reaches others. Owners are p % 3 of four
  // workers: worker 3 owns nothing, and worker 0 only partition 0, which
  // S never reaches, so neither gets a joinable partition.
  constexpr PartitionId kMax = std::numeric_limits<PartitionId>::max();
  ReachSet reach;
  for (const PartitionId p : {0, 1, 5, 4095, 4096, 70000, kMax - 1, kMax}) {
    reach.Mark(Side::kR, p);
  }
  for (const PartitionId p : {1, 2, 5, 4096, 8191, 70000, kMax}) {
    reach.Mark(Side::kS, p);
  }
  const std::vector<PartitionId> joinable = {1, 5, 4096, 70000, kMax};
  EXPECT_EQ(reach.Joinable(), joinable);
  const Result<RunNumbering> numbering = RunNumbering::Build(
      reach, OwnerRouter([](PartitionId p) { return p % 3; }), 4);
  ASSERT_TRUE(numbering.ok()) << numbering.status().ToString();
  const RunNumbering& n = numbering.value();
  const std::vector<std::vector<PartitionId>> want = {
      {}, {1, 4096, 70000, kMax}, {5}, {}};
  for (int w = 0; w < 4; ++w) {
    const std::span<const PartitionId> parts = n.Parts(w);
    EXPECT_EQ(std::vector<PartitionId>(parts.begin(), parts.end()),
              want[static_cast<size_t>(w)])
        << "worker " << w;
    for (size_t k = 0; k < parts.size(); ++k) {
      EXPECT_EQ(n.Find(parts[k]).owner, w) << parts[k];
      EXPECT_EQ(n.Find(parts[k]).run, k) << parts[k];
    }
  }
  // Nothing reached gives nothing to number.
  const Result<RunNumbering> empty = RunNumbering::Build(
      ReachSet(), OwnerRouter([](PartitionId) { return 0; }), 2);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().Parts(0).empty());
  EXPECT_TRUE(empty.value().Parts(1).empty());
}

TEST(RunNumberingTest, DoesNotDependOnWhichThreadMarkedWhichPage) {
  // The same marks spread over 1 to 5 "threads" at random, merged in both
  // orders, number the same: the numbering reads only the union.
  Rng rng(41);
  std::vector<std::pair<Side, PartitionId>> marks;
  for (int i = 0; i < 3000; ++i) {
    marks.emplace_back(rng.NextBounded(2) == 0 ? Side::kR : Side::kS,
                       static_cast<PartitionId>(rng.NextBounded(10000)));
  }
  marks.emplace_back(Side::kR, std::numeric_limits<PartitionId>::max());
  marks.emplace_back(Side::kS, std::numeric_limits<PartitionId>::max());
  const OwnerRouter router([](PartitionId p) { return (p / 7) % 5; });
  ReachSet one;
  for (const auto& [side, p] : marks) one.Mark(side, p);
  const std::vector<PartitionId> joinable = one.Joinable();
  ASSERT_GT(joinable.size(), 100u);
  const Result<RunNumbering> want = RunNumbering::Build(one, router, 5);
  ASSERT_TRUE(want.ok());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
    for (const bool reversed : {false, true}) {
      std::vector<ReachSet> mine(threads);
      for (const auto& [side, p] : marks) {
        mine[rng.NextBounded(threads)].Mark(side, p);
      }
      if (reversed) std::reverse(mine.begin(), mine.end());
      ReachSet reach;
      for (ReachSet& set : mine) reach.Union(std::move(set));
      EXPECT_EQ(reach.Joinable(), joinable);
      const Result<RunNumbering> got = RunNumbering::Build(reach, router, 5);
      ASSERT_TRUE(got.ok());
      ExpectSameNumbering(got.value(), want.value(), joinable, 5,
                          std::to_string(threads) +
                              (reversed ? " reversed" : ""));
    }
  }
}

TEST(RunNumberingTest, AnOwnerOutsideTheWorkersIsAnError) {
  // Partitions 3 and 9 are joinable and placed outside [0, 4): the error
  // names the lower one. A partition only one side reaches is never asked.
  ReachSet reach;
  for (const PartitionId p : {1, 3, 9, 12}) reach.Mark(Side::kR, p);
  for (const PartitionId p : {1, 3, 9}) reach.Mark(Side::kS, p);
  for (const int bad : {4, -1}) {
    const Result<RunNumbering> numbering = RunNumbering::Build(
        reach, OwnerRouter([bad](PartitionId p) {
          EXPECT_NE(p, 12);
          return p == 3 || p == 9 ? bad : 0;
        }),
        4);
    ASSERT_FALSE(numbering.ok());
    EXPECT_EQ(numbering.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(numbering.status().message(),
              std::string("owner placed partition 3 on worker ")
                  .append(std::to_string(bad))
                  .append(", outside [0, 4)"));
  }
}

TEST(RouteSplitTest, ANegativePartitionIdIsAnError) {
  // Rows 30 and 70 of the split are routed to a negative partition, row 70
  // natively and row 30 as a replica after partition 0: the task names row
  // 30, and no negative id is marked.
  const Dataset d = RouteDataset(100);
  const AssignFn assign = [](const Tuple& t, Side side) {
    PartitionList parts = RouteAssign(t, side);
    if (t.id == 30) parts.push_back(-1);
    if (t.id == 70) parts[0] = std::numeric_limits<PartitionId>::min();
    return parts;
  };
  const OwnerFn owner = [](PartitionId p) { return p < 0 ? 0 : p % 3; };
  for (const Side side : {Side::kR, Side::kS}) {
    ReachSet reach;
    const StagedSplit out =
        RouteSplit(MapSplit{&d, side, 10, 100, 0}, FnRouter(assign, owner),
                   RouteOptions(false), &reach, nullptr);
    EXPECT_EQ(out.error.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out.error.message(),
              "assign returned negative partition -1 in dataset 'R' at index "
              "30");
    EXPECT_FALSE(reach.Reaches(side, -1));
    EXPECT_TRUE(reach.Reaches(side, RouteAssign(d.tuples[29], side)[0]));
  }
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
