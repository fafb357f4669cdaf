// Copyright 2026 The pasjoin Authors.
#include "baselines/sedona_like.h"

#include <algorithm>
#include <vector>

#include "spatial/quadtree.h"

namespace pasjoin::baselines {

Result<exec::JoinRun> SedonaLikeDistanceJoin(const Dataset& r, const Dataset& s,
                                             const SedonaOptions& options) {
  // The set with the fewest objects is both sampled for the partitioning
  // structure and replicated (Section 7.1); the other set is indexed, which
  // is the engine's R-tree kernel's own choice (S unless |R| > |S|).
  const Side replicated = r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS;
  core::Sampling sampling{options.sample_rate, {}};
  sampling.seed[static_cast<int>(replicated)] = options.sample_seed;
  Result<core::Driver> admitted = core::Driver::Admit(r, s, options, sampling);
  if (!admitted.ok()) return admitted.status();
  core::Driver& driver = admitted.value();

  // The sample dies with the tree's construction, before the engine runs.
  const spatial::QuadTreePartitioner partitioner = [&] {
    const std::vector<Point> sample = driver.TakeSample(replicated);
    // About four leaves per worker (admission caps workers, so the product
    // cannot overflow).
    spatial::QuadTreeOptions quadtree;
    quadtree.max_items_per_node = std::max<int>(
        1, static_cast<int>(sample.size()) / (4 * options.workers));
    obs::ScopedSpan span(driver.trace(), "driver-quadtree", "driver");
    span.AddArg("sample_points", static_cast<int64_t>(sample.size()));
    return spatial::QuadTreePartitioner(driver.space(), sample, quadtree);
  }();

  const double eps = options.eps;
  exec::AssignFn assign = [&partitioner, replicated, eps](const Tuple& t,
                                                          Side side) {
    exec::PartitionList out;
    if (side != replicated) {
      out.push_back(partitioner.PartitionOf(t.pt));
      return out;
    }
    const Rect envelope{t.pt.x - eps, t.pt.y - eps, t.pt.x + eps, t.pt.y + eps};
    const SmallVector<int32_t, 8> leaves =
        partitioner.PartitionsIntersecting(envelope);
    // Native leaf first, then the replicas.
    const int32_t native = partitioner.PartitionOf(t.pt);
    out.push_back(native);
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] != native) out.push_back(leaves[i]);
    }
    return out;
  };

  const exec::OwnerFn owner =
      core::CellAssignment::Hash(options.workers).AsOwnerFn();
  return driver.Run(r, s,
                    exec::FnRouter(assign, owner,
                                   partitioner.num_partitions()),
                    "Sedona");
}

}  // namespace pasjoin::baselines
