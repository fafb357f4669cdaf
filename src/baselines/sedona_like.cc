// Copyright 2026 The pasjoin Authors.
#include "baselines/sedona_like.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vector.h"
#include "core/lpt_scheduler.h"
#include "spatial/quadtree.h"

namespace pasjoin::baselines {

namespace {

/// The Sedona-like join's router: a tuple of the replicated side goes to
/// its native leaf, then to every other leaf its eps-envelope intersects;
/// any other tuple goes to its native leaf. Each leaf's owner comes from
/// `placement`, with no type-erased call per tuple or per instance. The
/// partitioner and the placement must outlive the router.
class QuadTreeRouter final : public exec::Router {
 public:
  QuadTreeRouter(const spatial::QuadTreePartitioner* partitioner,
                 const core::CellAssignment* placement, Side replicated,
                 double eps)
      : partitioner_(partitioner),
        placement_(placement),
        replicated_(replicated),
        eps_(eps) {}

  size_t Route(std::span<const Tuple> tuples, Side side,
               exec::RoutedBlock* out) const override {
    size_t end = 0;
    size_t k = 0;
    for (; k < tuples.size(); ++k) {
      const Point pt = tuples[k].pt;
      const int32_t native = partitioner_->PartitionOf(pt);
      if (side == replicated_) {
        const SmallVector<int32_t, 8> leaves =
            partitioner_->PartitionsIntersecting(
                Rect{pt.x - eps_, pt.y - eps_, pt.x + eps_, pt.y + eps_});
        // The native leaf first, then every other leaf in the envelope.
        size_t count = 1;
        for (size_t j = 0; j < leaves.size(); ++j) {
          count += leaves[j] != native ? 1 : 0;
        }
        if (count > exec::RoutedBlock::kMaxInstances - end) break;
        out->part[end++] = native;
        for (size_t j = 0; j < leaves.size(); ++j) {
          if (leaves[j] != native) out->part[end++] = leaves[j];
        }
      } else {
        if (end == exec::RoutedBlock::kMaxInstances) break;
        out->part[end++] = native;
      }
      out->end[k] = end;
    }
    for (size_t j = 0; j < end; ++j) {
      out->owner[j] = placement_->OwnerOf(out->part[j]);
    }
    return k;
  }

  int Owner(exec::PartitionId p) const override {
    return placement_->OwnerOf(p);
  }

 private:
  const spatial::QuadTreePartitioner* partitioner_;
  const core::CellAssignment* placement_;
  Side replicated_;
  double eps_;
};

}  // namespace

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

  const core::CellAssignment placement =
      core::CellAssignment::Hash(options.workers);
  return driver.Run(
      r, s, QuadTreeRouter(&partitioner, &placement, replicated, options.eps),
      "Sedona");
}

}  // namespace pasjoin::baselines
