// Copyright 2026 The pasjoin Authors.
//
// Parameterized engine sweeps: the partitioned join must deliver identical
// result counts for every (workers x splits x physical threads)
// configuration, and its bookkeeping must stay consistent.
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/engine_test_util.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::MustRun;

using Param = std::tuple<int /*workers*/, int /*splits*/, int /*physical*/>;

class EngineSweep : public ::testing::TestWithParam<Param> {};

AssignFn GridAssign(double eps) {
  return [eps](const Tuple& t, Side side) {
    PartitionList out;
    const int native = std::clamp(static_cast<int>(t.pt.x), 0, 9);
    out.push_back(native);
    if (side == Side::kR) {
      const int lo = std::clamp(static_cast<int>(t.pt.x - eps), 0, 9);
      const int hi = std::clamp(static_cast<int>(t.pt.x + eps), 0, 9);
      for (int p = lo; p <= hi; ++p) {
        if (p != native) out.push_back(p);
      }
    }
    return out;
  };
}

TEST_P(EngineSweep, ResultsAreConfigurationIndependent) {
  const auto& [workers, splits, physical] = GetParam();
  Rng rng(99);
  std::vector<Point> r_pts, s_pts;
  for (int i = 0; i < 400; ++i) {
    r_pts.push_back(Point{rng.NextUniform(0, 10), rng.NextUniform(0, 1)});
    s_pts.push_back(Point{rng.NextUniform(0, 10), rng.NextUniform(0, 1)});
  }
  const Dataset r = pasjoin::testing::MakeDataset(r_pts, 0, "R");
  const Dataset s = pasjoin::testing::MakeDataset(s_pts, 1000, "S");
  const double eps = 0.3;
  const size_t truth = pasjoin::testing::BruteForcePairs(r, s, eps).size();

  EngineOptions options;
  options.eps = eps;
  options.workers = workers;
  options.num_splits = splits;
  options.physical_threads = physical;
  const OwnerFn owner = [workers = workers](PartitionId p) {
    return static_cast<int>(static_cast<uint32_t>(p) %
                            static_cast<uint32_t>(workers));
  };
  const JoinRun run = MustRun(r, s, GridAssign(eps), owner, options);
  EXPECT_EQ(run.metrics.results, truth);
  EXPECT_EQ(run.metrics.workers, workers);
  EXPECT_EQ(run.metrics.worker_busy_join.size(),
            static_cast<size_t>(workers));
  EXPECT_GE(run.metrics.shuffle_bytes, run.metrics.shuffle_remote_bytes);
  // Shuffled tuples = natives + replicas.
  EXPECT_EQ(run.metrics.shuffled_tuples,
            800 + run.metrics.replicated_r + run.metrics.replicated_s);
}

INSTANTIATE_TEST_SUITE_P(
    WorkerSplitThreadGrid, EngineSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 12),
                       ::testing::Values(0, 1, 7, 32),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      // Built incrementally (not via chained operator+) to dodge a GCC 12
      // -Wrestrict false positive in optimized std::string concatenation.
      std::string name = "w";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_s";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_p";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace pasjoin::exec
