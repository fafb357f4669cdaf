// Copyright 2026 The pasjoin Authors.
//
// The shared driver path (core/driver.h) seen through every public driver:
// one eps check, one grid-size check, and one set of driver spans whose
// planning clock reconciles with the planning-* spans.
#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "core/adaptive_join.h"
#include "core/self_join.h"
#include "datagen/generators.h"
#include "extent/extent_join.h"
#include "extent/generators.h"
#include "obs/trace_recorder.h"
#include "test_util.h"

namespace pasjoin::core {
namespace {

using baselines::PbsmVariant;

Dataset Points(size_t n, uint64_t seed) {
  return datagen::GenerateUniform(n, seed, Rect{0, 0, 1, 1});
}

/// Runs one driver over (r, s) at `eps` and returns its status.
using DriverFn = std::function<Status(const Dataset& r, const Dataset& s,
                                      double eps)>;

struct NamedDriver {
  std::string name;
  DriverFn run;
};

template <typename Options>
Options Base(double eps) {
  Options o;
  o.eps = eps;
  o.workers = 3;
  o.physical_threads = 2;
  return o;
}

std::vector<NamedDriver> AllDrivers() {
  return {
      {"adaptive",
       [](const Dataset& r, const Dataset& s, double eps) {
         return AdaptiveDistanceJoin(r, s, Base<AdaptiveJoinOptions>(eps))
             .status();
       }},
      {"self",
       [](const Dataset& r, const Dataset&, double eps) {
         return SelfDistanceJoin(r, Base<SelfJoinOptions>(eps)).status();
       }},
      {"pbsm",
       [](const Dataset& r, const Dataset& s, double eps) {
         return baselines::PbsmDistanceJoin(
                    r, s, PbsmVariant::kEpsGrid,
                    Base<baselines::PbsmOptions>(eps))
             .status();
       }},
      {"sedona",
       [](const Dataset& r, const Dataset& s, double eps) {
         return baselines::SedonaLikeDistanceJoin(
                    r, s, Base<baselines::SedonaOptions>(eps))
             .status();
       }},
      {"extent",
       [](const Dataset&, const Dataset&, double eps) {
         const extent::ExtentDataset objects =
             extent::GenerateRiverPolylines(8, 1, Rect{0, 0, 1, 1});
         extent::ExtentJoinOptions o;
         o.eps = eps;
         return extent::GridExtentDistanceJoin(objects, objects, o).status();
       }},
  };
}

class DriverEpsTest
    : public ::testing::TestWithParam<std::tuple<NamedDriver, double>> {};

TEST_P(DriverEpsTest, RejectsEpsThatIsNotPositiveAndFinite) {
  const auto& [driver, eps] = GetParam();
  const Status st = driver.run(Points(50, 1), Points(40, 2), eps);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(st.message(), "eps must be positive and finite");
}

INSTANTIATE_TEST_SUITE_P(
    DriversTimesBadEps, DriverEpsTest,
    ::testing::Combine(
        ::testing::ValuesIn(AllDrivers()),
        ::testing::Values(0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity())),
    [](const ::testing::TestParamInfo<std::tuple<NamedDriver, double>>&
           param_info) {
      const double eps = std::get<1>(param_info.param);
      std::string name = std::get<0>(param_info.param).name;
      if (std::isnan(eps)) return name.append("_nan");
      if (std::isinf(eps)) return name.append(eps > 0 ? "_inf" : "_neginf");
      return name.append(eps == 0.0 ? "_zero" : "_negative");
    });

TEST(DriverGridTest, TooFineAGridIsAnInvalidArgument) {
  // 499,999^2 cells for the adaptive grid, 5e11 per axis for the baseline
  // grid: both exceed what CellId can number.
  const Dataset r = Points(60, 3);
  const Dataset s = Points(60, 4);
  AdaptiveJoinOptions adaptive = Base<AdaptiveJoinOptions>(1e-6);
  adaptive.mbr = Rect{0, 0, 1, 1};
  const Status a = AdaptiveDistanceJoin(r, s, adaptive).status();
  EXPECT_EQ(a.code(), StatusCode::kInvalidArgument) << a.ToString();
  EXPECT_NE(a.message().find("CellId"), std::string::npos) << a.ToString();
  baselines::PbsmOptions pbsm = Base<baselines::PbsmOptions>(1e-12);
  pbsm.mbr = Rect{0, 0, 1, 1};
  const Status p =
      baselines::PbsmDistanceJoin(r, s, PbsmVariant::kUniR, pbsm).status();
  EXPECT_EQ(p.code(), StatusCode::kInvalidArgument) << p.ToString();
  EXPECT_NE(p.message().find("CellId"), std::string::npos) << p.ToString();
}

TEST(DriverGridTest, HugeEpsJoinsEveryPair) {
  // eps far beyond the data space: one cell, every pair within distance.
  const Dataset r = Points(30, 5);
  const Dataset s = pasjoin::testing::MakeDataset(
      {Point{0.1, 0.2}, Point{0.9, 0.4}, Point{0.5, 0.5}}, 1000);
  const baselines::PbsmOptions pbsm = Base<baselines::PbsmOptions>(1e12);
  for (const PbsmVariant v :
       {PbsmVariant::kUniR, PbsmVariant::kUniS, PbsmVariant::kEpsGrid}) {
    const Result<exec::JoinRun> run =
        baselines::PbsmDistanceJoin(r, s, v, pbsm);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().metrics.results, 90u);
  }
  const Result<exec::JoinRun> self =
      SelfDistanceJoin(r, Base<SelfJoinOptions>(1e12));
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_EQ(self.value().metrics.results, 30u * 29u / 2u);
}

/// One admission scan and its statistics: the inputs, the draw and the
/// declared data space (none when it has no area).
struct ScanCase {
  std::string name;
  Dataset r;
  Dataset s;
  double rate;
  Rect mbr;
};

std::vector<ScanCase> ScanCases() {
  std::vector<Point> edges;
  for (int i = 0; i < 300; ++i) {
    edges.push_back(Point{1.0, 0.003 * i});  // the max-x edge
    edges.push_back(Point{0.003 * i, 1.0});  // the max-y edge
    edges.push_back(Point{0.25, 0.5});       // one point, many times
  }
  datagen::GaussianClustersOptions clusters;
  clusters.num_clusters = 5;
  clusters.sigma_min = 0.01;
  clusters.sigma_max = 0.05;
  clusters.mbr = Rect{0, 0, 1, 1};
  return {
      {"uniform", Points(4000, 21), Points(3000, 22), 0.03, Rect{}},
      {"clustered", datagen::GenerateGaussianClusters(4000, 23, clusters),
       datagen::GenerateGaussianClusters(3000, 24, clusters), 0.03, Rect{}},
      {"edges_and_duplicates", pasjoin::testing::MakeDataset(edges, 0),
       Points(900, 25), 0.2, Rect{}},
      {"full", Points(1500, 26), Points(1200, 27), 1.0, Rect{}},
      // 0.003 expected draws from R, 30 from S.
      {"r_draws_nothing", Points(3, 28), Points(30000, 29), 1e-3, Rect{}},
      {"declared_mbr", Points(4000, 30), Points(3000, 31), 0.03,
       Rect{-1, -2, 3, 4}},
  };
}

TEST(DriverScanTest, OneScanGivesTheSeparatePassesSpaceAndStatistics) {
  constexpr uint64_t kSeed = 0x5a5a5a5a;
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(c.name);
    JoinOptions options = Base<JoinOptions>(0.01);
    options.mbr = c.mbr;
    Result<Driver> admitted =
        Driver::Admit(c.r, c.s, options, Sampling::BothSides(c.rate, kSeed));
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    Driver& driver = admitted.value();
    const Rect want_space =
        c.mbr.Area() > 0.0 ? c.mbr : c.r.Mbr().Union(c.s.Mbr());
    EXPECT_EQ(driver.space(), want_space);
    Result<grid::Grid> grid_result = driver.MakeGrid(2.0, false);
    ASSERT_TRUE(grid_result.ok()) << grid_result.status().ToString();
    const grid::Grid grid = grid_result.MoveValue();
    const grid::GridStats stats = driver.Sample(grid);
    // The drawn points are freed once the statistics hold them.
    EXPECT_TRUE(driver.TakeSample(Side::kR).empty());
    EXPECT_TRUE(driver.TakeSample(Side::kS).empty());

    grid::GridStats want(&grid);
    want.AddSample(Side::kR, c.r, c.rate, kSeed);
    want.AddSample(Side::kS, c.s, c.rate, kSeed + 1);
    for (const Side side : {Side::kR, Side::kS}) {
      EXPECT_EQ(stats.SampleSize(side), want.SampleSize(side));
      EXPECT_EQ(stats.Scale(side), want.Scale(side));
    }
    ASSERT_EQ(stats.Sampled().size(), want.Sampled().size());
    for (size_t i = 0; i < stats.Sampled().size(); ++i) {
      EXPECT_EQ(std::memcmp(&stats.Sampled()[i], &want.Sampled()[i],
                            sizeof(grid::CellCounts)),
                0)
          << "slot " << i;
    }
    if (c.name == "r_draws_nothing") {
      EXPECT_EQ(stats.SampleSize(Side::kR), 0u);
      EXPECT_EQ(stats.Scale(Side::kR), 1.0);
      EXPECT_GT(stats.SampleSize(Side::kS), 0u);
    }
  }
}

/// The loop SedonaLikeDistanceJoin drew its sample with before the
/// admission scan: the smaller side only, seeded with sample_seed.
std::vector<Point> SedonaReferenceSample(const Dataset& smaller, double rate,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  for (const Tuple& t : smaller.tuples) {
    if (rate >= 1.0 || rng.NextBernoulli(rate)) out.push_back(t.pt);
  }
  return out;
}

TEST(DriverScanTest, SedonaDrawsTheSmallerSideWithItsOwnSeed) {
  const Dataset small = Points(2500, 32);
  const Dataset large = Points(4000, 33);
  for (const bool r_smaller : {true, false}) {
    SCOPED_TRACE(r_smaller ? "R smaller" : "S smaller");
    const Dataset& r = r_smaller ? small : large;
    const Dataset& s = r_smaller ? large : small;
    const Side replicated = r_smaller ? Side::kR : Side::kS;
    const Side other = r_smaller ? Side::kS : Side::kR;
    baselines::SedonaOptions options = Base<baselines::SedonaOptions>(0.01);
    const std::vector<Point> want = SedonaReferenceSample(
        small, options.sample_rate, options.sample_seed);

    Sampling sampling{options.sample_rate, {}};
    sampling.seed[static_cast<int>(replicated)] = options.sample_seed;
    Result<Driver> admitted = Driver::Admit(r, s, options, sampling);
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    const std::vector<Point> got = admitted.value().TakeSample(replicated);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].x, want[i].x) << i;
      EXPECT_EQ(got[i].y, want[i].y) << i;
    }
    EXPECT_TRUE(admitted.value().TakeSample(other).empty());

    // The join itself builds its quadtree from exactly that many points.
    obs::TraceRecorder trace;
    options.trace = &trace;
    ASSERT_TRUE(baselines::SedonaLikeDistanceJoin(r, s, options).ok());
    int64_t sample_points = -1;
    for (const obs::TraceEvent& event : trace.Snapshot()) {
      if (std::string(event.name) == "driver-quadtree") {
        ASSERT_EQ(event.num_args, 1);
        sample_points = event.arg_values[0];
      }
    }
    EXPECT_EQ(sample_points, static_cast<int64_t>(want.size()));
  }
}

TEST(DriverScanTest, NonFiniteFirstTupleKeepsItsStatus) {
  // What each driver returned when admission read the MBR with
  // Dataset::Mbr: a NaN first coordinate survives R's fold but not the
  // union with S's, and an infinite one makes the grid too large to number.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string nan_space =
      "MBR must have positive extent: [nan,0.004498  nan,0.992648]";
  const std::string nan_self =
      "MBR must have positive extent: [nan,0.011160  nan,0.992648]";
  const std::string non_finite =
      "non-finite coordinate in dataset 'uniform' at index 0";
  const std::string too_fine =
      "grid has more cells than CellId can number: eps is too small for the "
      "MBR";
  struct Case {
    double bad;
    bool in_r;
    std::string adaptive, pbsm, sedona, self;
  };
  const Case cases[] = {
      {nan, true, nan_space, nan_space, non_finite, nan_self},
      {nan, false, non_finite, non_finite, non_finite,
       "MBR must have positive extent: [nan,0.004498  nan,0.992575]"},
      {inf, true, too_fine, too_fine, non_finite, too_fine},
      {-inf, false, too_fine, too_fine, non_finite, too_fine},
  };
  for (const Case& c : cases) {
    Dataset r = datagen::GenerateUniform(200, 1, Rect{0, 0, 1, 1});
    Dataset s = datagen::GenerateUniform(150, 2, Rect{0, 0, 1, 1});
    (c.in_r ? r : s).tuples[0].pt.x = c.bad;
    SCOPED_TRACE(std::to_string(c.bad) + (c.in_r ? " in R" : " in S"));
    const auto expect = [](const Status& st, const std::string& message) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_EQ(st.message(), message);
    };
    expect(AdaptiveDistanceJoin(r, s, Base<AdaptiveJoinOptions>(0.05))
               .status(),
           c.adaptive);
    expect(baselines::PbsmDistanceJoin(r, s, PbsmVariant::kEpsGrid,
                                       Base<baselines::PbsmOptions>(0.05))
               .status(),
           c.pbsm);
    expect(baselines::SedonaLikeDistanceJoin(
               r, s, Base<baselines::SedonaOptions>(0.05))
               .status(),
           c.sedona);
    expect(SelfDistanceJoin(c.in_r ? r : s, Base<SelfJoinOptions>(0.05))
               .status(),
           c.self);
  }
}

/// A traced driver configuration and the driver spans it must open.
struct TracedCase {
  std::string name;
  std::function<Result<exec::JoinRun>(obs::TraceRecorder*)> run;
  std::set<std::string> spans;
  /// Expected scheduler arg of driver-placement ("" when not placed).
  std::string scheduler;
};

const Dataset& TraceR() {
  static const Dataset* const r = new Dataset(Points(3000, 7));
  return *r;
}
const Dataset& TraceS() {
  static const Dataset* const s = new Dataset(Points(2000, 8));
  return *s;
}

std::vector<TracedCase> TracedCases() {
  const std::set<std::string> grid_hash = {"driver-scan", "driver-grid",
                                           "driver-placement"};
  const std::set<std::string> adaptive = {
      "driver-scan", "driver-grid", "driver-sample", "driver-agreement-graph",
      "driver-placement"};
  constexpr double kEps = 0.01;
  std::vector<TracedCase> cases;
  for (const bool lpt : {false, true}) {
    const std::string scheduler = lpt ? "lpt" : "hash";
    cases.push_back(
        {"adaptive_" + scheduler,
         [lpt](obs::TraceRecorder* trace) {
           AdaptiveJoinOptions o = Base<AdaptiveJoinOptions>(kEps);
           o.use_lpt = lpt;
           o.trace = trace;
           return AdaptiveDistanceJoin(TraceR(), TraceS(), o);
         },
         adaptive, scheduler});
  }
  // PBSM and the self join place cells by hash and never sample.
  cases.push_back({"self_hash",
                   [](obs::TraceRecorder* trace) {
                     SelfJoinOptions o = Base<SelfJoinOptions>(kEps);
                     o.trace = trace;
                     return SelfDistanceJoin(TraceR(), o);
                   },
                   grid_hash, "hash"});
  cases.push_back({"pbsm_hash",
                   [](obs::TraceRecorder* trace) {
                     baselines::PbsmOptions o =
                         Base<baselines::PbsmOptions>(kEps);
                     o.trace = trace;
                     return baselines::PbsmDistanceJoin(TraceR(), TraceS(),
                                                        PbsmVariant::kUniS, o);
                   },
                   grid_hash, "hash"});
  cases.push_back({"sedona",
                   [](obs::TraceRecorder* trace) {
                     baselines::SedonaOptions o =
                         Base<baselines::SedonaOptions>(kEps);
                     o.trace = trace;
                     return baselines::SedonaLikeDistanceJoin(TraceR(),
                                                              TraceS(), o);
                   },
                   {"driver-scan", "driver-quadtree"},
                   ""});
  return cases;
}

class DriverTraceTest : public ::testing::TestWithParam<TracedCase> {};

TEST_P(DriverTraceTest, OpensTheSharedDriverSpansAndReconcilesPlanning) {
  const TracedCase& c = GetParam();
  obs::TraceRecorder trace;
  const Result<exec::JoinRun> run = c.run(&trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::set<std::string> spans;
  std::string scheduler;
  double planning_spans = 0.0;
  // The top-level planning spans.
  const std::set<std::string> planning = {
      "planning-pairs", "planning-subgraphs", "planning-marking",
      "planning-costs", "planning-lpt"};
  for (const obs::TraceEvent& event : trace.Snapshot()) {
    const std::string name = event.name;
    if (name.rfind("driver-", 0) == 0) {
      EXPECT_STREQ(event.category, "driver") << name;
      EXPECT_EQ(event.track, obs::kDriverTrack) << name;
      EXPECT_TRUE(spans.insert(name).second) << name << " opened twice";
      if (name == "driver-placement") {
        ASSERT_STREQ(event.str_name, "scheduler");
        scheduler = event.str_value;
      }
    }
    if (planning.count(name) != 0) {
      planning_spans += static_cast<double>(event.duration_ns) * 1e-9;
    }
  }
  EXPECT_EQ(spans, c.spans);
  EXPECT_EQ(scheduler, c.scheduler);

  // The planning clock covers exactly the planning spans: the same check
  // as tools/trace_summary.py --validate, with its default bounds.
  const double measured = run.value().metrics.measured_planning_seconds;
  EXPECT_NEAR(planning_spans, measured, std::max(0.05 * measured, 0.005))
      << "planning spans " << planning_spans << " s vs clock " << measured
      << " s";
  EXPECT_EQ(planning_spans > 0.0, measured > 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverTraceTest, ::testing::ValuesIn(TracedCases()),
    [](const ::testing::TestParamInfo<TracedCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace pasjoin::core
