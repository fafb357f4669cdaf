// Copyright 2026 The pasjoin Authors.
//
// Golden counters of every point-join driver. Each configuration's logical
// outputs (replication, shuffle volume, candidates, results, joined
// partitions and a hash of the sorted result pairs) are pinned to recorded
// values, at 1 and at 4 physical threads. A refactor of the driver path must
// keep every row bit-identical; a change that means to move them updates the
// table and says why.
//
// On a mismatch the test prints the observed row in table syntax.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "core/adaptive_join.h"
#include "core/self_join.h"
#include "datagen/generators.h"

namespace pasjoin {
namespace {

Dataset Data(size_t n, uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 6;
  options.sigma_min = 0.4;
  options.sigma_max = 1.6;
  options.mbr = Rect{0, 0, 40, 30};
  Dataset d = datagen::GenerateGaussianClusters(n, seed, options);
  // Some tuples carry payload bytes, so shuffle_bytes covers the arena.
  for (size_t i = 0; i < d.tuples.size(); i += 5) {
    d.tuples[i].payload.assign(1 + i % 23, 'p');
  }
  return d;
}

const Dataset& R() {
  static const Dataset* const r = new Dataset(Data(2500, 11));
  return *r;
}
/// S shares R's clusters (same seed), shifted so that no pair coincides.
const Dataset& S() {
  static const Dataset* const s = [] {
    Dataset* d = new Dataset(Data(1800, 11));
    for (Tuple& t : d->tuples) {
      t.id += 100000;
      t.pt.x = std::min(40.0, t.pt.x + 0.07);
      t.pt.y = std::max(0.0, t.pt.y - 0.05);
    }
    return d;
  }();
  return *s;
}

constexpr double kEps = 0.2;

/// FNV-1a over the sorted result pairs.
uint64_t PairsHash(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ResultPair& p : pairs) {
    mix(p.r_id);
    mix(p.s_id);
  }
  return h;
}

struct Golden {
  uint64_t replicated_r;
  uint64_t replicated_s;
  uint64_t shuffled_tuples;
  uint64_t shuffle_bytes;
  uint64_t shuffle_remote_bytes;
  uint64_t candidates;
  uint64_t results;
  uint64_t partitions_joined;
  uint64_t pairs_hash;

  friend bool operator==(const Golden&, const Golden&) = default;

  std::string ToString() const {
    std::string out = "{";
    for (const uint64_t v :
         {replicated_r, replicated_s, shuffled_tuples, shuffle_bytes,
          shuffle_remote_bytes, candidates, results, partitions_joined}) {
      out.append(std::to_string(v)).append(", ");
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "0x%016llxULL",
                  static_cast<unsigned long long>(pairs_hash));
    return out.append(hash).append("}");
  }
};

/// Runs one driver configuration at `physical_threads`.
using Runner = std::function<Result<exec::JoinRun>(int physical_threads)>;

struct Case {
  std::string name;
  Runner run;
  Golden expected;
};

template <typename Options>
void SetExec(Options* o, int physical_threads) {
  o->eps = kEps;
  o->workers = 5;
  o->physical_threads = physical_threads;
  o->collect_results = true;
}

Runner Adaptive(agreements::Policy policy, bool lpt, bool duplicate_free) {
  return [=](int threads) {
    core::AdaptiveJoinOptions o;
    SetExec(&o, threads);
    o.policy = policy;
    o.use_lpt = lpt;
    o.duplicate_free = duplicate_free;
    o.sample_rate = 0.2;
    return core::AdaptiveDistanceJoin(R(), S(), o);
  };
}

Runner Self() {
  return [](int threads) {
    core::SelfJoinOptions o;
    SetExec(&o, threads);
    return core::SelfDistanceJoin(R(), o);
  };
}

Runner Pbsm(baselines::PbsmVariant variant) {
  return [=](int threads) {
    baselines::PbsmOptions o;
    SetExec(&o, threads);
    return baselines::PbsmDistanceJoin(R(), S(), variant, o);
  };
}

Runner Sedona() {
  return [](int threads) {
    baselines::SedonaOptions o;
    SetExec(&o, threads);
    o.sample_rate = 0.2;
    return baselines::SedonaLikeDistanceJoin(R(), S(), o);
  };
}

using agreements::Policy;
using baselines::PbsmVariant;

std::vector<Case> Cases() {
  return {
      {"adaptive_lpib_lpt_df", Adaptive(Policy::kLPiB, true, true),
       {2029, 2804, 9133, 240810, 192557, 27456, 21962, 373,
        0x1e4698e4eb118206ULL}},
      {"adaptive_lpib_lpt_distinct", Adaptive(Policy::kLPiB, true, false),
       {2197, 3059, 9556, 558904, 508356, 30077, 21962, 377,
        0x1e4698e4eb118206ULL}},
      {"adaptive_lpib_hash_df", Adaptive(Policy::kLPiB, false, true),
       {2029, 2804, 9133, 240810, 192858, 27456, 21962, 373,
        0x1e4698e4eb118206ULL}},
      {"adaptive_lpib_hash_distinct", Adaptive(Policy::kLPiB, false, false),
       {2197, 3059, 9556, 559272, 509097, 30077, 21962, 377,
        0x1e4698e4eb118206ULL}},
      {"adaptive_diff_lpt_df", Adaptive(Policy::kDiff, true, true),
       {1745, 3164, 9209, 242753, 194429, 27459, 21962, 374,
        0x1e4698e4eb118206ULL}},
      {"adaptive_diff_lpt_distinct", Adaptive(Policy::kDiff, true, false),
       {2000, 3291, 9591, 556211, 505969, 29648, 21962, 378,
        0x1e4698e4eb118206ULL}},
      {"adaptive_diff_hash_df", Adaptive(Policy::kDiff, false, true),
       {1745, 3164, 9209, 242753, 193915, 27459, 21962, 374,
        0x1e4698e4eb118206ULL}},
      {"adaptive_diff_hash_distinct", Adaptive(Policy::kDiff, false, false),
       {2000, 3291, 9591, 556739, 506158, 29648, 21962, 378,
        0x1e4698e4eb118206ULL}},
      {"self_hash", Self(),
       {6708, 0, 11708, 308988, 247408, 38321, 14200, 366,
        0x2f55e2fc3029498dULL}},
      {"pbsm_unir_hash", Pbsm(PbsmVariant::kUniR),
       {6686, 0, 10986, 290038, 233594, 27443, 21962, 337,
        0x1e4698e4eb118206ULL}},
      {"pbsm_unis_hash", Pbsm(PbsmVariant::kUniS),
       {0, 4868, 9168, 241893, 193600, 27447, 21962, 358,
        0x1e4698e4eb118206ULL}},
      {"pbsm_epsgrid_hash", Pbsm(PbsmVariant::kEpsGrid),
       {0, 12599, 16899, 445874, 356928, 27329, 21962, 908,
        0x1e4698e4eb118206ULL}},
      {"sedona", Sedona(),
       {0, 2016, 6316, 166747, 134604, 110801, 21962, 66,
        0x1e4698e4eb118206ULL}},
  };
}

class DriverGoldenTest : public ::testing::TestWithParam<Case> {};

TEST_P(DriverGoldenTest, CountersAndPairsMatchTheRecordedRun) {
  const Case& c = GetParam();
  for (const int threads : {1, 4}) {
    Result<exec::JoinRun> run = c.run(threads);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const exec::JobMetrics& m = run.value().metrics;
    const Golden got{m.replicated_r,         m.replicated_s,
                     m.shuffled_tuples,      m.shuffle_bytes,
                     m.shuffle_remote_bytes, m.candidates,
                     m.results,              m.partitions_joined,
                     PairsHash(run.value().pairs)};
    EXPECT_EQ(got, c.expected)
        << c.name << " at " << threads << " threads: observed "
        << got.ToString() << ", recorded " << c.expected.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverGoldenTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace pasjoin
