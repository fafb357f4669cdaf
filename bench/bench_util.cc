// Copyright 2026 The pasjoin Authors.
#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "common/macros.h"
#include "core/adaptive_join.h"

namespace pasjoin::bench {

Defaults GetDefaults() {
  Defaults d;
  if (const char* scale_env = std::getenv("PASJOIN_BENCH_SCALE")) {
    const double scale = std::atof(scale_env);
    if (scale > 0.0) {
      d.base_n = static_cast<size_t>(static_cast<double>(d.base_n) * scale);
    }
  }
  if (const char* reps_env = std::getenv("PASJOIN_BENCH_REPS")) {
    const int reps = std::atoi(reps_env);
    if (reps >= 1) d.time_reps = reps;
  }
  return d;
}

const Dataset& PaperData(datagen::PaperDataset which, size_t n) {
  static std::map<std::pair<int, size_t>, Dataset> cache;
  const auto key = std::make_pair(static_cast<int>(which), n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, datagen::MakePaperDataset(which, n)).first;
  }
  return it->second;
}

std::vector<Combo> PaperCombos() {
  return {
      {"S1xS2", datagen::PaperDataset::kS1, datagen::PaperDataset::kS2, 1.0,
       1.0},
      {"R1xS1", datagen::PaperDataset::kR1, datagen::PaperDataset::kS1, 0.94,
       1.0},
      {"R2xR1", datagen::PaperDataset::kR2, datagen::PaperDataset::kR1, 0.43,
       0.94},
  };
}

std::string WithCommas(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

exec::JoinRun RunAlgorithmFull(const std::string& algo, const Dataset& r,
                               const Dataset& s, const RunConfig& config) {
  if (algo == "LPiB" || algo == "DIFF") {
    core::AdaptiveJoinOptions options;
    options.eps = config.eps;
    options.policy = algo == "LPiB" ? agreements::Policy::kLPiB
                                    : agreements::Policy::kDiff;
    options.resolution_factor = config.resolution_factor;
    options.sample_rate = config.sample_rate;
    options.workers = config.workers;
    options.num_splits = config.num_splits;
    options.use_lpt = config.use_lpt;
    options.duplicate_free = config.duplicate_free;
    options.collect_results = config.collect_results;
    options.carry_payloads = config.carry_payloads;
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
    PASJOIN_CHECK(run.ok());
    return run.MoveValue();
  }
  if (algo == "UNI(R)" || algo == "UNI(S)" || algo == "eps-grid") {
    baselines::PbsmOptions options;
    options.eps = config.eps;
    options.resolution_factor = config.resolution_factor;
    options.workers = config.workers;
    options.num_splits = config.num_splits;
    options.collect_results = config.collect_results;
    options.carry_payloads = config.carry_payloads;
    const baselines::PbsmVariant variant =
        algo == "UNI(R)"   ? baselines::PbsmVariant::kUniR
        : algo == "UNI(S)" ? baselines::PbsmVariant::kUniS
                           : baselines::PbsmVariant::kEpsGrid;
    Result<exec::JoinRun> run =
        baselines::PbsmDistanceJoin(r, s, variant, options);
    PASJOIN_CHECK(run.ok());
    return run.MoveValue();
  }
  PASJOIN_CHECK(algo == "Sedona");
  baselines::SedonaOptions options;
  options.eps = config.eps;
  options.sample_rate = config.sample_rate;
  options.workers = config.workers;
  options.num_splits = config.num_splits;
  options.collect_results = config.collect_results;
  options.carry_payloads = config.carry_payloads;
  Result<exec::JoinRun> run = baselines::SedonaLikeDistanceJoin(r, s, options);
  PASJOIN_CHECK(run.ok());
  return run.MoveValue();
}

exec::JobMetrics RunAlgorithm(const std::string& algo, const Dataset& r,
                              const Dataset& s, const RunConfig& config) {
  return RunAlgorithmFull(algo, r, s, config).metrics;
}

exec::JobMetrics RunAlgorithmMedian(const std::string& algo, const Dataset& r,
                                    const Dataset& s, const RunConfig& config,
                                    int reps) {
  PASJOIN_CHECK(reps >= 1);
  std::vector<exec::JobMetrics> runs;
  runs.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    runs.push_back(RunAlgorithm(algo, r, s, config));
  }
  std::sort(runs.begin(), runs.end(),
            [](const exec::JobMetrics& a, const exec::JobMetrics& b) {
              return a.TotalSeconds() < b.TotalSeconds();
            });
  return runs[static_cast<size_t>(reps) / 2];
}

void PrintBanner(const std::string& experiment, const std::string& details) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", details.c_str());
  std::printf("==============================================================\n");
}

}  // namespace pasjoin::bench
