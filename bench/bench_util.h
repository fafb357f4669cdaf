// Copyright 2026 The pasjoin Authors.
//
// Shared support for the experiment harnesses under bench/: scaled-down
// paper workloads, default parameters (Table 3), and table printing.
#ifndef PASJOIN_BENCH_BENCH_UTIL_H_
#define PASJOIN_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "datagen/generators.h"
#include "exec/engine.h"

namespace pasjoin::bench {

/// Scaled-down defaults. The paper runs 42.7M-800M points with eps in
/// [0.009, 0.018]; this repo scales cardinality by 1/100 and eps by 10,
/// preserving both points-per-cell density and per-pair selectivity
/// (EXPERIMENTS.md discusses the rescale).
struct Defaults {
  /// Base cardinality of each input (paper: ~100M). With eps scaled x10 the
  /// default grid has ~25k cells (1/100 of the paper's ~2.5M), so 1M points
  /// reproduces the paper's ~40 points per cell per relation.
  size_t base_n = 1'000'000;
  /// Distance thresholds (paper: 0.009, 0.012, 0.015, 0.018; x10 here).
  std::vector<double> eps_sweep{0.09, 0.12, 0.15, 0.18};
  /// Default threshold (paper default eps = 0.012).
  double eps = 0.12;
  /// Default workers (paper default: 12 nodes).
  int workers = 12;
  /// Sample rate (paper: 3%).
  double sample_rate = 0.03;
  /// Repetitions for time-reporting harnesses; the median run is reported
  /// (the paper averages 10 executions). Override with PASJOIN_BENCH_REPS.
  int time_reps = 3;
};

/// Returns the defaults, honoring the PASJOIN_BENCH_SCALE environment
/// variable (a multiplier on base_n, default 1.0) so larger machines can run
/// closer to paper scale.
Defaults GetDefaults();

/// Scales a base cardinality by a (possibly fractional) factor.
inline size_t ScaledCount(size_t base, double factor) {
  return static_cast<size_t>(static_cast<double>(base) * factor);
}

/// Bytes -> MiB as a double, for printf-style reporting.
inline double MiB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Cached construction of the paper data sets at `n` points.
const Dataset& PaperData(datagen::PaperDataset which, size_t n);

/// A named data set combination from the paper (S1xS2, R1xS1, R2xR1).
struct Combo {
  std::string name;
  datagen::PaperDataset left;
  datagen::PaperDataset right;
  /// Cardinality ratio of each side relative to base_n (keeps the paper's
  /// relative sizes: R1=94.1M, R2=42.7M, S1=S2=100M => R1 ~ 0.94, R2 ~ 0.43).
  double left_scale;
  double right_scale;
};

/// The three combinations used throughout Section 7.
std::vector<Combo> PaperCombos();

/// Formats `v` with thousands separators ("12,345,678").
std::string WithCommas(uint64_t v);

/// Prints a header banner for a harness.
void PrintBanner(const std::string& experiment, const std::string& details);

/// The algorithms of Section 7.1, by display name.
inline const std::vector<std::string>& AllAlgorithms() {
  static const std::vector<std::string> kAll{"LPiB",   "DIFF",     "UNI(R)",
                                             "UNI(S)", "eps-grid", "Sedona"};
  return kAll;
}

/// Shared knobs for one algorithm run.
struct RunConfig {
  double eps = 0.12;
  int workers = 12;
  int num_splits = 0;
  /// Grid resolution for the 2eps-grid algorithms (Figure 15 knob).
  double resolution_factor = 2.0;
  double sample_rate = 0.03;
  /// LPT placement for the adaptive algorithms (the baselines use hash, as
  /// in the paper).
  bool use_lpt = true;
  /// Table 6 knob (adaptive algorithms only).
  bool duplicate_free = true;
  /// Table 5 / Figures 16-18 knob.
  bool carry_payloads = true;
  bool collect_results = false;
};

/// Runs `algo` (one of AllAlgorithms()) on r x s and returns its metrics.
/// Aborts on configuration errors (benchmarks are trusted callers).
exec::JobMetrics RunAlgorithm(const std::string& algo, const Dataset& r,
                              const Dataset& s, const RunConfig& config);

/// Like RunAlgorithm but also returns collected pairs when
/// `config.collect_results`.
exec::JoinRun RunAlgorithmFull(const std::string& algo, const Dataset& r,
                               const Dataset& s, const RunConfig& config);

/// Runs `reps` times and returns the run with the median simulated total
/// time (noise control for the time-reporting harnesses).
exec::JobMetrics RunAlgorithmMedian(const std::string& algo, const Dataset& r,
                                    const Dataset& s, const RunConfig& config,
                                    int reps);

}  // namespace pasjoin::bench

#endif  // PASJOIN_BENCH_BENCH_UTIL_H_
