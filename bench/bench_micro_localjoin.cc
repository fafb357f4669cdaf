// Copyright 2026 The pasjoin Authors.
//
// Microbenchmarks of the per-partition join algorithms: the SoA sweep
// kernel vs plane sweep vs nested loop vs R-tree probing, at typical cell
// populations.
//
// Two modes:
//   * default: google-benchmark microbenchmarks (human-readable tables);
//   * --json[=PATH]: the machine-readable perf baseline. Runs the
//     "uniform-1m" workload (1M uniform points per side at unit density,
//     paper-default eps = 0.12, scaled by PASJOIN_BENCH_SCALE) through
//     every kernel, cross-checks the SoA kernel against the nested-loop
//     oracle on a reduced slice, and writes a schema-versioned
//     BENCH_localjoin.json (see bench_json.h; validated by
//     tools/check_bench.py).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <thread>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/engine.h"
#include "spatial/local_join.h"
#include "spatial/rtree.h"
#include "spatial/sweep_kernel.h"

namespace pasjoin {
namespace {

std::vector<Tuple> CellPoints(size_t n, uint64_t seed) {
  // Points inside one 2eps x 2eps cell with eps = 1.
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Tuple{static_cast<int64_t>(i),
                        Point{rng.NextUniform(0, 2), rng.NextUniform(0, 2)},
                        ""});
  }
  return out;
}

constexpr double kEps = 0.12;

void BM_NestedLoopCell(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Tuple> r = CellPoints(n, 1);
  const std::vector<Tuple> s = CellPoints(n, 2);
  uint64_t results = 0;
  for (auto _ : state) {
    results += spatial::NestedLoopJoin(r, s, kEps,
                                       [](const Tuple&, const Tuple&) {})
                   .results;
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NestedLoopCell)->Arg(64)->Arg(256)->Arg(1024);

void BM_SoaSweepCell(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Tuple> r = CellPoints(n, 1);
  const std::vector<Tuple> s = CellPoints(n, 2);
  uint64_t results = 0;
  for (auto _ : state) {
    results += spatial::SoaSweepJoinTuples(r, s, kEps, nullptr).results;
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SoaSweepCell)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PlaneSweepCell(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t results = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Tuple> r = CellPoints(n, 1);
    std::vector<Tuple> s = CellPoints(n, 2);
    state.ResumeTiming();
    results += spatial::PlaneSweepJoin(&r, &s, kEps,
                                       [](const Tuple&, const Tuple&) {})
                   .results;
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PlaneSweepCell)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Tuple> pts = CellPoints(n, 3);
  for (auto _ : state) {
    const spatial::RTree tree(pts);
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeBuild)->Arg(256)->Arg(4096)->Arg(65536);

void BM_RTreeProbeCell(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Tuple> indexed = CellPoints(n, 4);
  const std::vector<Tuple> probes = CellPoints(n, 5);
  const spatial::RTree tree(indexed);
  uint64_t hits = 0;
  for (auto _ : state) {
    for (const Tuple& q : probes) {
      tree.RangeQuery(q.pt, kEps, [&hits](const Tuple&) { ++hits; });
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeProbeCell)->Arg(256)->Arg(1024)->Arg(4096);

// --- --json mode: the machine-readable perf baseline -----------------------

/// `n` points uniform over a square of side sqrt(n): density stays at one
/// point per unit^2 regardless of scale, so eps = 0.12 keeps the paper's
/// per-pair selectivity and the workload's cost grows linearly in n.
std::vector<Tuple> UniformUnitDensity(size_t n, uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n));
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Tuple{static_cast<int64_t>(i),
                        Point{rng.NextUniform(0, side), rng.NextUniform(0, side)},
                        ""});
  }
  return out;
}

/// The kernels the --json mode measures; each record is named by
/// KernelName.
enum class Kernel { kSweepSoA, kPlaneSweep, kRTree, kNestedLoop };

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSweepSoA:
      return "sweep-soa";
    case Kernel::kPlaneSweep:
      return "plane-sweep";
    case Kernel::kRTree:
      return "rtree";
    case Kernel::kNestedLoop:
      return "nested-loop";
  }
  return "unknown";
}

/// Reusable SoA buffers, like the engine's per-worker scratch: capacity is
/// retained across repetitions so the timed region measures the kernel
/// (load + sort + sweep), not first-touch page faults.
struct SoaScratch {
  spatial::SoaPartition r;
  spatial::SoaPartition s;
};

/// Runs `kernel` once on r x s (count-only, matching the engine's
/// default), returning counters and recording the wall time.
spatial::JoinCounters TimeKernel(Kernel kernel, const std::vector<Tuple>& r,
                                 const std::vector<Tuple>& s, double eps,
                                 SoaScratch* scratch, double* seconds) {
  spatial::JoinCounters counters;
  switch (kernel) {
    case Kernel::kSweepSoA: {
      const Stopwatch watch;
      scratch->r.LoadSorted(r);
      scratch->s.LoadSorted(s);
      counters = spatial::SoaSweepJoin(scratch->r, scratch->s, eps, nullptr);
      *seconds = watch.ElapsedSeconds();
      break;
    }
    case Kernel::kPlaneSweep: {
      // The in-place sort is part of the kernel's cost; the defensive copy
      // (which the engine's partition buffers do not need) is not.
      std::vector<Tuple> r_buf = r;
      std::vector<Tuple> s_buf = s;
      const Stopwatch watch;
      counters = spatial::PlaneSweepJoin(&r_buf, &s_buf, eps,
                                         [](const Tuple&, const Tuple&) {});
      *seconds = watch.ElapsedSeconds();
      break;
    }
    case Kernel::kNestedLoop: {
      const Stopwatch watch;
      counters = spatial::NestedLoopJoin(r, s, eps,
                                         [](const Tuple&, const Tuple&) {});
      *seconds = watch.ElapsedSeconds();
      break;
    }
    case Kernel::kRTree: {
      const Stopwatch watch;
      const spatial::RTree tree(s);
      uint64_t results = 0;
      for (const Tuple& q : r) {
        tree.RangeQuery(q.pt, eps, [&results](const Tuple&) { ++results; });
      }
      counters.candidates = results;  // The R-tree reports matches only.
      counters.results = results;
      *seconds = watch.ElapsedSeconds();
      break;
    }
  }
  return counters;
}

/// Measures `kernel` over `reps` repetitions and appends a BenchRecord.
void MeasureKernel(Kernel kernel, const std::vector<Tuple>& r,
                   const std::vector<Tuple>& s, double eps, int reps,
                   bench::BenchReport* report) {
  bench::BenchRecord record;
  record.kernel = KernelName(kernel);
  record.points = r.size();
  record.eps = eps;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  SoaScratch scratch;
  for (int i = 0; i < reps; ++i) {
    double elapsed = 0.0;
    const spatial::JoinCounters counters = TimeKernel(kernel, r, s, eps,
                                                      &scratch, &elapsed);
    record.candidates = counters.candidates;
    record.results = counters.results;
    seconds.push_back(elapsed);
  }
  record.median_seconds = bench::MedianSeconds(seconds);
  record.p95_seconds = bench::PercentileSeconds(seconds, 95.0);
  std::fprintf(stderr, "  %-11s n=%-9zu median=%8.4fs p95=%8.4fs results=%llu\n",
               record.kernel.c_str(), r.size(), record.median_seconds,
               record.p95_seconds,
               static_cast<unsigned long long>(record.results));
  report->records.push_back(record);
}

/// End-to-end engine run (map + regroup + steal-parallel local join) over
/// the same workload, recorded as kernel "engine-<threads>t". The
/// partitioning is PBSM-style exactly-once: a g x g uniform grid over the
/// square, R assigned to its native cell only, S replicated into every
/// cell its eps-box touches — so each result pair is found in exactly one
/// partition (r's native cell) and the engine's results counter must EQUAL
/// the flat kernel's result count, which doubles as the correctness gate.
/// Returns false when that gate fails.
bool MeasureEngine(const std::vector<Tuple>& r, const std::vector<Tuple>& s,
                   double eps, int reps, int threads,
                   uint64_t expected_results, bench::BenchReport* report) {
  const double side = std::sqrt(static_cast<double>(r.size()));
  const int g = 32;  // 1024 partitions; cell size >> eps at every scale
  const double cell = side / g;
  const auto cell_of = [g, cell](double v) {
    return std::min(g - 1, std::max(0, static_cast<int>(v / cell)));
  };
  const exec::AssignFn assign = [&, g](const Tuple& t, Side tuple_side) {
    exec::PartitionList out;
    const int cx = cell_of(t.pt.x);
    const int cy = cell_of(t.pt.y);
    out.push_back(cy * g + cx);
    if (tuple_side == Side::kS) {
      for (int ny = cell_of(t.pt.y - eps); ny <= cell_of(t.pt.y + eps);
           ++ny) {
        for (int nx = cell_of(t.pt.x - eps); nx <= cell_of(t.pt.x + eps);
             ++nx) {
          if (nx != cx || ny != cy) out.push_back(ny * g + nx);
        }
      }
    }
    return out;
  };
  const exec::OwnerFn owner = [](exec::PartitionId p) {
    return static_cast<int>(p) % 8;
  };
  exec::EngineOptions options;
  options.eps = eps;
  options.workers = 8;
  options.physical_threads = threads;

  bench::BenchRecord record;
  record.kernel = "engine-" + std::to_string(threads) + "t";
  record.points = r.size();
  record.eps = eps;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  Dataset dr{"R", r};
  Dataset ds{"S", s};
  for (int i = 0; i < reps; ++i) {
    const Stopwatch watch;
    const Result<exec::JoinRun> result =
        exec::TryRunPartitionedJoin(dr, ds, assign, owner, options);
    seconds.push_back(watch.ElapsedSeconds());
    if (!result.ok()) {
      std::fprintf(stderr, "FAIL: %s: %s\n", record.kernel.c_str(),
                   result.status().ToString().c_str());
      return false;
    }
    const exec::JoinRun& run = result.value();
    record.candidates = run.metrics.candidates;
    record.results = run.metrics.results;
    if (run.metrics.results != expected_results) {
      std::fprintf(stderr,
                   "FAIL: %s results=%llu but the flat kernel found %llu\n",
                   record.kernel.c_str(),
                   static_cast<unsigned long long>(run.metrics.results),
                   static_cast<unsigned long long>(expected_results));
      return false;
    }
  }
  record.median_seconds = bench::MedianSeconds(seconds);
  record.p95_seconds = bench::PercentileSeconds(seconds, 95.0);
  std::fprintf(stderr, "  %-11s n=%-9zu median=%8.4fs p95=%8.4fs results=%llu\n",
               record.kernel.c_str(), r.size(), record.median_seconds,
               record.p95_seconds,
               static_cast<unsigned long long>(record.results));
  report->records.push_back(record);
  return true;
}

int RunJsonMode(const std::string& path) {
  const bench::Defaults defaults = bench::GetDefaults();
  const size_t n = defaults.base_n;
  const double eps = defaults.eps;
  const int reps = defaults.time_reps;

  std::fprintf(stderr, "uniform-1m workload: n=%zu eps=%.3f reps=%d\n", n, eps,
               reps);
  const std::vector<Tuple> r = UniformUnitDensity(n, 0xbe9c51);
  const std::vector<Tuple> s = UniformUnitDensity(n, 0x7a11ad);

  bench::BenchReport report;
  report.benchmark = "localjoin";
  report.workload = "uniform-1m";
  report.reps = reps;

  // Full-size records: the fast kernels. The nested loop is O(n^2) and the
  // oracle only, so it runs on a reduced slice below.
  for (const Kernel kernel :
       {Kernel::kSweepSoA, Kernel::kPlaneSweep, Kernel::kRTree}) {
    MeasureKernel(kernel, r, s, eps, reps, &report);
  }

  // Engine end-to-end: the same workload through the full distributed
  // dataflow. engine-1t is the sequential reference; on multicore hosts an
  // engine-<N>t record (N = min(8, cores)) measures the work-stealing
  // speedup — CI gates engine-8t:engine-1t >= 3.0 on 8-core runners.
  {
    uint64_t flat_results = 0;
    for (const bench::BenchRecord& rec : report.records) {
      if (rec.kernel == "sweep-soa" && rec.points == n) {
        flat_results = rec.results;
      }
    }
    if (!MeasureEngine(r, s, eps, reps, /*threads=*/1, flat_results,
                       &report)) {
      return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1) {
      const int multi = static_cast<int>(std::min(8u, hw));
      if (!MeasureEngine(r, s, eps, reps, multi, flat_results, &report)) {
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "  engine-Nt skipped: single hardware thread available\n");
    }
  }

  // Oracle slice: nested loop + SoA on the same reduced inputs. check_bench
  // asserts their result counts are identical (exact correctness signal that
  // is comparable across machines).
  const size_t oracle_n = std::min<size_t>(n, 20'000);
  const std::vector<Tuple> r_small = UniformUnitDensity(oracle_n, 0xbe9c51);
  const std::vector<Tuple> s_small = UniformUnitDensity(oracle_n, 0x7a11ad);
  MeasureKernel(Kernel::kNestedLoop, r_small, s_small, eps, reps, &report);
  MeasureKernel(Kernel::kSweepSoA, r_small, s_small, eps, reps, &report);

  if (!bench::WriteJsonFile(report, path)) return 1;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace pasjoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return pasjoin::RunJsonMode("BENCH_localjoin.json");
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return pasjoin::RunJsonMode(argv[i] + 7);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
