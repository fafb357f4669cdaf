// Copyright 2026 The pasjoin Authors.
//
// End-to-end benchmark of the adaptive eps-distance join
// (core::AdaptiveDistanceJoin), with a per-layer breakdown by src/ module.
//
// One invocation measures one workload:
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   e2e_bench --smoke
//
//   1. The oracle: one SoA sweep over the whole inputs as a single
//      partition (no grid, no replication), giving the exact result count
//      and an order-insensitive pair checksum.
//   2. Untimed calls for 1.5 s (at least 3), each measuring the heap the
//      job holds at its peak.
//   3. Set-up, 3 times: generate both inputs from the seed and make the
//      first (cold) driver call on a trimmed heap, collecting result pairs
//      that must match the oracle's count and checksum.
//   4. Timed calls, tracing off, for S seconds: count-only driver calls
//      exactly as a user makes them, back to back.
//   5. With --trace 1, a traced pass: the driver's steps are re-composed
//      from outside by calling each module's public functions in the order
//      of core/adaptive_join.cc, under bench spans that the planner's and
//      engine's own spans nest into. Its counters must equal the untraced
//      calls' counters exactly, or the per-layer numbers would describe a
//      different program.
//
// Every count-only call must report the oracle's result count and the
// first call's replication, shuffle and candidate counters.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A wrong result or a guard mismatch exits 1.
//
// Why the inputs are the repository's fixed paper stand-ins (datagen's
// MakePaperDataset) rather than seed-generated layouts: re-drawing the
// Gaussian cluster layout per seed changes the join's work by about 2x
// (replicated objects 76k..146k and results 12M..31M over four seeds of
// S1xS2 at 1M points), which would swamp any regression bound. The seed
// varies what does not change the amount of work: the order of each input
// (which tuples land in which split and map task) and the seed of the 3%
// statistics sample (hence the agreements and the LPT plan).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/tuple.h"
#include "core/adaptive_join.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "exec/engine.h"
#include "exec/thread_pool.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "obs/trace_recorder.h"
#include "spatial/sweep_kernel.h"

namespace pasjoin::e2e {
namespace {

using datagen::PaperDataset;

/// One benchmark workload: a paper data set combination and join setting.
/// Everything else stays at the driver's defaults, which are the paper's:
/// 12 logical workers, 3% sample, cells of 2*eps, LPT, the SoA sweep kernel.
struct Workload {
  const char* name;
  PaperDataset r;
  PaperDataset s;
  /// Side sizes relative to the base cardinality (the paper's relative
  /// sizes: R1 = 94.1M, R2 = 42.7M, S1 = S2 = 100M).
  double r_scale;
  double s_scale;
  double eps;
  agreements::Policy policy;
  bool duplicate_free;
  /// Payload bytes per tuple, carried through the shuffle.
  size_t payload_bytes;
};

// Half of bench/'s 1M base: results stay below ~10M pairs, so the
// collected pairs of the cold call and the oracle stay near 150 MiB each.
constexpr size_t kBaseN = 500'000;
constexpr size_t kSmokeBaseN = 20'000;
// The grid's size follows the data extent and eps, not the point count:
// at fine-grid's eps of 0.012 the smoke run would still plan 2.5M cells.
// The smoke run uses at least this eps (about 100k cells on fine-grid).
constexpr double kSmokeMinEps = 0.06;

constexpr Workload kWorkloads[] = {
    {"synthetic-lpib", PaperDataset::kS1, PaperDataset::kS2, 1.0, 1.0, 0.12,
     agreements::Policy::kLPiB, true, 0},
    {"mixed-payload", PaperDataset::kR1, PaperDataset::kS1, 0.94, 1.0, 0.12,
     agreements::Policy::kDiff, true, 128},
    {"fine-grid", PaperDataset::kR2, PaperDataset::kR1, 0.43, 0.94, 0.012,
     agreements::Policy::kLPiB, true, 0},
    {"dedup-table6", PaperDataset::kR2, PaperDataset::kR1, 0.43, 0.94, 0.12,
     agreements::Policy::kLPiB, false, 0},
};

/// How much of each step one invocation runs.
struct RunPlan {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t base_n = kBaseN;
  int setup_reps = 3;
  /// Untimed calls before the timed ones: at least this many, each a memory
  /// probe, and for at least `warmup_seconds`.
  int memory_probes = 3;
  double warmup_seconds = 1.5;
  /// The timed loop runs at least this many calls even past `seconds`.
  int min_calls = 11;
  int trace_reps = 5;
  /// Where the traced pass writes its last Chrome trace ("" = nowhere).
  std::string trace_dir;
};

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

constexpr double kMiB = 1024.0 * 1024.0;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile `p` in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

// --- heap accounting ---------------------------------------------------------
//
// The job's memory is the heap it holds at its peak, counted in the global
// allocation functions below while a probe call runs. Peak RSS was tried
// first: with the same seed, separate processes settled at levels 15% apart
// (119..142 MiB on synthetic-lpib), an allocator effect; the bytes the job
// holds varied by under 0.1%.

namespace heap {

std::atomic<bool> counting{false};
std::atomic<int64_t> live{0};
std::atomic<int64_t> peak{0};

void Allocated(void* p) {
  const auto n = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = live.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t high = peak.load(std::memory_order_relaxed);
  while (now > high &&
         !peak.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
  }
}

void Freed(void* p) {
  live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                 std::memory_order_relaxed);
}

/// Peak bytes that `fn` held on the heap beyond what was live before it.
template <typename Fn>
double PeakBytes(Fn&& fn) {
  live.store(0);
  peak.store(0);
  counting.store(true);
  fn();
  counting.store(false);
  return static_cast<double>(peak.load());
}

}  // namespace heap

// --- inputs and oracle -------------------------------------------------------

struct Inputs {
  Dataset r;
  Dataset s;
  uint64_t sample_seed = 0;
};

void Shuffle(std::vector<Tuple>* tuples, Rng* rng) {
  for (size_t i = tuples->size(); i > 1; --i) {
    std::swap((*tuples)[i - 1], (*tuples)[rng->NextBounded(i)]);
  }
}

size_t Scaled(size_t base, double factor) {
  return static_cast<size_t>(static_cast<double>(base) * factor);
}

Inputs MakeInputs(const Workload& w, uint64_t seed, size_t base_n) {
  Inputs in;
  in.r = datagen::MakePaperDataset(w.r, Scaled(base_n, w.r_scale));
  in.s = datagen::MakePaperDataset(w.s, Scaled(base_n, w.s_scale));
  Rng rng(SplitMix64(seed));
  Shuffle(&in.r.tuples, &rng);
  Shuffle(&in.s.tuples, &rng);
  if (w.payload_bytes > 0) {
    in.r.SetPayloadBytes(w.payload_bytes);
    in.s.SetPayloadBytes(w.payload_bytes);
  }
  in.sample_seed = rng.NextUint64();
  return in;
}

/// Order-insensitive checksum of a result multiset.
uint64_t PairChecksum(const std::vector<ResultPair>& pairs) {
  uint64_t sum = 0;
  for (const ResultPair& p : pairs) {
    sum += SplitMix64(SplitMix64(static_cast<uint64_t>(p.r_id)) +
                      static_cast<uint64_t>(p.s_id));
  }
  return sum;
}

struct Oracle {
  uint64_t results = 0;
  uint64_t checksum = 0;
};

Oracle RunOracle(const Inputs& in, double eps) {
  std::vector<ResultPair> pairs;
  const spatial::JoinCounters c =
      spatial::SoaSweepJoinTuples(in.r.tuples, in.s.tuples, eps, &pairs);
  return Oracle{c.results, PairChecksum(pairs)};
}

// --- driver calls ------------------------------------------------------------

core::AdaptiveJoinOptions JoinOptions(const Workload& w, const Inputs& in,
                                      int threads) {
  core::AdaptiveJoinOptions o;
  o.eps = w.eps;
  o.policy = w.policy;
  o.duplicate_free = w.duplicate_free;
  o.sample_seed = in.sample_seed;
  o.physical_threads = threads;
  o.planning.threads = threads;
  return o;
}

/// The counters the untraced calls and the traced pass must agree on.
struct Counts {
  uint64_t replicated_r = 0;
  uint64_t replicated_s = 0;
  uint64_t shuffled_tuples = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;

  static Counts Of(const exec::JobMetrics& m) {
    return Counts{m.replicated_r, m.replicated_s, m.shuffled_tuples,
                  m.candidates, m.results};
  }
  bool operator==(const Counts&) const = default;

  std::string ToString() const {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "replicated_r=%llu replicated_s=%llu shuffled=%llu "
                  "candidates=%llu results=%llu",
                  static_cast<unsigned long long>(replicated_r),
                  static_cast<unsigned long long>(replicated_s),
                  static_cast<unsigned long long>(shuffled_tuples),
                  static_cast<unsigned long long>(candidates),
                  static_cast<unsigned long long>(results));
    return buf;
  }
};

// --- traced pass -------------------------------------------------------------

double SpanSeconds(const std::vector<obs::TraceEvent>& events,
                   const char* name) {
  int64_t ns = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, name) == 0) ns += e.duration_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

const obs::TraceEvent* FindSpan(const std::vector<obs::TraceEvent>& events,
                                const char* name) {
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, name) == 0) return &e;
  }
  return nullptr;
}

/// One traced, outside-composed run of the driver's steps.
struct ComposedRun {
  /// Wall time of the composed pipeline: the bench-composed-run span less
  /// its bench-probes child.
  double wall_s = 0.0;
  Counts counts;
  /// Per-layer metrics, in output order; empty when `error` is set.
  std::vector<Metric> layers;
  std::string error;
};

ComposedRun RunComposed(const Inputs& in,
                        const core::AdaptiveJoinOptions& options,
                        obs::TraceRecorder* rec) {
  ComposedRun out;
  const Dataset& r = in.r;
  const Dataset& s = in.s;
  exec::JobMetrics m;
  std::vector<double> loads;
  uint64_t replicas[2] = {0, 0};
  double assign_s = 0.0;
  double probe_s = 0.0;
  double cells = 0.0;
  double sampled = 0.0;
  double marked = 0.0;
  double locked = 0.0;
  int64_t release_start_ns = 0;
  const Stopwatch total;
  {
    // The steps, their arguments and the plan's lifetime mirror
    // core/adaptive_join.cc: the plan dies at the end of this scope, as it
    // does at the end of a driver call.
    obs::ScopedSpan pipeline(rec, "bench-composed-run", "bench");
    const Rect mbr = r.Mbr().Union(s.Mbr());
    const Result<grid::Grid> grid_result = [&] {
      obs::ScopedSpan step(rec, "grid.make", "bench");
      return grid::Grid::Make(mbr, options.eps, options.resolution_factor);
    }();
    if (!grid_result.ok()) {
      out.error = grid_result.status().ToString();
      return out;
    }
    const grid::Grid& grid = grid_result.value();
    const grid::GridStats stats = [&] {
      obs::ScopedSpan step(rec, "grid.sample", "bench");
      grid::GridStats st(&grid);
      st.AddSample(Side::kR, r, options.sample_rate, options.sample_seed);
      st.AddSample(Side::kS, s, options.sample_rate, options.sample_seed + 1);
      return st;
    }();
    core::Planner planner(options.planning);
    const agreements::AgreementType tie_break = agreements::AgreementFor(
        r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS);
    const agreements::AgreementGraph graph = [&] {
      obs::ScopedSpan step(rec, "agreements.plan", "bench");
      agreements::AgreementGraph g = core::PlanAgreementGraph(
          grid, stats, options.policy, tie_break, options.duplicate_free,
          options.marking_order, &planner, rec);
      // The driver counts these for its span args whether or not it traces.
      marked = static_cast<double>(g.CountMarked());
      locked = static_cast<double>(g.CountLocked());
      return g;
    }();
    std::vector<double> costs;
    const core::CellAssignment assignment = [&] {
      obs::ScopedSpan step(rec, "core.lpt", "bench");
      costs = core::PlanCellCosts(grid, stats, &planner, rec);
      return core::PlanLptAssignment(costs, options.workers, rec);
    }();
    const core::ReplicationAssigner assigner(&grid, &graph);
    const exec::AssignFn assign = [&assigner](const Tuple& t, Side side) {
      return assigner.Assign(t.pt, side);
    };
    exec::EngineOptions eo;
    eo.eps = options.eps;
    eo.workers = options.workers;
    eo.num_splits = options.num_splits;
    eo.collect_results = options.collect_results;
    eo.deduplicate = !options.duplicate_free;
    eo.carry_payloads = options.carry_payloads;
    eo.physical_threads = options.physical_threads;
    eo.local_kernel = options.local_kernel;
    eo.bounds = mbr;
    eo.trace = rec;
    const Result<exec::JoinRun> run = [&] {
      obs::ScopedSpan step(rec, "exec.run", "bench");
      return exec::TryRunPartitionedJoin(r, s, assign,
                                         assignment.AsOwnerFn(), eo);
    }();
    if (!run.ok()) {
      out.error = run.status().ToString();
      return out;
    }
    m = run.value().metrics;
    {
      // Bench-only probes, excluded from the traced wall. The Assign loop
      // times Algorithms 2-4 per tuple on one thread: the map phase's
      // per-tuple decision without the engine around it.
      obs::ScopedSpan probes(rec, "bench-probes", "bench");
      const Stopwatch probe_watch;
      for (const Tuple& t : r.tuples) {
        replicas[0] += assigner.Assign(t.pt, Side::kR).size() - 1;
      }
      for (const Tuple& t : s.tuples) {
        replicas[1] += assigner.Assign(t.pt, Side::kS).size() - 1;
      }
      assign_s = probe_watch.ElapsedSeconds();
      loads = assignment.WorkerLoads(costs);
      cells = static_cast<double>(grid.num_cells());
      sampled = static_cast<double>(stats.SampleSize(Side::kR) +
                                    stats.SampleSize(Side::kS));
      probe_s = probe_watch.ElapsedSeconds();
    }
    release_start_ns = rec->NowNs();
  }
  const int64_t release_end_ns = rec->NowNs();
  out.wall_s = total.ElapsedSeconds() - probe_s;
  const double tuples = static_cast<double>(r.size() + s.size());

  out.counts = Counts::Of(m);
  if (replicas[0] != m.replicated_r || replicas[1] != m.replicated_s) {
    out.error = "outside Assign loop replicated " +
                std::to_string(replicas[0]) + "/" +
                std::to_string(replicas[1]) + " but the engine " +
                std::to_string(m.replicated_r) + "/" +
                std::to_string(m.replicated_s);
    return out;
  }

  const std::vector<obs::TraceEvent> events = rec->Snapshot();
  const obs::TraceEvent* exec_run = FindSpan(events, "exec.run");
  const obs::TraceEvent* map = FindSpan(events, "phase-map");
  const obs::TraceEvent* join = FindSpan(events, "phase-join");
  if (exec_run == nullptr || map == nullptr || join == nullptr) {
    out.error = "traced pass lacks exec.run/phase-map/phase-join spans";
    return out;
  }
  double load_sum = 0.0;
  double load_max = 0.0;
  for (const double l : loads) {
    load_sum += l;
    load_max = std::max(load_max, l);
  }
  double busy = 0.0;
  for (const double b : m.worker_busy_join) busy += b;
  const double join_capacity =
      static_cast<double>(m.physical_threads) * m.measured_join_seconds;
  const auto end_ns = [](const obs::TraceEvent* e) {
    return e->start_ns + e->duration_ns;
  };

  out.layers = {
      {"grid.make_s", "s", SpanSeconds(events, "grid.make")},
      {"grid.cells", "count", cells},
      {"grid.sample_s", "s", SpanSeconds(events, "grid.sample")},
      {"grid.sampled_points", "count", sampled},
      {"agreements.plan_s", "s", SpanSeconds(events, "agreements.plan")},
      {"agreements.pairs_s", "s", SpanSeconds(events, "planning-pairs")},
      // Subgraph materialization plus Algorithm 1: never zero, unlike
      // marking alone, which dedup-table6 skips.
      {"agreements.quartets_s", "s",
       SpanSeconds(events, "planning-subgraphs") +
           SpanSeconds(events, "planning-marking")},
      {"agreements.marked_edges", "count", marked},
      {"agreements.locked_edges", "count", locked},
      {"core.lpt_s", "s", SpanSeconds(events, "core.lpt")},
      {"core.lpt_predicted_imbalance", "ratio",
       load_sum > 0.0
           ? load_max / (load_sum / static_cast<double>(loads.size()))
           : 1.0},
      {"core.assign_ns_per_tuple", "ns/tuple", assign_s * 1e9 / tuples},
      {"core.replicas_per_tuple", "replicas/tuple",
       static_cast<double>(replicas[0] + replicas[1]) / tuples},
      // Filled in by the caller from untraced calls' artifacts.
      {"core.driver_s", "s", 0.0},
      // Destroying the plan (statistics, agreement graph, placement, the
      // planner's pool), which a driver call also pays before returning.
      {"core.release_s", "s",
       static_cast<double>(release_end_ns - release_start_ns) * 1e-9},
      {"exec.prepare_s", "s",
       static_cast<double>(map->start_ns - exec_run->start_ns) * 1e-9},
      {"exec.map_s", "s", SpanSeconds(events, "phase-map")},
      {"exec.regroup_s", "s", SpanSeconds(events, "phase-regroup")},
      {"exec.join_s", "s", SpanSeconds(events, "phase-join")},
      // Everything after the join phase: the distinct step when the plan
      // is not duplicate-free, then result gathering and buffer teardown.
      {"exec.post_join_s", "s",
       static_cast<double>(end_ns(exec_run) - end_ns(join)) * 1e-9},
      {"exec.shuffled_tuples", "count",
       static_cast<double>(m.shuffled_tuples)},
      {"exec.shuffle_mb", "MiB", static_cast<double>(m.shuffle_bytes) / kMiB},
      {"exec.join_busy_frac", "ratio",
       join_capacity > 0.0 ? busy / join_capacity : 0.0},
      {"exec.join_imbalance", "ratio", m.JoinImbalance()},
      {"exec.tasks_failed", "count", static_cast<double>(m.tasks_failed)},
      {"spatial.sort_s", "s", m.kernel_sort_seconds},
      // The batched emission runs inside the sweep; count-only joins
      // emit nothing, so the two are reported together.
      {"spatial.sweep_s", "s",
       m.kernel_sweep_seconds + m.kernel_emit_seconds},
      {"spatial.candidates", "count", static_cast<double>(m.candidates)},
      {"spatial.hit_ratio", "ratio",
       m.candidates > 0 ? static_cast<double>(m.results) /
                              static_cast<double>(m.candidates)
                        : 0.0},
      // Filled in by the caller: they need the untraced median.
      {"obs.trace_overhead_frac", "ratio", 0.0},
      {"obs.dropped_events", "count",
       static_cast<double>(rec->dropped_events())},
  };
  return out;
}

// --- one workload ------------------------------------------------------------

void SetLayer(std::vector<Metric>* layers, const char* name, double value) {
  for (Metric& m : *layers) {
    if (std::strcmp(m.name, name) == 0) m.value = value;
  }
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Runs one workload; prints its result line and returns the exit code.
int RunWorkload(const Workload& w, const RunPlan& plan) {
  const int threads = exec::ThreadPool::DefaultThreads();
  std::fprintf(stderr,
               "e2e_bench: %s seed=%llu seconds=%g trace=%d threads=%d\n",
               w.name, static_cast<unsigned long long>(plan.seed),
               plan.seconds, plan.trace ? 1 : 0, threads);
  int attempted = 0;
  int failed = 0;

  // The oracle, then untimed calls for at least warmup_seconds, each also a
  // memory probe. The untimed calls run first because a spell of
  // single-threaded work (process start, the oracle) left the VM's idle
  // vCPUs running the next second of multi-threaded work up to 4x slower.
  Inputs in = MakeInputs(w, plan.seed, plan.base_n);
  const Stopwatch oracle_watch;
  const Oracle oracle = RunOracle(in, w.eps);
  std::fprintf(stderr, "  oracle: |R|=%zu |S|=%zu results=%llu (%.3f s)\n",
               in.r.size(), in.s.size(),
               static_cast<unsigned long long>(oracle.results),
               oracle_watch.ElapsedSeconds());
  const core::AdaptiveJoinOptions options = JoinOptions(w, in, threads);
  // Every count-only call must match the oracle's count and the first
  // call's counters.
  Counts expected;
  bool have_expected = false;
  uint64_t remote_bytes = 0;
  const auto accept = [&](const Result<exec::JoinRun>& run) {
    ++attempted;
    if (!run.ok()) {
      ++failed;
      std::fprintf(stderr, "  FAIL call %d: %s\n", attempted,
                   run.status().ToString().c_str());
      return false;
    }
    const exec::JobMetrics& m = run.value().metrics;
    const Counts counts = Counts::Of(m);
    if (!have_expected) {
      expected = counts;
      have_expected = true;
      remote_bytes = m.shuffle_remote_bytes;
    }
    if (m.results != oracle.results || counts != expected ||
        m.shuffle_remote_bytes != remote_bytes) {
      ++failed;
      std::fprintf(stderr, "  FAIL call %d: %s (oracle results=%llu)\n",
                   attempted, counts.ToString().c_str(),
                   static_cast<unsigned long long>(oracle.results));
      return false;
    }
    return true;
  };
  std::vector<double> peak_mib;
  const Stopwatch warmup;
  for (int calls = 0; calls < plan.memory_probes ||
                      warmup.ElapsedSeconds() < plan.warmup_seconds;
       ++calls) {
    bool ok = false;
    const double bytes = heap::PeakBytes(
        [&] { ok = accept(core::AdaptiveDistanceJoin(in.r, in.s, options)); });
    if (ok) peak_mib.push_back(bytes / kMiB);
  }

  // Set-up: inputs + the cold, pair-collecting call, each from a trimmed
  // heap, as in a fresh process. The pairs must match the oracle's.
  std::vector<double> setup_s;
  for (int k = 0; k < plan.setup_reps; ++k) {
    in = Inputs();
    malloc_trim(0);
    const Stopwatch watch;
    in = MakeInputs(w, plan.seed, plan.base_n);
    core::AdaptiveJoinOptions cold = JoinOptions(w, in, threads);
    cold.collect_results = true;
    const Result<exec::JoinRun> run =
        core::AdaptiveDistanceJoin(in.r, in.s, cold);
    setup_s.push_back(watch.ElapsedSeconds());
    ++attempted;
    if (!run.ok()) {
      ++failed;
      std::fprintf(stderr, "  FAIL cold call: %s\n",
                   run.status().ToString().c_str());
      continue;
    }
    const std::vector<ResultPair>& pairs = run.value().pairs;
    const uint64_t checksum = PairChecksum(pairs);
    if (run.value().metrics.results != oracle.results ||
        pairs.size() != oracle.results || checksum != oracle.checksum) {
      ++failed;
      std::fprintf(stderr,
                   "  FAIL cold call: %llu results, %zu pairs, checksum %s "
                   "the oracle's (%llu results)\n",
                   static_cast<unsigned long long>(run.value().metrics.results),
                   pairs.size(),
                   checksum == oracle.checksum ? "equal to" : "differs from",
                   static_cast<unsigned long long>(oracle.results));
    }
  }

  // Timed calls, tracing off, back to back as repeated calls in one process
  // make them.
  std::vector<double> wall;
  std::vector<double> makespan;
  const Stopwatch budget;
  for (int calls = 0; calls < plan.min_calls ||
                      budget.ElapsedSeconds() < plan.seconds;
       ++calls) {
    const Stopwatch watch;
    const Result<exec::JoinRun> run =
        core::AdaptiveDistanceJoin(in.r, in.s, options);
    const double seconds = watch.ElapsedSeconds();
    if (!accept(run)) continue;
    wall.push_back(seconds);
    makespan.push_back(run.value().metrics.TotalSeconds());
  }
  std::fprintf(stderr, "  timed: %zu calls, %s\n", wall.size(),
               expected.ToString().c_str());

  std::vector<Metric> metrics;
  bool guard_ok = true;
  if (!plan.trace) {
    metrics = {
        {"wall_s", "s", Median(wall)},
        {"wall_s_p66", "s", Percentile(wall, 66.0)},
        {"makespan_s", "s", Median(makespan)},
        {"setup_s", "s", Median(setup_s)},
        {"job_peak_mem_mb", "MiB", Median(peak_mib)},
        {"replicated_objects", "count",
         static_cast<double>(expected.replicated_r + expected.replicated_s)},
        {"shuffle_remote_mb", "MiB", static_cast<double>(remote_bytes) / kMiB},
    };
  } else {
    // Traced pass: per-layer numbers, guarded against the counters above.
    std::vector<std::vector<Metric>> reps;
    std::vector<double> traced_wall;
    std::vector<double> driver_s;
    for (int k = 0; k < plan.trace_reps; ++k) {
      obs::TraceRecorder rec;
      ComposedRun composed = RunComposed(in, options, &rec);
      if (!composed.error.empty() || composed.counts != expected) {
        guard_ok = false;
        std::fprintf(stderr,
                     "  FAIL layer-composition guard: %s\n    traced:   %s\n"
                     "    untraced: %s\n",
                     composed.error.c_str(), composed.counts.ToString().c_str(),
                     expected.ToString().c_str());
        break;
      }
      traced_wall.push_back(composed.wall_s);
      reps.push_back(std::move(composed.layers));
      // The driver's own account of its time, from one more untraced call
      // (the timed calls pass no artifacts, as a plain user call does not).
      core::AdaptiveJoinArtifacts artifacts;
      if (accept(core::AdaptiveDistanceJoin(in.r, in.s, options, &artifacts))) {
        driver_s.push_back(artifacts.driver_seconds);
      }
      if (k + 1 == plan.trace_reps && !plan.trace_dir.empty()) {
        const std::string path =
            plan.trace_dir + "/" + w.name + ".trace.json";
        const Status st = rec.WriteJson(path);
        std::fprintf(stderr, "  trace: %s\n",
                     st.ok() ? path.c_str() : st.ToString().c_str());
      }
    }
    if (!reps.empty()) {
      metrics = reps.front();
      for (size_t i = 0; i < metrics.size(); ++i) {
        std::vector<double> values;
        for (const std::vector<Metric>& rep : reps) {
          values.push_back(rep[i].value);
        }
        metrics[i].value = Median(std::move(values));
      }
      const double untraced = Median(wall);
      SetLayer(&metrics, "core.driver_s", Median(driver_s));
      SetLayer(&metrics, "obs.trace_overhead_frac",
               untraced > 0.0 ? Median(traced_wall) / untraced - 1.0 : 0.0);
    }
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s%s\n", m.name, m.value, m.unit,
                 std::strcmp(m.name, "wall_s_p66") == 0
                     ? (" (n=" + std::to_string(wall.size()) + ")").c_str()
                     : "");
  }
  const bool correct =
      failed == 0 && guard_ok && !wall.empty() && !metrics.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n"
               "       e2e_bench --smoke\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Every workload at a tiny size, with the oracle and the guard on.
int RunSmoke() {
  RunPlan plan;
  plan.base_n = kSmokeBaseN;
  plan.seconds = 0.0;
  plan.setup_reps = 1;
  plan.memory_probes = 1;
  plan.warmup_seconds = 0.0;
  plan.min_calls = 2;
  plan.trace_reps = 1;
  int rc = 0;
  for (Workload w : kWorkloads) {
    w.eps = std::max(w.eps, kSmokeMinEps);
    for (const bool trace : {false, true}) {
      plan.trace = trace;
      rc = std::max(rc, RunWorkload(w, plan));
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  RunPlan plan;
  const Workload* workload = nullptr;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return RunSmoke();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = FindWorkload(value);
      if (workload == nullptr) return Usage();
    } else if (arg == "--seed") {
      plan.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      plan.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && plan.seconds >= 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      plan.trace = value == "1";
    } else if (arg == "--trace-dir") {
      plan.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  return RunWorkload(*workload, plan);
}

}  // namespace
}  // namespace pasjoin::e2e

// Replacements of the global allocation functions, for heap::PeakBytes.
// Every unaligned form is replaced, so that blocks never cross between
// these and another allocator's (aligned forms stay the library's own).
void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (pasjoin::e2e::heap::counting.load(std::memory_order_relaxed)) {
    pasjoin::e2e::heap::Allocated(p);
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}

void operator delete(void* p) noexcept {
  if (p != nullptr &&
      pasjoin::e2e::heap::counting.load(std::memory_order_relaxed)) {
    pasjoin::e2e::heap::Freed(p);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

int main(int argc, char** argv) { return pasjoin::e2e::Main(argc, argv); }
