// Copyright 2026 The pasjoin Authors.
//
// Engine implementation: ONE dataflow, two executors.
//
// RunDataflow writes the map (route, fill) -> regroup -> join [-> dedup]
// sequence once.
// Each phase is a list of tasks — a compute body that fills an attempt-local
// output, and a commit that publishes it — handed to an executor:
//
//   * StealExecutor (fault injection disabled): every task runs exactly
//     once on a work-stealing runner loop and commits in place; each fill
//     frees its staged list and each worker's regroup its inbound shuffle
//     blocks once read;
//   * RecoveringExecutor (FaultOptions::enabled): runs each phase as waves
//     on the same runner loop, at most one attempt per task per wave.
//     Between waves the driver thread re-executes failed attempts from
//     retained inputs (bounded retries with exponential backoff), fails over
//     a lost logical worker, and backs up or resumes parked stragglers,
//     waiting out a resumed wave's straggler delay once. A fill's injected
//     fault strikes after its body ran. The dataflow keeps the staged
//     lists through the fill and the shuffle blocks through the join, so a
//     fill retries from its whole list and a lost worker's store is
//     rebuilt by re-running its regroup.
//
// The shuffle is columnar (exec/shuffle.h). A map task is a route task,
// which stages its split's instances and marks the partitions its side
// reaches, and a fill task, run in the next phase: once every route has
// committed, it writes the instances whose partition both sides reach
// (every instance when the router declares no range) into one exactly
// sized column block per destination, so each payload is copied once.
// Regroup sorts a worker's blocks into contiguous partition runs, and the
// join reads the runs in place. Both executors run
// the same task lists, including one join task per (worker, partition).
// See docs/FAULT_TOLERANCE.md for the recovery model and
// docs/PARALLELISM.md for stealing.
//
// Phase state is of two kinds only: task-indexed output slots, which a
// task's commit writes, and per-thread state (scratch, counters, busy
// time, the route's reach sets), which the driver thread folds after the
// phase. No lock guards accounting or join output. The join commits each
// item's pairs into the item's own slot, so the result comes out in the
// order of the item list for every thread count and both executors.
#include "exec/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/str_append.h"
#include "common/sync.h"
#include "exec/shuffle.h"
#include "exec/steal_queue.h"
#include "exec/thread_pool.h"
#include "spatial/rtree.h"
#include "spatial/sweep_kernel.h"

namespace pasjoin::exec {

namespace {

/// Per-thread state of the phases whose tasks need no scratch.
struct NoPhaseState {};

/// The error of an attempt the fault injector fails.
constexpr const char* kInjectedFault = "injected fault";

// ---------------------------------------------------------------------------
// Phase bodies, shared by both executors. Each body only reads what the
// recovering executor retains, which is what makes re-execution safe.
// ---------------------------------------------------------------------------

/// The split of map task `task`: split `task % num_splits` of relation
/// (task < num_splits ? R : S), co-located with logical worker
/// split % workers (its "HDFS block locality").
MapSplit MapTaskSplit(int task, const Dataset& r, const Dataset& s,
                      int num_splits, int workers) {
  const bool is_r = task < num_splits;
  const int split = task % num_splits;
  const Dataset& d = is_r ? r : s;
  const size_t n = d.tuples.size();
  return MapSplit{
      &d, is_r ? Side::kR : Side::kS,
      n * static_cast<size_t>(split) / static_cast<size_t>(num_splits),
      n * (static_cast<size_t>(split) + 1) / static_cast<size_t>(num_splits),
      split % workers};
}

/// Adds the map's counters to the job's metrics (once per phase, never per
/// tuple — docs/OBSERVABILITY.md): the routed ones from the route tasks,
/// the block bytes from the fill tasks.
void AccumulateMapMetrics(const std::vector<StagedSplit>& staged,
                          const std::vector<MapTaskOutput>& filled,
                          int num_splits, JobMetrics* m) {
  for (size_t task = 0; task < staged.size(); ++task) {
    const StagedSplit& out = staged[task];
    if (task < static_cast<size_t>(num_splits)) {
      m->replicated_r += out.replicated;
    } else {
      m->replicated_s += out.replicated;
    }
    m->shuffled_tuples += out.shuffled_tuples;
    m->shuffle_bytes += out.shuffle_bytes;
    m->shuffle_remote_bytes += out.remote_bytes;
    m->shuffle_block_bytes += filled[task].block_bytes;
  }
}

/// The counters and kernel timings of one or more joined partitions.
struct JoinTally {
  spatial::JoinCounters counters;
  spatial::KernelTimings timings;
  uint64_t partitions = 0;
  /// Ordered self-join matches the r.id < s.id filter dropped.
  uint64_t filtered = 0;

  JoinTally& operator+=(const JoinTally& other) {
    counters += other.counters;
    timings += other.timings;
    partitions += other.partitions;
    filtered += other.filtered;
    return *this;
  }
};

/// Join output of one (worker, partition) task attempt.
struct JoinOutput {
  std::vector<ResultPair> pairs;
  JoinTally tally;
};

/// Per-thread join state, reused across every partition the thread joins:
/// the SoA kernel scratch (SoaPartition instances are strictly
/// one-per-thread, spatial/sweep_kernel.h), the R-tree's indexed side, the
/// self-join pair buffer, the tally of the joins the thread committed, and
/// the time it spent rebuilding a lost worker's store.
struct JoinThreadState {
  spatial::SoaPartition soa_r;
  spatial::SoaPartition soa_s;
  std::vector<Tuple> indexed;
  std::vector<ResultPair> self_scratch;
  JoinTally committed;
  double rebuild_seconds = 0.0;
};

/// The [begin, end) slice of column `v`.
template <typename T>
std::span<const T> Slice(const std::vector<T>& v, size_t begin, size_t end) {
  return {v.data() + begin, end - begin};
}

/// Joins `run` by building an STR R-tree over one side — R when `index_r`,
/// S otherwise — gathered into `indexed`, and probing it with every
/// instance of the other side, read from the store's columns. Appends each
/// match as (r id, s id) to `pairs` unless it is null. Polls `cancel`
/// between probes once kKernelPollGrain candidates accumulated and returns
/// partial counters once it fires.
spatial::JoinCounters RTreeProbeJoin(const WorkerStore& store,
                                     const PartitionRun& run, double eps,
                                     bool index_r, std::vector<Tuple>* indexed,
                                     std::vector<ResultPair>* pairs,
                                     const spatial::KernelCancellation* cancel) {
  const size_t probe_begin = index_r ? run.mid : run.begin;
  const size_t probe_end = index_r ? run.end : run.mid;
  GatherTuples(store, index_r ? run.begin : run.mid,
               index_r ? run.mid : run.end, indexed);
  const spatial::RTree tree(*indexed);
  spatial::JoinCounters counters;
  uint64_t last_poll = 0;
  for (size_t i = probe_begin; i < probe_end; ++i) {
    const int64_t probe = store.id[i];
    counters.candidates += tree.RangeQuery(
        Point{store.x[i], store.y[i]}, eps, [&](const Tuple& hit) {
          ++counters.results;
          if (pairs != nullptr) {
            pairs->push_back(index_r ? ResultPair{hit.id, probe}
                                     : ResultPair{probe, hit.id});
          }
        });
    if (cancel != nullptr &&
        counters.candidates - last_poll >= spatial::kKernelPollGrain) {
      cancel->Pulse(counters.candidates - last_poll);
      last_poll = counters.candidates;
      if (cancel->ShouldStop()) return counters;
    }
  }
  if (cancel != nullptr) cancel->Pulse(counters.candidates - last_poll);
  return counters;
}

/// Joins ONE partition run of `store` into the empty `out`, never changing
/// the store, with the kernel options.local_kernel selects: the SoA sweep
/// loads the run's columns in place; the R-tree indexes R when `index_r`,
/// S otherwise. Both poll `cancel` every kKernelPollGrain steps, and the
/// partition boundary pulses once more. A cancelled call leaves partial
/// output, which is never committed.
void JoinSinglePartition(const WorkerStore& store, const PartitionRun& run,
                         const EngineOptions& options, bool index_r,
                         bool keep_pairs, JoinThreadState* scratch,
                         JoinOutput* out, obs::TraceRecorder* trace,
                         const spatial::KernelCancellation* cancel) {
  const bool self_join = options.self_join;
  obs::ScopedSpan span(trace, "join-partition", "engine");
  span.SetStringArg("kernel",
                    spatial::LocalJoinKernelName(options.local_kernel));
  span.AddArg("cell", run.part);
  JoinTally& tally = out->tally;
  tally.partitions = 1;
  // A self join's kernel sees every ordered match; the filter below keeps
  // r.id < s.id (each unordered pair once) and counts the rest so the phase
  // total can be corrected.
  std::vector<ResultPair>* const sink =
      self_join ? &scratch->self_scratch : keep_pairs ? &out->pairs : nullptr;
  if (self_join) sink->clear();
  switch (options.local_kernel) {
    case spatial::LocalJoinKernel::kSweepSoA:
      scratch->soa_r.LoadSorted(Slice(store.x, run.begin, run.mid),
                                Slice(store.y, run.begin, run.mid),
                                Slice(store.id, run.begin, run.mid),
                                &tally.timings, trace);
      scratch->soa_s.LoadSorted(Slice(store.x, run.mid, run.end),
                                Slice(store.y, run.mid, run.end),
                                Slice(store.id, run.mid, run.end),
                                &tally.timings, trace);
      tally.counters =
          spatial::SoaSweepJoin(scratch->soa_r, scratch->soa_s, options.eps,
                                sink, &tally.timings, trace, cancel);
      break;
    case spatial::LocalJoinKernel::kRTree:
      tally.counters = RTreeProbeJoin(store, run, options.eps, index_r,
                                      &scratch->indexed, sink, cancel);
      break;
  }
  if (self_join) {
    Stopwatch filter_watch;
    for (const ResultPair& p : scratch->self_scratch) {
      if (p.r_id >= p.s_id) {
        ++tally.filtered;
        continue;
      }
      if (keep_pairs) out->pairs.push_back(p);
    }
    tally.timings.emit_seconds += filter_watch.ElapsedSeconds();
  }
  if (cancel != nullptr) cancel->Pulse(1);
  span.AddArg("candidates", static_cast<int64_t>(tally.counters.candidates));
  span.AddArg("results", static_cast<int64_t>(tally.counters.results));
}

/// One (worker, partition) task of the join phase: run `run` of the
/// worker's store, which joins partition `part`.
struct JoinItem {
  int worker = 0;
  PartitionId part = 0;
  size_t run = 0;
};

/// A worker lost in the join phase: its store is dropped before the phase,
/// and the first attempt that needs it rebuilds it by re-running the
/// worker's regroup over the retained shuffle blocks, under `mu` (rank
/// kEngineWorkerStore) while the others wait.
struct LostWorkerStore {
  Mutex mu{"LostWorkerStore::mu", lockrank::kEngineWorkerStore};
  bool rebuilt PASJOIN_GUARDED_BY(mu) = false;
};

/// Hash-partitions one worker's result pairs — the pairs of its join items,
/// in item order — across `workers` dedup buckets. Routes through
/// ResultPairShardHash (a splitmix64-finalized mix): the raw ResultPairHash
/// leaves low-bit structure in place, which degenerated to severe shard
/// imbalance for power-of-two-strided tuple ids on power-of-two worker
/// counts (tests/common/shard_hash_test.cc documents the failure). With
/// `consume`, frees each item's pairs once scattered. Polls `cancel` every
/// kKernelPollGrain pairs (partial output on cancel).
std::vector<std::vector<ResultPair>> ScatterWorkerPairs(
    std::span<std::vector<ResultPair>> item_pairs, int workers, bool consume,
    const spatial::KernelCancellation* cancel) {
  std::vector<std::vector<ResultPair>> out(static_cast<size_t>(workers));
  const ResultPairShardHash hasher;
  uint64_t done = 0;
  for (std::vector<ResultPair>& pairs : item_pairs) {
    for (const ResultPair& p : pairs) {
      out[hasher(p) % static_cast<size_t>(workers)].push_back(p);
      if (cancel != nullptr &&
          (++done & (spatial::kKernelPollGrain - 1)) == 0) {
        cancel->Pulse(spatial::kKernelPollGrain);
        if (cancel->ShouldStop()) return out;
      }
    }
    if (consume) std::vector<ResultPair>().swap(pairs);
  }
  if (cancel != nullptr) {
    cancel->Pulse(done & (spatial::kKernelPollGrain - 1));
  }
  return out;
}

struct DedupMergeOutput {
  std::vector<ResultPair> unique;
  uint64_t count = 0;
};

/// Removes duplicates in dedup bucket `w` across all source workers, in one
/// open-addressing table sized for every pair the bucket received: flat
/// slot and occupancy arrays (no sentinel id — every int64_t is a valid
/// tuple id), linear probing, and two frees per bucket. The home slot is
/// the multiply-shift of ResultPairShardHash, i.e. its HIGH bits: the
/// scatter routed the bucket by `hash % workers`, which fixes the low bits
/// modulo gcd(workers, 2^k). Appends a pair to `unique` when first seen, so
/// the output keeps the scatter's order. With `consume`, frees each source
/// bucket once inserted. Polls `cancel` every kKernelPollGrain pairs
/// (partial output on cancel).
DedupMergeOutput MergeDedupBucket(
    std::vector<std::vector<std::vector<ResultPair>>>* buckets, int w,
    int workers, bool collect, bool consume,
    const spatial::KernelCancellation* cancel) {
  const auto column = static_cast<size_t>(w);
  size_t n = 0;
  for (int src = 0; src < workers; ++src) {
    n += (*buckets)[static_cast<size_t>(src)][column].size();
  }
  const size_t cap = n + n / 2 + 16;
  std::vector<ResultPair> slots(cap);
  std::vector<uint8_t> used(cap, 0);
  const ResultPairShardHash hasher;
  DedupMergeOutput out;
  uint64_t done = 0;
  for (int src = 0; src < workers; ++src) {
    std::vector<ResultPair>& bucket =
        (*buckets)[static_cast<size_t>(src)][column];
    for (const ResultPair& p : bucket) {
      auto i = static_cast<size_t>(
          (static_cast<unsigned __int128>(hasher(p)) * cap) >> 64);
      while (used[i] != 0 && !(slots[i] == p)) {
        if (++i == cap) i = 0;
      }
      if (used[i] == 0) {
        used[i] = 1;
        slots[i] = p;
        ++out.count;
        if (collect) out.unique.push_back(p);
      }
      if (cancel != nullptr &&
          (++done & (spatial::kKernelPollGrain - 1)) == 0) {
        cancel->Pulse(spatial::kKernelPollGrain);
        if (cancel->ShouldStop()) return out;
      }
    }
    if (consume) std::vector<ResultPair>().swap(bucket);
  }
  if (cancel != nullptr) {
    cancel->Pulse(done & (spatial::kKernelPollGrain - 1));
  }
  return out;
}

/// Adds the dedup shuffle traffic (pair bytes crossing workers) to `*m`.
void AccumulateDedupShuffle(
    const std::vector<std::vector<std::vector<ResultPair>>>& buckets,
    int workers, JobMetrics* m) {
  uint64_t total_bytes = 0;
  for (int src = 0; src < workers; ++src) {
    for (int dst = 0; dst < workers; ++dst) {
      if (src == dst) continue;
      total_bytes +=
          buckets[static_cast<size_t>(src)][static_cast<size_t>(dst)].size() *
          sizeof(ResultPair);
    }
  }
  m->shuffle_bytes += total_bytes;
  m->shuffle_remote_bytes += total_bytes;
}

// ---------------------------------------------------------------------------
// Executors. Both run a phase given as:
//
//   owner_of(task)                    -> logical worker the task belongs to
//   compute(task, state, cancel)      -> the task's attempt-local output
//   commit(task, state, output&&)     publishes one attempt's output
//   finish(state)                     folds one thread state, after the phase
//
// `State` is per-thread state, default-constructed by the executor and
// reused across every task the thread runs. commit writes the task's own
// output slot and may add to `state`; nothing else is shared. After the
// phase the driver thread calls finish on every state and sums the
// threads' busy rows. compute must leave shared inputs intact when the
// executor retains them (kRetainsInputs), since a failed attempt may run
// it again.
// ---------------------------------------------------------------------------

/// One phase's executor-facing description.
struct PhaseSpec {
  Phase phase = Phase::kMap;
  int count = 0;
  /// Steal-queue claim size (the recovering executor claims its attempts
  /// one at a time).
  int grain = 1;
  /// Receives the busy time of committed tasks, by owning logical worker
  /// (sized to the worker count).
  std::vector<double>* busy = nullptr;
  /// Receives the phase's measured wall time.
  double* measured_seconds = nullptr;
  /// An arg of the phase's span, when named (a string literal).
  const char* arg_name = nullptr;
  int64_t arg = 0;
};

/// A phase's simulated makespan: the largest per-worker busy time.
double Makespan(const std::vector<double>& busy) {
  return busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
}

/// The cache line size that threads' phase state is kept apart by: the
/// states sit side by side in one vector, and a line two threads write
/// would move between their cores on every task.
constexpr size_t kCacheLine = 64;

/// One thread's State, on cache lines of its own.
template <typename State>
struct alignas(kCacheLine) ThreadState {
  State state;
};

/// The busy time of the tasks each thread committed, by (thread, owning
/// worker). A thread adds only to its own row; rows sit a cache line
/// apart, so no two threads write one line.
class BusyRows {
 public:
  BusyRows(int threads, size_t workers)
      : stride_(workers + kPad),
        seconds_(kPad + static_cast<size_t>(threads) * stride_, 0.0) {}

  void Add(int thread, int worker, double seconds) {
    seconds_[kPad + static_cast<size_t>(thread) * stride_ +
             static_cast<size_t>(worker)] += seconds;
  }

  /// Adds every row to `busy`, which is sized to the worker count.
  void SumInto(std::vector<double>* busy) const {
    for (size_t row = kPad; row < seconds_.size(); row += stride_) {
      for (size_t w = 0; w < busy->size(); ++w) {
        (*busy)[w] += seconds_[row + w];
      }
    }
  }

 private:
  static constexpr size_t kPad = kCacheLine / sizeof(double);
  const size_t stride_;
  std::vector<double> seconds_;
};

/// The driver-track span of each Phase and the span of its tasks on the
/// owning worker's track, indexed by the Phase value.
constexpr std::array<const char*, 6> kPhaseSpanNames = {
    "phase-map",          "phase-regroup",     "phase-join",
    "phase-dedup-scatter", "phase-dedup-merge", "phase-fill"};
constexpr std::array<const char*, 6> kTaskSpanNames = {
    "map-task",           "regroup-task",     "join-task",
    "dedup-scatter-task", "dedup-merge-task", "fill-task"};

/// The `finish` of phases with nothing to fold from their thread state.
struct NoFinish {
  template <typename State>
  void operator()(State&) const {}
};

/// The `commit` of phases whose task t owns slot t of `slots`.
template <typename Output>
auto CommitTo(std::vector<Output>* slots) {
  return [slots](int task, auto& /*state*/, Output&& out) {
    (*slots)[static_cast<size_t>(task)] = std::move(out);
  };
}

/// Adds the args a task's output reports to its task span: a fill task,
/// the instances its blocks hold and the bytes they allocate; a regroup,
/// the instances it kept. Other outputs report none. The output may be one
/// a cancel cut short, so only its counters are read.
void AddTaskSpanArgs(obs::ScopedSpan& /*span*/, const auto& /*out*/) {}
void AddTaskSpanArgs(obs::ScopedSpan& span, const MapTaskOutput& out) {
  span.AddArg("instances", static_cast<int64_t>(out.instances));
  span.AddArg("bytes", static_cast<int64_t>(out.block_bytes));
}
void AddTaskSpanArgs(obs::ScopedSpan& span, const WorkerStore& store) {
  span.AddArg("kept", static_cast<int64_t>(store.id.size()));
}

/// Runs one phase of either executor: the phase's span on the driver track
/// and its measured wall time around `run_tasks(states, rows)`, which gets
/// one State and one busy row per pool thread. Then the driver thread
/// finishes every State and adds the busy rows to `spec.busy`.
template <typename State, typename Finish, typename RunTasks>
Status RunPhase(obs::TraceRecorder* trace, int threads, const PhaseSpec& spec,
                const Finish& finish, const RunTasks& run_tasks) {
  obs::ScopedSpan phase_span(
      trace, kPhaseSpanNames[static_cast<size_t>(spec.phase)], "phase");
  phase_span.SetTrack(obs::kDriverTrack);
  phase_span.AddArg("tasks", spec.count);
  if (spec.arg_name != nullptr) phase_span.AddArg(spec.arg_name, spec.arg);
  Stopwatch phase_wall;
  std::vector<ThreadState<State>> states(static_cast<size_t>(threads));
  BusyRows rows(threads, spec.busy->size());
  Status st = run_tasks(states, rows);
  for (ThreadState<State>& t : states) finish(t.state);
  rows.SumInto(spec.busy);
  *spec.measured_seconds += phase_wall.ElapsedSeconds();
  return st;
}

/// The runner loop both executors share (docs/PARALLELISM.md): one runner
/// per pool thread, at most `count`, claims grain-sized blocks of [0,
/// count) from a StealQueue (own slice first, stealing once dry) and calls
/// `body(runner, i)` for each i it claims; then the pool drains. So a
/// straggling range is finished by whichever thread frees up — logical
/// workers stay a pure placement concept. Once `job_token` fires, runners
/// stop claiming and skip the rest of a claimed block, and a runner
/// dequeued after the cancel returns at once.
template <typename Body>
void RunOnRunners(ThreadPool* pool, const CancellationToken& job_token,
                  int count, int grain, const Body& body) {
  const int runners = std::min(pool->num_threads(), count);
  StealQueue queue(count, std::max(1, runners), grain);
  for (int rnr = 0; rnr < runners; ++rnr) {
    pool->Submit([&, rnr] {
      if (job_token.IsCancelled()) return;  // dequeued after the cancel
      int begin = 0;
      int end = 0;
      while (!job_token.IsCancelled() && queue.Next(rnr, &begin, &end)) {
        for (int i = begin; i < end; ++i) {
          if (job_token.IsCancelled()) break;
          body(rnr, i);
        }
      }
    });
  }
  pool->Wait();
}

/// Work-stealing executor: one attempt per task, committed in place on the
/// runner loop.
///
/// Accounting: each runner has its own State and busy row; a task's elapsed
/// time goes to owner_of(task) in its runner's row, and the driver folds
/// the runners after the phase. When tracing, the phase gets a span on the
/// driver track and every task a span on its owning worker's track —
/// physical interleaving is invisible in the trace by design.
///
/// Cancellation: the token's status is returned after the pool drains, and
/// the caller then discards the phase's outputs. Kernel-level polls inside
/// compute keep finer granularity.
class StealExecutor {
 public:
  static constexpr bool kRetainsInputs = false;

  StealExecutor(ThreadPool* pool, const CancellationToken& job_token,
                obs::TraceRecorder* trace)
      : pool_(pool), job_token_(job_token), trace_(trace) {}

  PASJOIN_DISALLOW_COPY(StealExecutor);

  template <typename State = NoPhaseState, typename OwnerOf, typename Compute,
            typename Commit, typename Finish = NoFinish>
  Status Run(const PhaseSpec& spec, const OwnerOf& owner_of,
             const Compute& compute, const Commit& commit,
             const Finish& finish = Finish()) {
    const char* const task_name =
        kTaskSpanNames[static_cast<size_t>(spec.phase)];
    return RunPhase<State>(
        trace_, pool_->num_threads(), spec, finish,
        [&](std::vector<ThreadState<State>>& states, BusyRows& rows) {
          RunOnRunners(pool_, job_token_, spec.count, spec.grain,
                       [&](int rnr, int i) {
                         State& state = states[static_cast<size_t>(rnr)].state;
                         const int w = owner_of(i);
                         obs::ScopedTrack track_scope(trace_, w);
                         obs::ScopedSpan span(trace_, task_name, "task");
                         span.AddArg("task", i);
                         Stopwatch watch;
                         auto out = compute(i, state, &job_cancel_);
                         AddTaskSpanArgs(span, out);
                         commit(i, state, std::move(out));
                         rows.Add(rnr, w, watch.ElapsedSeconds());
                       });
          return job_token_.ToStatus();
        });
  }

  /// No fault injection: no worker is ever lost, no task targeted.
  int WorkerLostIn(Phase /*phase*/) const { return -1; }
  void FailFirstAttempt(Phase /*phase*/, int /*task*/) {}
  void AddStats(JobMetrics* /*m*/) const {}

 private:
  ThreadPool* const pool_;
  const CancellationToken job_token_;
  const spatial::KernelCancellation job_cancel_{&job_token_, nullptr};
  obs::TraceRecorder* const trace_;
};

/// Aggregated fault-tolerance counters of one job.
struct FaultStats {
  uint64_t failed = 0;
  uint64_t retried = 0;
  uint64_t speculated = 0;
  double recovery_seconds = 0.0;
};

/// Recovering executor (docs/FAULT_TOLERANCE.md): runs each phase as waves
/// on the runner loop. A wave gives every pending task at most one attempt,
/// which computes into its own output and, if it succeeds, commits in place
/// with its runner's State and busy row. Between waves the driver thread
/// reads the wave's outcomes and plans the next one (PlanWave): retries of
/// failed tasks, and backups or resumptions of parked stragglers.
///
/// Two attempts of one task never run at once, so a commit needs no
/// referee, and the attempts launched follow from the injector's decisions
/// alone, never from timing. The pool's Wait() orders a wave's outcomes
/// before the driver reads them, and the driver's plan before the next
/// wave's runners start.
class RecoveringExecutor {
 public:
  static constexpr bool kRetainsInputs = true;

  RecoveringExecutor(ThreadPool* pool, const FaultOptions& fault, int workers,
                     const CancellationToken& job_token, Watchdog* watchdog,
                     obs::TraceRecorder* trace)
      : pool_(pool),
        injector_(fault),
        workers_(workers),
        job_token_(job_token),
        watchdog_(watchdog),
        trace_(trace) {}

  PASJOIN_DISALLOW_COPY(RecoveringExecutor);

  template <typename State = NoPhaseState, typename OwnerOf, typename Compute,
            typename Commit, typename Finish = NoFinish>
  Status Run(const PhaseSpec& spec, const OwnerOf& owner_of,
             const Compute& compute, const Commit& commit,
             const Finish& finish = Finish()) {
    const char* const task_name =
        kTaskSpanNames[static_cast<size_t>(spec.phase)];
    return RunPhase<State>(
        trace_, pool_->num_threads(), spec, finish,
        [&](std::vector<ThreadState<State>>& states, BusyRows& rows) {
          phase_ = spec.phase;
          tasks_.assign(static_cast<size_t>(spec.count), TaskState());
          for (int t = 0; t < spec.count; ++t) {
            tasks_[static_cast<size_t>(t)].owner = owner_of(t);
          }
          committed_ = 0;
          if (injector_.LosesWorkerIn(phase_)) {
            worker_lost_ = true;
            TraceInstant(trace_, "fault", "fault-worker-lost",
                         obs::kDriverTrack, "worker", injector_.lost_worker());
          }
          Status st;
          while ((st = PlanWave()).ok() && !wave_.empty()) {
            if (!AwaitResumed(task_name)) return AbandonWave();
            RunOnRunners(pool_, job_token_, static_cast<int>(wave_.size()), 1,
                         [&](int rnr, int i) {
                           RunAttempt(&wave_[static_cast<size_t>(i)],
                                      task_name,
                                      states[static_cast<size_t>(rnr)].state,
                                      &rows, rnr, compute, commit);
                         });
            if (job_token_.IsCancelled()) return AbandonWave();
            SettleWave();
          }
          return st;
        });
  }

  /// The logical worker lost at the start of `phase`, or -1.
  int WorkerLostIn(Phase phase) const {
    return injector_.LosesWorkerIn(phase) ? injector_.lost_worker() : -1;
  }

  /// Deterministically fails the first attempt of `task` in `phase`. Call
  /// between phases only (FaultInjector's const-after-setup contract).
  void FailFirstAttempt(Phase phase, int task) {
    injector_.AddTargetedFailure(phase, task);
  }

  /// Adds the job's fault counters and retry time to `*m`.
  void AddStats(JobMetrics* m) const {
    m->tasks_failed += stats_.failed;
    m->tasks_retried += stats_.retried;
    m->tasks_speculated += stats_.speculated;
    m->watchdog_fires += watchdog_->fires();
    m->recovery_seconds += stats_.recovery_seconds;
  }

 private:
  /// One task of the running phase, as the driver sees it between waves.
  struct TaskState {
    int owner = 0;
    /// Attempts launched so far, which numbers the next one.
    int attempts = 0;
    int failures = 0;
    /// Failed in the last wave and not retried yet.
    bool failed = false;
    bool committed = false;
    /// The first attempt is an injected straggler, waiting off the pool for
    /// a backup or for its own resumption.
    bool parked = false;
    bool speculated = false;
    std::string last_error;
  };

  /// One attempt of a wave. The runner that claims it writes the outcome;
  /// the driver reads it once the pool has drained.
  struct Attempt {
    enum class Outcome : uint8_t { kAbandoned, kCommitted, kFailed };

    int task = 0;
    int attempt = 0;
    double backoff_seconds = 0.0;
    bool is_retry = false;
    /// A parked straggler's first attempt: the driver waits out the
    /// straggler delay before the wave's runners start.
    bool resumed = false;
    /// A resumed attempt's heartbeat, registered with the watchdog while
    /// the driver waits.
    std::shared_ptr<TaskHeartbeat> heartbeat{};
    Outcome outcome = Outcome::kAbandoned;
    std::string error{};
    double elapsed_seconds = 0.0;
  };

  /// Waits out the straggler delay of the wave's resumed attempts on the
  /// driver thread, once for the whole wave, with every resumed attempt's
  /// heartbeat registered: the watchdog sees them flat and may cancel any,
  /// and a cancelled attempt ends the wait on its own token. Returns false
  /// once the job is cancelled.
  bool AwaitResumed(const char* task_name) {
    std::vector<Attempt*> resumed;
    for (Attempt& a : wave_) {
      if (!a.resumed) continue;
      a.heartbeat = std::make_shared<TaskHeartbeat>(job_token_, task_name,
                                                    a.task);
      if (watchdog_ != nullptr) watchdog_->Register(a.heartbeat);
      resumed.push_back(&a);
    }
    const Stopwatch wait;
    const double delay = injector_.StragglerDelaySeconds();
    for (const Attempt* a : resumed) {
      const double left = delay - wait.ElapsedSeconds();
      if (left <= 0.0 || job_token_.IsCancelled()) break;
      a->heartbeat->token().WaitForCancellation(left);
    }
    return !job_token_.IsCancelled();
  }

  /// Runs one attempt on runner `rnr`: its backoff, then, unless it fails
  /// outright, its body under a fresh heartbeat (a resumed attempt's, once
  /// its wait is over). The output commits unless the attempt's token fired
  /// (a body cut short returns partial output) or a fill's injected fault
  /// strikes: it strikes after the body wrote the task's blocks, as a fill
  /// that dies midway would, so the retry needs the staged list the body
  /// read. A job cancel leaves the attempt kAbandoned.
  template <typename State, typename Compute, typename Commit>
  void RunAttempt(Attempt* a, const char* task_name, State& state,
                  BusyRows* rows, int rnr, const Compute& compute,
                  const Commit& commit) {
    const int task = a->task;
    if (a->backoff_seconds > 0.0) {
      TraceInstant(trace_, "fault", "fault-backoff", obs::kDriverTrack, "task",
                   task);
      // Interruptible: a job cancel ends the wait.
      if (job_token_.WaitForCancellation(a->backoff_seconds)) return;
    }
    // The attempt span lands on the attributed worker's track, and kernel
    // spans opened inside `compute` inherit the track. Failed attempts
    // record committed=0, so the trace rollup counts only the attempts the
    // busy rows count.
    const int attributed = Attribution(task);
    obs::ScopedTrack track_scope(trace_, attributed);
    std::optional<obs::ScopedSpan> span;
    span.emplace(trace_, task_name, "task");
    span->AddArg("task", task);
    span->AddArg("attempt", a->attempt);
    const Stopwatch watch;
    std::string error = OutrightFailure(task, a->attempt);
    const bool fails_after_body =
        phase_ == Phase::kFill && error == kInjectedFault;
    if (fails_after_body) error.clear();
    bool committed = false;
    if (error.empty()) {
      std::shared_ptr<TaskHeartbeat> heartbeat = std::move(a->heartbeat);
      if (heartbeat == nullptr) {
        heartbeat =
            std::make_shared<TaskHeartbeat>(job_token_, task_name, task);
        if (watchdog_ != nullptr) watchdog_->Register(heartbeat);
      }
      const CancellationToken token = heartbeat->token();
      if (!token.IsCancelled()) {
        try {
          const spatial::KernelCancellation kc{&token, heartbeat->cell()};
          auto out = compute(task, state, &kc);
          if (token.IsCancelled()) {
            // Discarded below, with the token's verdict.
          } else if (fails_after_body) {
            error = kInjectedFault;
          } else {
            AddTaskSpanArgs(*span, out);
            commit(task, state, std::move(out));
            committed = true;
          }
        } catch (const std::exception& e) {
          error = e.what();
        } catch (...) {
          error = "unknown exception";
        }
      }
      if (watchdog_ != nullptr) watchdog_->Unregister(heartbeat);
      if (!committed && error.empty()) {
        if (job_token_.IsCancelled()) {
          span->AddArg("committed", 0);
          return;
        }
        error = token.ToStatus().message();  // the watchdog's stall verdict
      }
    }
    a->elapsed_seconds = watch.ElapsedSeconds();
    if (committed) rows->Add(rnr, attributed, a->elapsed_seconds);
    span->AddArg("committed", committed ? 1 : 0);
    span.reset();  // the span ends where the busy time does
    if (!committed) {
      TraceInstant(trace_, "fault", "fault-failure", attributed, "task", task);
    }
    a->error = std::move(error);
    a->outcome =
        committed ? Attempt::Outcome::kCommitted : Attempt::Outcome::kFailed;
  }

  /// Plans the next wave into wave_, in task order: each task's first
  /// attempt, unless it is an injected straggler, which parks; a retry of
  /// every task that failed in the last wave, with exponential backoff, or
  /// kResourceExhausted once a task has spent its retry budget. Then, with
  /// speculation on and max(3, count / 4) tasks committed, one backup of
  /// every parked straggler; otherwise, once nothing else is left to run,
  /// the parked stragglers themselves.
  Status PlanWave() {
    const FaultOptions& fo = injector_.options();
    const int count = static_cast<int>(tasks_.size());
    wave_.clear();
    for (int t = 0; t < count; ++t) {
      TaskState& ts = tasks_[static_cast<size_t>(t)];
      if (ts.attempts == 0) {
        ts.attempts = 1;
        ts.parked = OutrightFailure(t, 0).empty() &&
                    injector_.IsStraggler(phase_, t, 0);
        if (!ts.parked) wave_.push_back(Attempt{.task = t});
      } else if (ts.failed) {
        if (ts.failures > fo.max_retries) {
          std::string message;
          AppendF(&message,
                  "task %d of phase %s failed %d time(s), retry budget (%d) "
                  "exhausted; last error: %s",
                  t, PhaseName(phase_), ts.failures, fo.max_retries,
                  ts.last_error.c_str());
          return Status::ResourceExhausted(std::move(message));
        }
        ts.failed = false;
        ++stats_.retried;
        TraceInstant(trace_, "fault", "fault-retry", obs::kDriverTrack, "task",
                     t);
        wave_.push_back(Attempt{
            .task = t,
            .attempt = ts.attempts++,
            .backoff_seconds =
                std::ldexp(fo.backoff_base_ms, ts.failures - 1) / 1000.0,
            .is_retry = true});
      }
    }
    const bool back_up =
        fo.speculation && committed_ >= std::max(3, count / 4);
    if (!back_up && !wave_.empty()) return Status::OK();
    for (int t = 0; t < count; ++t) {
      TaskState& ts = tasks_[static_cast<size_t>(t)];
      if (!ts.parked || ts.speculated) continue;
      if (back_up) {
        ts.speculated = true;
        ++stats_.speculated;
        TraceInstant(trace_, "fault", "fault-speculate", obs::kDriverTrack,
                     "task", t);
        wave_.push_back(Attempt{.task = t, .attempt = ts.attempts++});
      } else {
        ts.parked = false;
        wave_.push_back(Attempt{.task = t, .resumed = true});
      }
    }
    return Status::OK();
  }

  /// Folds a finished wave into the task states and the fault counters.
  void SettleWave() {
    for (Attempt& a : wave_) {
      TaskState& ts = tasks_[static_cast<size_t>(a.task)];
      if (a.is_retry) {
        stats_.recovery_seconds += a.backoff_seconds + a.elapsed_seconds;
      }
      if (a.outcome == Attempt::Outcome::kCommitted) {
        ts.committed = true;
        ++committed_;
        continue;
      }
      ++stats_.failed;
      ++ts.failures;
      ts.failed = true;
      ts.last_error = std::move(a.error);
    }
  }

  /// Ends a phase the job's token cancelled: one "cancel-abandon" instant
  /// per attempt the wave left unfinished, and the token's status. The
  /// watchdog stops sampling the resumed attempts that never started.
  Status AbandonWave() {
    for (Attempt& a : wave_) {
      if (a.heartbeat != nullptr && watchdog_ != nullptr) {
        watchdog_->Unregister(a.heartbeat);
      }
      if (a.outcome == Attempt::Outcome::kAbandoned) {
        TraceInstant(trace_, "cancel", "cancel-abandon", obs::kDriverTrack,
                     "task", a.task);
      }
    }
    return job_token_.ToStatus();
  }

  /// Why the attempt fails before doing any work — its worker was lost at
  /// the start of this phase, or the injector fails it (a fill's fault
  /// strikes later, in RunAttempt) — or "" if it does not.
  std::string OutrightFailure(int task, int attempt) const {
    const int lost = injector_.lost_worker();
    if (attempt == 0 && injector_.LosesWorkerIn(phase_) &&
        tasks_[static_cast<size_t>(task)].owner == lost) {
      return "logical worker " + std::to_string(lost) + " lost";
    }
    if (injector_.ShouldFail(phase_, task, attempt)) return kInjectedFault;
    return "";
  }

  /// Logical worker an attempt of `task` is attributed to: the
  /// deterministic failover neighbor once the owner has been lost.
  int Attribution(int task) const {
    const int owner = tasks_[static_cast<size_t>(task)].owner;
    const int lost = injector_.lost_worker();
    return worker_lost_ && owner == lost ? (lost + 1) % workers_ : owner;
  }

  ThreadPool* const pool_;
  FaultInjector injector_;
  const int workers_;
  const CancellationToken job_token_;
  Watchdog* const watchdog_;
  obs::TraceRecorder* const trace_;
  bool worker_lost_ = false;
  FaultStats stats_;
  /// The running phase, its tasks, their commits so far, and the wave.
  Phase phase_ = Phase::kMap;
  std::vector<TaskState> tasks_;
  int committed_ = 0;
  std::vector<Attempt> wave_;
};

// ---------------------------------------------------------------------------
// The dataflow.
// ---------------------------------------------------------------------------

/// Runs map -> regroup -> join [-> dedup scatter -> dedup merge] on `ex`.
/// `index_r` picks the R-tree kernel's indexed side; `threads` is the pool
/// size (for the join's steal grain and the
/// metrics); `job_token` is the job's cancellation token.
template <typename Executor>
Result<JoinRun> RunDataflow(Executor* ex, const Dataset& r, const Dataset& s,
                            const Router& router,
                            const EngineOptions& options, bool index_r,
                            int threads, const CancellationToken& job_token) {
  constexpr bool kRetain = Executor::kRetainsInputs;
  using Cancel = spatial::KernelCancellation;
  obs::TraceRecorder* const trace = options.trace;
  // JobMetrics is the job's record: phase totals are added to it at phase
  // boundaries, never per tuple. The trace's export of it is written only by
  // a run that succeeds, so a failed run leaves it empty.
  if (trace != nullptr) trace->exported() = obs::TraceExport{};
  const int workers = options.workers;
  // Admission caps workers and splits, so neither product overflows.
  static_assert(kMaxWorkers <= std::numeric_limits<int>::max() / 4 &&
                kMaxSplits <= std::numeric_limits<int>::max() / 2);
  const int num_splits =
      options.num_splits > 0 ? options.num_splits : 4 * workers;
  const auto identity = [](int w) { return w; };

  JoinRun run;
  JobMetrics& m = run.metrics;
  m.workers = workers;
  m.physical_threads = threads;
  Stopwatch wall;
  double measured_construction = 0.0;
  double measured_join = 0.0;
  double measured_dedup = 0.0;

  // ---------------------------------------------------------------- map ---
  // Each relation is divided into `num_splits` contiguous splits; split k is
  // co-located with logical worker k % workers. A map task is a route task
  // and a fill task, run as two phases with a barrier between them
  // (exec/shuffle.h). Each route task stages its split's instances in its
  // own slot and, when the router declares its range, marks the partitions
  // its side reaches in its thread's ReachSet; the barrier ORs the
  // threads' sets. A failed attempt marks a subset of what its retry marks,
  // so the union is exact.
  const int total_map_tasks = 2 * num_splits;
  const auto map_owner = [&](int task) {
    return (task % num_splits) % workers;
  };
  const PartitionId range = router.partition_count();
  ReachSet reach;
  std::vector<StagedSplit> staged(static_cast<size_t>(total_map_tasks));
  std::vector<double> map_busy(static_cast<size_t>(workers));
  PASJOIN_RETURN_NOT_OK(ex->template Run<ReachSet>(
      PhaseSpec{Phase::kMap, total_map_tasks, 1, &map_busy,
                &measured_construction},
      map_owner,
      [&](int task, ReachSet& mine, const Cancel* cancel) {
        if (range > 0 && mine.empty()) mine.Reset(range);
        return RouteSplit(MapTaskSplit(task, r, s, num_splits, workers),
                          router, options, range > 0 ? &mine : nullptr,
                          cancel);
      },
      CommitTo(&staged),
      [&reach](ReachSet& mine) { reach.Union(std::move(mine)); }));
  // Map tasks cover their splits in index order, R before S, so the first
  // task that failed holds the lowest offending (dataset, index).
  for (const StagedSplit& out : staged) {
    if (!out.error.ok()) return out.error;
  }

  // Each fill task writes the joinable instances of its staged list (all of
  // them without a declared range) into exactly sized blocks. Unless the
  // executor retains inputs, the fill frees its staged list once its
  // blocks are written; the rest go after the phase, as nothing reads them
  // after it. The phase's span records the declared range, so a trace
  // tells whether the fill shipped only joinable instances.
  std::vector<MapTaskOutput> map_out(static_cast<size_t>(total_map_tasks));
  std::vector<double> fill_busy(static_cast<size_t>(workers));
  PASJOIN_RETURN_NOT_OK(ex->template Run<FillScratch>(
      PhaseSpec{Phase::kFill, total_map_tasks, 1, &fill_busy,
                &measured_construction, "range", range},
      map_owner,
      [&](int task, FillScratch& scratch, const Cancel* cancel) {
        return FillSplit(MapTaskSplit(task, r, s, num_splits, workers),
                         &staged[static_cast<size_t>(task)],
                         range > 0 ? &reach : nullptr, options,
                         /*consume=*/!kRetain, &scratch, cancel);
      },
      CommitTo(&map_out)));
  AccumulateMapMetrics(staged, map_out, num_splits, &m);
  staged = std::vector<StagedSplit>();
  reach = ReachSet();

  // ------------------------------------------------------------ regroup ---
  // Each worker sorts its inbound blocks, in map-task order, into
  // contiguous runs of the partitions both sides reach (exec/shuffle.h), so
  // every run's instance order is deterministic and every run joins. The
  // blocks are the split data re-execution recovers from: an executor that
  // retains inputs keeps them; otherwise each worker's regroup frees its
  // inbound blocks, payload arenas included.
  const auto inbound = [&map_out](int w) {
    std::vector<ShuffleBlock*> blocks;
    blocks.reserve(map_out.size());
    for (MapTaskOutput& out : map_out) {
      blocks.push_back(&out.by_worker[static_cast<size_t>(w)]);
    }
    return blocks;
  };
  std::vector<WorkerStore> stores(static_cast<size_t>(workers));
  std::vector<double> regroup_busy(static_cast<size_t>(workers));
  PASJOIN_RETURN_NOT_OK(ex->template Run<RegroupScratch>(
      PhaseSpec{Phase::kRegroup, workers, 1, &regroup_busy,
                &measured_construction},
      identity,
      [&](int w, RegroupScratch& scratch, const Cancel* cancel) {
        return Regroup(inbound(w), /*consume=*/!kRetain, &scratch, cancel);
      },
      CommitTo(&stores)));
  for (const WorkerStore& store : stores) m.joinable_tuples += store.id.size();

  // --------------------------------------------------------------- join ---
  // One task per (worker, partition), not per worker: placement decides
  // which logical worker OWNS a partition (accounting, trace track,
  // recovery), the executor decides which thread JOINS it. The item list is
  // deterministic — per worker, its runs in ascending partition order — and
  // each item's pairs commit to the item's own slot, so results never
  // depend on claim order. Worker w's items are [item_begin[w],
  // item_begin[w + 1]).
  std::vector<JoinItem> items;
  std::vector<size_t> item_begin(static_cast<size_t>(workers) + 1, 0);
  for (int w = 0; w < workers; ++w) {
    const std::vector<PartitionRun>& runs = stores[static_cast<size_t>(w)].runs;
    for (size_t k = 0; k < runs.size(); ++k) {
      PASJOIN_DCHECK(runs[k].begin < runs[k].mid && runs[k].mid < runs[k].end);
      items.push_back(JoinItem{w, runs[k].part, k});
    }
    item_begin[static_cast<size_t>(w) + 1] = items.size();
  }
  const int item_count = static_cast<int>(items.size());
  // A targeted partition fails the first attempt of the task joining it.
  for (const int32_t part : options.fault.fail_partitions) {
    for (int i = 0; i < item_count; ++i) {
      if (items[static_cast<size_t>(i)].part == part) {
        ex->FailFirstAttempt(Phase::kJoin, i);
      }
    }
  }
  // A worker lost in the join phase takes its store with it.
  const int lost = ex->WorkerLostIn(Phase::kJoin);
  LostWorkerStore lost_store;
  if (lost >= 0) stores[static_cast<size_t>(lost)] = WorkerStore();
  const bool keep_pairs = options.collect_results || options.deduplicate;
  std::vector<std::vector<ResultPair>> item_pairs(keep_pairs ? items.size()
                                                             : 0);
  std::vector<double> join_busy(static_cast<size_t>(workers));
  JoinTally total;
  double rebuild_seconds = 0.0;
  PASJOIN_RETURN_NOT_OK(ex->template Run<JoinThreadState>(
      PhaseSpec{Phase::kJoin, item_count,
                StealQueue::DefaultGrain(item_count, threads), &join_busy,
                &measured_join},
      [&](int i) { return items[static_cast<size_t>(i)].worker; },
      [&](int i, JoinThreadState& state, const Cancel* cancel) {
        const JoinItem& item = items[static_cast<size_t>(i)];
        WorkerStore& store = stores[static_cast<size_t>(item.worker)];
        if (item.worker == lost) {
          MutexLock lock(&lost_store.mu);
          if (!lost_store.rebuilt) {
            obs::ScopedSpan rebuild_span(trace, "fault-rebuild", "fault");
            rebuild_span.AddArg("worker", lost);
            Stopwatch rebuild;
            RegroupScratch scratch;
            store = Regroup(inbound(lost), /*consume=*/false, &scratch,
                            nullptr);
            lost_store.rebuilt = true;
            state.rebuild_seconds += rebuild.ElapsedSeconds();
          }
        }
        JoinOutput out;
        JoinSinglePartition(store, store.runs[item.run], options, index_r,
                            keep_pairs, &state, &out, trace, cancel);
        return out;
      },
      [&](int i, JoinThreadState& state, JoinOutput&& out) {
        state.committed += out.tally;
        if (keep_pairs) {
          item_pairs[static_cast<size_t>(i)] = std::move(out.pairs);
        }
      },
      [&](JoinThreadState& state) {
        total += state.committed;
        rebuild_seconds += state.rebuild_seconds;
      }));
  m.local_kernel = spatial::LocalJoinKernelName(options.local_kernel);
  m.candidates = total.counters.candidates;
  m.results = total.counters.results - total.filtered;
  m.partitions_joined = total.partitions;
  m.kernel_sort_seconds = total.timings.sort_seconds;
  m.kernel_sweep_seconds = total.timings.sweep_seconds;
  m.kernel_emit_seconds = total.timings.emit_seconds;
  // The shuffle's teardown: a few buffers per block and per worker.
  items.clear();
  stores.clear();
  map_out.clear();
  map_out.shrink_to_fit();

  // -------------------------------------------------------------- dedup ---
  // Parallel distinct over the produced pairs (the paper's non-duplicate-
  // free variant, Table 6): hash-partition pairs across workers, then each
  // worker removes duplicates in its bucket. Unless the executor retains
  // inputs, each scatter frees its worker's item pairs and each merge frees
  // the buckets it read (the shuffle bytes are counted in between).
  if (options.deduplicate) {
    std::vector<std::vector<std::vector<ResultPair>>> buckets(
        static_cast<size_t>(workers));
    std::vector<double> scatter_busy(static_cast<size_t>(workers));
    PASJOIN_RETURN_NOT_OK(ex->Run(
        PhaseSpec{Phase::kDedupScatter, workers, 1, &scatter_busy,
                  &measured_dedup},
        identity,
        [&](int w, NoPhaseState&, const Cancel* cancel) {
          const auto wi = static_cast<size_t>(w);
          const std::span<std::vector<ResultPair>> mine(
              item_pairs.data() + item_begin[wi],
              item_begin[wi + 1] - item_begin[wi]);
          return ScatterWorkerPairs(mine, workers, /*consume=*/!kRetain,
                                    cancel);
        },
        CommitTo(&buckets)));
    // Pair bytes crossing workers count as shuffle traffic.
    AccumulateDedupShuffle(buckets, workers, &m);
    std::vector<DedupMergeOutput> merged(static_cast<size_t>(workers));
    std::vector<double> merge_busy(static_cast<size_t>(workers));
    PASJOIN_RETURN_NOT_OK(ex->Run(
        PhaseSpec{Phase::kDedupMerge, workers, 1, &merge_busy,
                  &measured_dedup},
        identity,
        [&](int w, NoPhaseState&, const Cancel* cancel) {
          return MergeDedupBucket(&buckets, w, workers,
                                  options.collect_results,
                                  /*consume=*/!kRetain, cancel);
        },
        CommitTo(&merged)));
    m.dedup_seconds = Makespan(scatter_busy) + Makespan(merge_busy);
    m.results = 0;
    for (const DedupMergeOutput& out : merged) {
      m.results += out.count;
      run.pairs.insert(run.pairs.end(), out.unique.begin(), out.unique.end());
    }
  } else if (options.collect_results) {
    run.pairs.reserve(m.results);
    for (const std::vector<ResultPair>& pairs : item_pairs) {
      run.pairs.insert(run.pairs.end(), pairs.begin(), pairs.end());
    }
  }

  // A cancel/deadline that fired after the last phase drained (e.g. during
  // the single-threaded folds above) still turns the run into an error —
  // nothing is ever published from a cancelled run.
  if (job_token.IsCancelled()) return job_token.ToStatus();

  m.construction_seconds =
      Makespan(map_busy) + Makespan(fill_busy) + Makespan(regroup_busy);
  m.join_seconds = Makespan(join_busy);
  m.worker_busy_join = std::move(join_busy);
  m.measured_construction_seconds = measured_construction;
  m.measured_join_seconds = measured_join;
  m.measured_dedup_seconds = measured_dedup;
  ex->AddStats(&m);
  m.recovery_seconds += rebuild_seconds;
  m.wall_seconds = wall.ElapsedSeconds();
  if (!options.deadline.unlimited()) {
    m.deadline_slack_seconds = options.deadline.SecondsRemaining();
  }
  if (trace != nullptr) PublishMetrics(m, &trace->exported());
  return run;
}

/// kInvalidArgument naming `name` unless `value` is in [lo, hi].
Status CheckRange(const char* name, int value, int lo, int hi) {
  if (value >= lo && value <= hi) return Status::OK();
  std::string message;
  AppendF(&message, "%s must be in [%d, %d], got %d", name, lo, hi, value);
  return Status::InvalidArgument(std::move(message));
}

}  // namespace

Status ValidateThreads(int threads, const char* name) {
  return CheckRange(name, threads, 0, ThreadPool::kMaxThreads);
}

Status ValidateParallelism(int workers, int num_splits,
                           int physical_threads) {
  PASJOIN_RETURN_NOT_OK(CheckRange("workers", workers, 1, kMaxWorkers));
  PASJOIN_RETURN_NOT_OK(CheckRange("num_splits", num_splits, 0, kMaxSplits));
  return ValidateThreads(physical_threads, "physical_threads");
}

Status AdmitJob(const ExecOptions& options) {
  PASJOIN_RETURN_NOT_OK(ValidateParallelism(
      options.workers, options.num_splits, options.physical_threads));
  PASJOIN_RETURN_NOT_OK(options.fault.Validate(options.workers));
  PASJOIN_RETURN_NOT_OK(options.watchdog.Validate());
  if (options.cancel.IsCancelled()) return options.cancel.ToStatus();
  if (options.deadline.HasExpired()) {
    return Status::DeadlineExceeded(
        "job deadline expired before the job started");
  }
  return Status::OK();
}

Status ValidateEps(double eps) {
  if (!std::isfinite(eps) || !(eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive and finite");
  }
  return Status::OK();
}

Result<JoinRun> TryRunPartitionedJoin(const Dataset& r, const Dataset& s,
                                      const Router& router,
                                      const EngineOptions& options) {
  PASJOIN_RETURN_NOT_OK(ValidateEps(options.eps));
  PASJOIN_RETURN_NOT_OK(AdmitJob(options));
  // The R-tree indexes the globally larger input, S on a tie (Sedona's
  // setup, Section 7.1).
  const bool index_r = r.tuples.size() > s.tuples.size();
  const int physical = options.physical_threads > 0
                           ? options.physical_threads
                           : ThreadPool::DefaultThreads();
  // Destruction order matters: the pool is declared LAST so it drains its
  // tasks first, then the watchdog thread joins, then the job source (which
  // task tokens and attempt heartbeats link to) goes away.
  CancellationSource job_source(options.cancel);
  const CancellationToken job_token = job_source.token();
  Watchdog watchdog(options.watchdog, options.deadline, &job_source,
                    options.trace);
  ThreadPool pool(physical);
  try {
    if (options.fault.enabled) {
      RecoveringExecutor ex(&pool, options.fault, options.workers, job_token,
                            &watchdog, options.trace);
      return RunDataflow(&ex, r, s, router, options, index_r,
                         pool.num_threads(), job_token);
    }
    StealExecutor ex(&pool, job_token, options.trace);
    return RunDataflow(&ex, r, s, router, options, index_r,
                       pool.num_threads(), job_token);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("engine task failed: ") + e.what());
  } catch (...) {
    return Status::Internal("engine task failed: unknown exception");
  }
}

Result<JoinRun> TryRunPartitionedJoin(const Dataset& r, const Dataset& s,
                                      const AssignFn& assign,
                                      const OwnerFn& owner,
                                      const EngineOptions& options) {
  return TryRunPartitionedJoin(r, s, FnRouter(assign, owner), options);
}

}  // namespace pasjoin::exec
