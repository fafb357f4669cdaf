// Copyright 2026 The pasjoin Authors.
//
// The miniature data-parallel engine: the C++ stand-in for the Spark
// substrate of Algorithm 5. It executes the canonical dataflow of every
// algorithm in this repository:
//
//   input splits --route--> staged instances --barrier (number the
//   joinable partitions)--> --fill--> per-worker column blocks
//   --regroup (counting sort by run)--> per-partition runs
//   --local join--> result pairs
//   [--distinct--> deduplicated pairs]
//
// The engine is algorithm-agnostic: callers supply the router, which
// assigns tuples to partitions (adaptive replication, PBSM replication,
// quadtree, ...) and places partitions on workers (hash or LPT) a block of
// tuples at a time, and the local join kernel (ExecOptions::local_kernel:
// the SoA sweep by default, R-tree probing for the Sedona-like baseline).
//
// Logical-vs-physical parallelism: tasks execute on a host thread pool, but
// every task is attributed to the *logical* worker that owns it; a phase's
// simulated duration is the makespan (max per-worker busy time). This makes
// the paper's scalability experiments meaningful on any host (DESIGN.md §2).
// Thread count is never observable: each partition's join output commits
// to its own slot, so the result pairs come out in one fixed order whatever
// the threads or executor (docs/PARALLELISM.md §4).
//
// Fault tolerance: with FaultOptions::enabled, TryRunPartitionedJoin runs the
// same dataflow on a recovering executor with the semantics of the Spark
// substrate the paper runs on — lineage-based task retry with exponential
// backoff, worker-loss recovery from retained split data, and speculative
// re-execution of stragglers. It runs each phase as waves of attempts on
// the same work-stealing runners and plans the next wave on the driver
// thread, so the attempts it launches never depend on timing. The model,
// its guarantees, and the FaultOptions knobs are documented in
// docs/FAULT_TOLERANCE.md.
#ifndef PASJOIN_EXEC_ENGINE_H_
#define PASJOIN_EXEC_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/fault_injector.h"
#include "exec/metrics.h"
#include "exec/watchdog.h"
#include "obs/trace_recorder.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// Identifier of a workload partition (a grid cell or quadtree leaf).
using PartitionId = int32_t;

/// Partition assignment of one tuple; entry 0 is the native partition,
/// further entries are replicas.
using PartitionList = SmallVector<PartitionId, 4>;

/// Maps a tuple of relation `Side` to its partitions.
using AssignFn = std::function<PartitionList(const Tuple&, Side)>;

/// Maps a partition to its owning logical worker in [0, workers).
using OwnerFn = std::function<int(PartitionId)>;

/// One block of routed tuples. Tuple k of the block goes to partitions
/// part[b, end[k]), owned by workers owner[b, end[k]), where b is 0 for
/// k = 0 and end[k - 1] otherwise; its native partition comes first.
struct RoutedBlock {
  /// The most tuples one Router::Route call takes.
  static constexpr size_t kMaxTuples = 256;
  /// The most instances one block holds: also the most partitions one
  /// tuple may be assigned.
  static constexpr size_t kMaxInstances = 8 * kMaxTuples;

  std::array<PartitionId, kMaxInstances> part;
  std::array<int, kMaxInstances> owner;
  std::array<size_t, kMaxTuples> end;
};

/// The map's router (Algorithm 5, lines 6-9): assigns tuples to their
/// partitions and places each partition on its owning worker, a block of
/// tuples per call. Route is const and is called from every map thread.
/// Partition ids are non-negative, and a partition's owner is a function
/// of the partition, Owner, so both sides of a partition meet on one
/// worker. The map ships only the instances of the partitions both sides
/// reach, to the owner Owner names (exec/shuffle.h).
class Router {
 public:
  virtual ~Router() = default;

  /// The owner of partition `p`: the owner Route writes for every instance
  /// of `p`. Called once per partition both sides reach, on the driver
  /// thread, at the map's barrier.
  virtual int Owner(PartitionId p) const = 0;

  /// Routes a prefix of `tuples` (at most RoutedBlock::kMaxTuples, all of
  /// relation `side`, all with finite points inside the declared bounds)
  /// into `out` and returns its length. A router may stop early only when
  /// the next tuple's partitions do not fit in the block, and so routes
  /// none only when the first tuple alone has more than
  /// RoutedBlock::kMaxInstances.
  virtual size_t Route(std::span<const Tuple> tuples, Side side,
                       RoutedBlock* out) const = 0;
};

/// A Router over an AssignFn and an OwnerFn: one `assign` call per tuple,
/// then one `owner` call per partition. Both must outlive the router. A
/// tuple whose partitions do not fit in the block is assigned again, as
/// the first tuple of the next block.
class FnRouter final : public Router {
 public:
  FnRouter(const AssignFn& assign, const OwnerFn& owner)
      : assign_(&assign), owner_(&owner) {}

  size_t Route(std::span<const Tuple> tuples, Side side,
               RoutedBlock* out) const override;

  int Owner(PartitionId p) const override { return (*owner_)(p); }

 private:
  const AssignFn* assign_;
  const OwnerFn* owner_;
};

/// The execution knobs every join shares: the engine's EngineOptions and
/// the point joins' core::JoinOptions (the base of AdaptiveJoinOptions,
/// SelfJoinOptions, PbsmOptions and SedonaOptions) inherit them, so a
/// driver forwards all of them to the engine with one base-slice copy.
struct ExecOptions {
  /// Logical workers (the paper's "nodes"/executors), in [1, kMaxWorkers].
  int workers = 12;
  /// Input splits per relation, in [0, kMaxSplits]; 0 selects 4 * workers.
  int num_splits = 0;
  /// Materialize result pairs in JoinRun::pairs.
  bool collect_results = false;
  /// Copy payload bytes through the shuffle (Figures 16-18). When false the
  /// shuffle carries only id+x+y, as in the post-processing variant of
  /// Table 5.
  bool carry_payloads = true;
  /// Physical threads to execute on, in [0, ThreadPool::kMaxThreads]; 0
  /// selects the host's core count (at most the cap).
  int physical_threads = 0;
  /// Partition-level join kernel (docs/ALGORITHM.md §"Local join kernels").
  /// The default is the cache-friendly SoA sweep with batched emission;
  /// kRTree indexes S in every partition, or R when |R| > |S|.
  spatial::LocalJoinKernel local_kernel = spatial::LocalJoinKernel::kSweepSoA;
  /// Fault injection + recovery policy (docs/FAULT_TOLERANCE.md). Ignored
  /// unless fault.enabled, which selects the recovering executor.
  FaultOptions fault;
  /// External cancellation (docs/CANCELLATION.md). A default token never
  /// cancels (zero cost); pass CancellationSource::token() to be able to
  /// abort the job from another thread. A cancelled run returns the
  /// token's status (kCancelled unless the canceller chose another code)
  /// and publishes NO partial results.
  CancellationToken cancel;
  /// Wall-clock budget for the whole job, driver construction included
  /// (docs/CANCELLATION.md). Unlimited by default; when set, the run returns
  /// kDeadlineExceeded shortly after the deadline passes (firing latency is
  /// bounded by watchdog.poll_interval_seconds), again with no partial
  /// results. On success, JobMetrics::deadline_slack_seconds records the
  /// margin.
  Deadline deadline;
  /// Stuck-task watchdog (exec/watchdog.h). `watchdog.enabled` turns on
  /// stall detection of fault-tolerant task attempts; deadlines above are
  /// enforced whether or not it is enabled.
  WatchdogOptions watchdog;
  /// Execution trace sink (docs/OBSERVABILITY.md). Null (the default)
  /// disables tracing at zero cost; when set, the engine records per-task
  /// spans on one track per logical worker, per-partition join spans, the
  /// kernel's sort/sweep/emit phases, and fault-recovery events, and a
  /// successful run exports its JobMetrics into trace->exported(). Drivers
  /// add spans for their construction steps. Not owned.
  obs::TraceRecorder* trace = nullptr;
};

/// Engine configuration: the shared execution knobs plus what only the
/// engine call itself decides.
struct EngineOptions : ExecOptions {
  /// Join distance threshold.
  double eps = 0.0;
  /// Run a parallel distinct step after the join (the non-duplicate-free
  /// variant of Table 6). Implies internal collection of pairs.
  bool deduplicate = false;
  /// Self-join mode: both inputs are the same relation; only unordered
  /// pairs with r.id < s.id are reported (each pair once, no self-pairs).
  bool self_join = false;
  /// Declared data-space bounds. When set (positive area), every input
  /// point must lie inside (boundary inclusive) or the run is rejected with
  /// kInvalidArgument naming the offending dataset and index — partitioners
  /// built over these bounds would otherwise silently clamp outside points
  /// into edge cells and make replication decisions against the wrong cell
  /// rectangle (the Grid::Locate footgun). A zero-area rect (the default)
  /// skips the check. Exact-boundary points are valid: Grid::Locate keeps
  /// clamping max-edge coordinates into the last cell.
  Rect bounds;
};

/// Outcome of a partitioned join run.
struct JoinRun {
  JobMetrics metrics;
  /// Result pairs; only populated when ExecOptions::collect_results. The
  /// order is fixed by the inputs and the router alone: the same for
  /// every thread count and with or without fault injection.
  std::vector<ResultPair> pairs;
};

/// Caps on the parallelism knobs, checked at admission before any thread
/// starts or any per-worker state is allocated. The largest values in use
/// are 64 workers and 96 splits; the caps keep the engine's task arithmetic
/// (4 * workers splits, 2 * num_splits map tasks) far from int overflow.
/// Thread counts are capped at ThreadPool::kMaxThreads.
inline constexpr int kMaxWorkers = 1 << 16;
inline constexpr int kMaxSplits = 1 << 20;

/// kInvalidArgument unless `threads` is in [0, ThreadPool::kMaxThreads]
/// (0 = auto); `name` names the knob in the message.
[[nodiscard]] Status ValidateThreads(int threads, const char* name);

/// The parallelism checks of AdmitJob, shared with the extent join: workers
/// in [1, kMaxWorkers], num_splits in [0, kMaxSplits] and
/// ValidateThreads(physical_threads).
[[nodiscard]] Status ValidateParallelism(int workers, int num_splits,
                                         int physical_threads);

/// Admission check shared by the engine and every driver, run before any
/// work starts: rejects invalid execution knobs (kInvalidArgument), then a
/// cancelled token or an expired deadline.
[[nodiscard]] Status AdmitJob(const ExecOptions& options);

/// The eps check shared by the engine, every driver and the extent join:
/// kInvalidArgument unless eps is positive and finite.
[[nodiscard]] Status ValidateEps(double eps);

/// Runs the map/shuffle/join dataflow. `router` decides replication and
/// placement; options.local_kernel computes each partition's join.
///
/// Inputs are validated and rejected with kInvalidArgument: ValidateEps,
/// workers > 0 and coherent FaultOptions up front; then, inside the map
/// tasks, finite coordinates (inside `bounds` when declared), at least one
/// partition, non-negative partition ids and owners in [0, workers) for
/// every tuple — the error names the lowest offending (dataset, index);
/// then, at the map's barrier, Router::Owner in [0, workers) for every
/// partition both sides reach — the error names the lowest offending
/// partition. The one dataflow
/// runs on one of two executors (docs/FAULT_TOLERANCE.md): without fault
/// injection every task runs once and commits in place; with
/// `fault.enabled`, failed or lost tasks are re-executed from retained split
/// data (bounded retries with exponential backoff), a lost logical worker's
/// store is rebuilt on a survivor by re-running its regroup over the
/// retained shuffle blocks, and straggling tasks are backed up
/// speculatively; the recovered result is identical to a fault-free run.
/// Returns kResourceExhausted when a task exhausts its retry budget and
/// kInternal when a task without fault injection throws — this function
/// never throws from the engine itself. Cancellation (options.cancel) and
/// deadlines (options.deadline) surface as kCancelled / kDeadlineExceeded;
/// in every error case nothing is published to the returned JoinRun — a
/// caller either gets the complete, exact join result or an error
/// (docs/CANCELLATION.md).
[[nodiscard]] Result<JoinRun> TryRunPartitionedJoin(
    const Dataset& r, const Dataset& s, const Router& router,
    const EngineOptions& options);

/// TryRunPartitionedJoin through FnRouter(assign, owner). A tuple assigned
/// more than RoutedBlock::kMaxInstances partitions is rejected with
/// kInvalidArgument, like an empty assignment.
[[nodiscard]] Result<JoinRun> TryRunPartitionedJoin(
    const Dataset& r, const Dataset& s, const AssignFn& assign,
    const OwnerFn& owner, const EngineOptions& options);

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_ENGINE_H_
