// Copyright 2026 The pasjoin Authors.
//
// Cache-friendly partition-level eps-distance join kernel.
//
// The generic joins in local_join.h walk arrays-of-structs (56-byte Tuple
// records with an embedded std::string payload) and report every match
// through a per-pair callback (an indirect call per result once it is
// type-erased), which keeps the sweep's working set large. This kernel is
// the hot-path replacement
// (Tsitsigkos et al., "Parallel In-Memory Evaluation of Spatial Joins",
// motivate exactly this forward-sweep refinement step as the end-to-end
// bottleneck in grid-partitioned joins):
//
//   * struct-of-arrays layout: each side becomes three parallel arrays
//     (x, y, id) sorted by x once per partition (SoaPartition::LoadSorted:
//     an index sort over 16-byte {x-bits, idx} keys — introsort for small
//     partitions, LSD radix sort above ~32k — followed by a gather from
//     the input columns; the engine passes its shuffled partition runs,
//     which are columns already, so no payload is ever touched);
//   * sliding-window sweep: R is walked in x order with monotone [lo, hi)
//     window pointers into S, so every candidate pair is inspected exactly
//     once and the per-pivot counting loop has a fixed trip count — no
//     data-dependent exits, no stores, no unpredictable branches — which
//     lets the compiler vectorize it (with an AVX2 clone dispatched at
//     load time on x86-64);
//   * mask-sum filtering: |dy| <= eps and the exact distance predicate are
//     evaluated branchlessly as vector mask sums; only pairs passing the
//     y-filter count as candidates (hence SoA candidates <= plane-sweep
//     candidates on the same input, which counts before the y-filter);
//   * batched emission: match materialization is fully decoupled from
//     counting — a window is rescanned only when its result count is
//     non-zero, and matches are appended to a caller-owned result buffer
//     in fixed-size batches, never through a per-pair callback. The
//     templated Emit joins in local_join.h remain the oracle path for
//     tests.
//
// Contract of the batched emission: the kernel only ever *appends* to the
// caller's buffer (existing contents are preserved), pairs are written as
// (r.id, s.id), and the multiset of appended pairs equals the nested-loop
// oracle's output; the order is unspecified. Passing a null buffer runs the
// kernel in count-only mode (no emission work at all).
#ifndef PASJOIN_SPATIAL_SWEEP_KERNEL_H_
#define PASJOIN_SPATIAL_SWEEP_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/tuple.h"
#include "obs/trace_recorder.h"
#include "spatial/local_join.h"

namespace pasjoin::spatial {

/// Per-phase timing breakdown of the SoA kernel, accumulable across
/// partitions and workers (seconds of CPU time spent in each phase).
struct KernelTimings {
  /// Loading + x-sorting the SoA arrays (SoaPartition::LoadSorted).
  double sort_seconds = 0.0;
  /// The forward sweep itself (window advance, y-filter, distance checks).
  double sweep_seconds = 0.0;
  /// Flushing match batches into the caller-owned result buffer (and any
  /// caller-side batch post-processing attributed by the engine, e.g. the
  /// self-join ordering filter).
  double emit_seconds = 0.0;

  double TotalSeconds() const {
    return sort_seconds + sweep_seconds + emit_seconds;
  }

  KernelTimings& operator+=(const KernelTimings& o) {
    sort_seconds += o.sort_seconds;
    sweep_seconds += o.sweep_seconds;
    emit_seconds += o.emit_seconds;
    return *this;
  }
};

/// One partition side in struct-of-arrays layout: parallel coordinate/id
/// arrays sorted by x. Reusable across partitions (LoadSorted clears and
/// refills without shrinking capacity), so a worker thread needs exactly
/// one scratch instance per side.
///
/// THREADING CONTRACT — one kernel instance per thread. The scratch
/// members below (sort keys, radix histogram, pre-gather columns) make an
/// instance non-reentrant: two threads calling LoadSorted on the SAME
/// instance silently corrupt each other's sort state and the resulting
/// join output. Stealing executors must give every runner thread its own
/// instance (the engine keeps them in per-runner phase state); sharing is
/// caught at runtime by a reentrancy guard that aborts the process instead
/// of producing wrong results. Concurrent *reads* of a loaded partition
/// (x()/y()/id(), SoaSweepJoin sources) remain safe.
class SoaPartition {
 public:
  SoaPartition() = default;
  SoaPartition(const SoaPartition&) = delete;
  SoaPartition& operator=(const SoaPartition&) = delete;

  /// Rebuilds the arrays from the parallel input columns `x`, `y`, `id`
  /// (equal lengths), sorted ascending by x. Ties are broken by the input
  /// index, making the layout deterministic. When `timings` is non-null
  /// the elapsed time is added to sort_seconds; when `trace` is non-null a
  /// "kernel-sort" span is recorded on the calling thread's current track
  /// (null = zero cost, see obs/trace_recorder.h).
  void LoadSorted(std::span<const double> x, std::span<const double> y,
                  std::span<const int64_t> id,
                  KernelTimings* timings = nullptr,
                  obs::TraceRecorder* trace = nullptr);

  /// The same over tuples: an adapter that first strips them into dense
  /// columns (for tests and the single-call SoaSweepJoinTuples).
  void LoadSorted(const std::vector<Tuple>& tuples,
                  KernelTimings* timings = nullptr,
                  obs::TraceRecorder* trace = nullptr);

  size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }
  const std::vector<int64_t>& id() const { return id_; }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<int64_t> id_;
  /// Sorts and gathers the input columns into x_/y_/id_; callers hold the
  /// reentrancy guard.
  void SortColumns(std::span<const double> x, std::span<const double> y,
                   std::span<const int64_t> id);

  /// Scratch for the index sort ({order-preserving x bits, original index}
  /// keys, plus the radix sort's ping-pong buffer and histogram) and the
  /// tuple adapter's stripped columns.
  std::vector<std::pair<uint64_t, uint32_t>> order_;
  std::vector<std::pair<uint64_t, uint32_t>> order_scratch_;
  std::vector<uint32_t> histogram_;
  std::vector<double> x_scratch_;
  std::vector<double> y_scratch_;
  std::vector<int64_t> id_scratch_;
  /// Reentrancy guard for the one-instance-per-thread contract: set for the
  /// duration of LoadSorted; a second thread entering while it is set means
  /// the instance is shared across threads — the process aborts rather than
  /// corrupt the sort scratch (tests/spatial/sweep_kernel_reentrancy_test).
  std::atomic<bool> loading_{false};
};

/// Forward plane-sweep eps-distance join over two x-sorted SoA partitions.
///
/// Appends every matching (r.id, s.id) pair to `*out` in batches (see the
/// file comment for the emission contract); `out == nullptr` counts
/// matches without materializing them. Returns the work counters:
/// `candidates` counts pairs that reached the exact distance check (i.e.
/// survived both the x-window and the y-filter), `results` counts matches.
/// When `timings` is non-null, sweep/emit times are accumulated into it.
/// When `trace` is non-null, "kernel-sweep" and "kernel-emit" spans are
/// recorded on the calling thread's current track: the emit work is
/// interleaved with the sweep in batches, so the two spans split the
/// call's wall time by the measured per-phase attribution (they are exact
/// in duration, sequential in presentation).
/// When `cancel` is non-null the sweep polls it every kKernelPollGrain
/// pivots (one predictable branch amortized over an emission batch) and
/// returns early with partial counters once the token fires; the caller
/// must then discard counters and `*out` (see KernelCancellation). A null
/// `cancel` keeps the sweep on its original uncancellable path.
JoinCounters SoaSweepJoin(const SoaPartition& r, const SoaPartition& s,
                          double eps, std::vector<ResultPair>* out,
                          KernelTimings* timings = nullptr,
                          obs::TraceRecorder* trace = nullptr,
                          const KernelCancellation* cancel = nullptr);

/// Convenience wrapper: loads both sides and runs the sweep (the
/// single-call form used by tests and benchmarks).
JoinCounters SoaSweepJoinTuples(const std::vector<Tuple>& r,
                                const std::vector<Tuple>& s, double eps,
                                std::vector<ResultPair>* out,
                                KernelTimings* timings = nullptr,
                                obs::TraceRecorder* trace = nullptr);

}  // namespace pasjoin::spatial

#endif  // PASJOIN_SPATIAL_SWEEP_KERNEL_H_
