// Copyright 2026 The pasjoin Authors.
//
// Single-partition (in-memory) eps-distance join algorithms over tuple
// vectors, plus the kernel selection and cancellation hook the engine's
// partition kernels share:
//   * NestedLoopJoin - O(|R|*|S|); the oracle used by tests and the cost
//     model of Table 1;
//   * PlaneSweepJoin - sort both sides by x and sweep, checking the distance
//     predicate inside the eps-window; the refinement step of Algorithm 5
//     ("computing distance join at partition-level") in array-of-structs
//     form, kept as the micro-benchmark's reference for the SoA kernel
//     (spatial/sweep_kernel.h) the engine runs.
#ifndef PASJOIN_SPATIAL_LOCAL_JOIN_H_
#define PASJOIN_SPATIAL_LOCAL_JOIN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/tuple.h"

namespace pasjoin::spatial {

/// Cooperative cancellation + progress hook for the partition kernels
/// (docs/CANCELLATION.md). Both members are optional: a null token never
/// stops, a null progress cell records nothing, and passing no
/// KernelCancellation at all keeps a kernel on its original zero-overhead
/// path. Kernels poll at batch granularity (kKernelPollGrain inner-loop
/// steps between checks, at most one extra branch per emission batch) and
/// return early with PARTIAL counters once the token fires — callers must
/// discard a cancelled kernel's counters and output.
struct KernelCancellation {
  /// Polled stop signal; null = not cancellable.
  const CancellationToken* token = nullptr;
  /// Progress heartbeat cell bumped by `Pulse` (exec::TaskHeartbeat::cell());
  /// null = no heartbeat. Relaxed adds: the watchdog only compares values.
  std::atomic<uint64_t>* progress = nullptr;

  bool ShouldStop() const { return token != nullptr && token->IsCancelled(); }

  /// Records `units` of forward progress (candidate pairs inspected).
  void Pulse(uint64_t units) const {
    if (progress != nullptr) {
      progress->fetch_add(units, std::memory_order_relaxed);
    }
  }
};

/// Inner-loop steps a kernel may take between cancellation polls. Matches
/// the sweep kernel's emission batch so the poll shares its cadence.
inline constexpr uint64_t kKernelPollGrain = 1024;

/// Selects the partition-level join kernel the engine runs after the
/// shuffle (plumbed through every driver; see docs/ALGORITHM.md §"Local
/// join kernels"). PlaneSweepJoin and NestedLoopJoin below are not engine
/// kernels: the first is the micro-benchmark's reference, the second the
/// tests' oracle.
enum class LocalJoinKernel : uint8_t {
  /// Struct-of-arrays forward sweep with batched emission
  /// (spatial/sweep_kernel.h) — the default fast path.
  kSweepSoA = 0,
  /// STR R-tree built per partition on the globally larger input (S on a
  /// tie) and probed with eps-range queries from the other — the
  /// Sedona-like baseline's strategy (Section 7.1).
  kRTree,
};

/// "sweep-soa" or "rtree".
const char* LocalJoinKernelName(LocalJoinKernel kernel);

/// Work counters of a local join.
struct JoinCounters {
  /// Pairs whose exact distance was evaluated (candidates after filtering).
  uint64_t candidates = 0;
  /// Pairs satisfying d(r, s) <= eps.
  uint64_t results = 0;

  JoinCounters& operator+=(const JoinCounters& o) {
    candidates += o.candidates;
    results += o.results;
    return *this;
  }
};

/// Brute-force join; emits every (r, s) with d(r, s) <= eps via
/// `emit(const Tuple&, const Tuple&)`. Polls `cancel` between outer rows
/// once at least kKernelPollGrain candidates accumulated; returns partial
/// counters when cancelled (see KernelCancellation).
template <typename Emit>
JoinCounters NestedLoopJoin(const std::vector<Tuple>& r,
                            const std::vector<Tuple>& s, double eps,
                            Emit&& emit,
                            const KernelCancellation* cancel = nullptr) {
  JoinCounters counters;
  const double eps2 = eps * eps;
  uint64_t since_poll = 0;
  for (const Tuple& a : r) {
    for (const Tuple& b : s) {
      ++counters.candidates;
      if (SquaredDistance(a.pt, b.pt) <= eps2) {
        ++counters.results;
        emit(a, b);
      }
    }
    if (cancel != nullptr && (since_poll += s.size()) >= kKernelPollGrain) {
      cancel->Pulse(since_poll);
      since_poll = 0;
      if (cancel->ShouldStop()) return counters;
    }
  }
  if (cancel != nullptr) cancel->Pulse(since_poll);
  return counters;
}

/// Plane-sweep join along the x axis. Sorts both inputs in place (partition
/// buffers are owned by the caller, so in-place sorting avoids copies), then
/// sweeps an eps-window; only pairs with |r.x - s.x| <= eps reach the exact
/// distance check. Polls `cancel` between pivots once at least
/// kKernelPollGrain candidates accumulated; returns partial counters when
/// cancelled (see KernelCancellation).
template <typename Emit>
JoinCounters PlaneSweepJoin(std::vector<Tuple>* r, std::vector<Tuple>* s,
                            double eps, Emit&& emit,
                            const KernelCancellation* cancel = nullptr) {
  JoinCounters counters;
  if (r->empty() || s->empty()) return counters;
  auto by_x = [](const Tuple& a, const Tuple& b) { return a.pt.x < b.pt.x; };
  std::sort(r->begin(), r->end(), by_x);
  std::sort(s->begin(), s->end(), by_x);

  const double eps2 = eps * eps;
  size_t s_lo = 0;
  uint64_t last_poll_candidates = 0;
  for (const Tuple& a : *r) {
    // Advance the window start: s points left of a.x - eps can never match
    // this or any later r (r is x-sorted).
    while (s_lo < s->size() && (*s)[s_lo].pt.x < a.pt.x - eps) ++s_lo;
    for (size_t j = s_lo; j < s->size(); ++j) {
      const Tuple& b = (*s)[j];
      if (b.pt.x > a.pt.x + eps) break;
      ++counters.candidates;
      const double dy = a.pt.y - b.pt.y;
      if (dy > eps || dy < -eps) continue;
      if (SquaredDistance(a.pt, b.pt) <= eps2) {
        ++counters.results;
        emit(a, b);
      }
    }
    if (cancel != nullptr &&
        counters.candidates - last_poll_candidates >= kKernelPollGrain) {
      cancel->Pulse(counters.candidates - last_poll_candidates);
      last_poll_candidates = counters.candidates;
      if (cancel->ShouldStop()) return counters;
    }
  }
  if (cancel != nullptr) {
    cancel->Pulse(counters.candidates - last_poll_candidates);
  }
  return counters;
}

/// Convenience wrappers that collect the matched id pairs.
std::vector<ResultPair> NestedLoopJoinPairs(const std::vector<Tuple>& r,
                                            const std::vector<Tuple>& s,
                                            double eps);
/// Sorts `*r` and `*s` in place, like PlaneSweepJoin (the buffers used to be
/// taken by value, silently copying both partitions on every call).
std::vector<ResultPair> PlaneSweepJoinPairs(std::vector<Tuple>* r,
                                            std::vector<Tuple>* s, double eps);

}  // namespace pasjoin::spatial

#endif  // PASJOIN_SPATIAL_LOCAL_JOIN_H_
