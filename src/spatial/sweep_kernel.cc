// Copyright 2026 The pasjoin Authors.
#include "spatial/sweep_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"

namespace pasjoin::spatial {

namespace {

/// Order-preserving bit transform: the resulting uint64s compare (unsigned)
/// exactly like the source (finite) doubles. Standard sign-flip trick:
/// negative doubles invert entirely, non-negative ones flip the sign bit.
inline uint64_t OrderedBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & 0x8000000000000000ull) != 0 ? ~bits
                                             : bits ^ 0x8000000000000000ull;
}

/// Below this size an introsort of the 16-byte keys beats the radix sort's
/// fixed histogram cost (4 x 65536 counter passes).
constexpr size_t kRadixMinSize = 32768;
constexpr int kRadixBits = 16;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

/// Holds SoaPartition's reentrancy guard, the "kernel-sort" span and the
/// sort timing for the duration of one load. The span's duration and the
/// added sort_seconds come from the same stopwatch reading, so the span sum
/// matches the kernel_sort_seconds gauge.
class LoadScope {
 public:
  LoadScope(std::atomic<bool>* loading, size_t points, KernelTimings* timings,
            obs::TraceRecorder* trace)
      : loading_(loading), timings_(timings), trace_(trace) {
    // One-kernel-per-thread contract (see the class comment): concurrent
    // entry means a shared instance whose scratch is being corrupted —
    // abort now instead of emitting a silently wrong join.
    PASJOIN_CHECK(!loading_->exchange(true, std::memory_order_acquire));
    if (trace_ != nullptr) {
      event_.name = "kernel-sort";
      event_.category = "kernel";
      event_.track = obs::TraceRecorder::CurrentTrack();
      event_.arg_names[0] = "points";
      event_.arg_values[0] = static_cast<int64_t>(points);
      event_.num_args = 1;
      event_.start_ns = trace_->NowNs();
    }
    watch_.Reset();
  }
  LoadScope(const LoadScope&) = delete;
  LoadScope& operator=(const LoadScope&) = delete;
  ~LoadScope() {
    const double seconds = watch_.ElapsedSeconds();
    if (timings_ != nullptr) timings_->sort_seconds += seconds;
    if (trace_ != nullptr) {
      event_.duration_ns = static_cast<int64_t>(seconds * 1e9);
      trace_->Append(event_);
    }
    loading_->store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool>* const loading_;
  KernelTimings* const timings_;
  obs::TraceRecorder* const trace_;
  obs::TraceEvent event_;
  Stopwatch watch_;
};

}  // namespace

void SoaPartition::LoadSorted(std::span<const double> x,
                              std::span<const double> y,
                              std::span<const int64_t> id,
                              KernelTimings* timings,
                              obs::TraceRecorder* trace) {
  const LoadScope scope(&loading_, x.size(), timings, trace);
  SortColumns(x, y, id);
}

void SoaPartition::LoadSorted(const std::vector<Tuple>& tuples,
                              KernelTimings* timings,
                              obs::TraceRecorder* trace) {
  const LoadScope scope(&loading_, tuples.size(), timings, trace);
  // One streaming read strips the 56-byte Tuples into dense columns; the
  // sort and gather then never touch a Tuple (or its payload string).
  const size_t n = tuples.size();
  x_scratch_.resize(n);
  y_scratch_.resize(n);
  id_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    x_scratch_[i] = tuples[i].pt.x;
    y_scratch_[i] = tuples[i].pt.y;
    id_scratch_[i] = tuples[i].id;
  }
  SortColumns(x_scratch_, y_scratch_, id_scratch_);
}

void SoaPartition::SortColumns(std::span<const double> x,
                               std::span<const double> y,
                               std::span<const int64_t> id) {
  const size_t n = x.size();
  PASJOIN_CHECK(y.size() == n && id.size() == n);
  PASJOIN_DCHECK(n <= 0xffffffffu);
  // Pass 1 (sequential): {x-bits, index} sort keys and, for the radix
  // path, all four digit histograms in one streaming read of x.
  order_.clear();
  order_.resize(n);
  const bool use_radix = n >= kRadixMinSize;
  if (use_radix) {
    histogram_.assign(4 * kRadixBuckets, 0u);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = OrderedBits(x[i]);
    order_[i] = {bits, static_cast<uint32_t>(i)};
    if (use_radix) {
      ++histogram_[0 * kRadixBuckets + (bits & (kRadixBuckets - 1))];
      ++histogram_[1 * kRadixBuckets + ((bits >> 16) & (kRadixBuckets - 1))];
      ++histogram_[2 * kRadixBuckets + ((bits >> 32) & (kRadixBuckets - 1))];
      ++histogram_[3 * kRadixBuckets + (bits >> 48)];
    }
  }
  if (!use_radix) {
    // std::pair's lexicographic order makes ties deterministic (original
    // index breaks them).
    std::sort(order_.begin(), order_.end());
  } else {
    // LSD radix sort, 16-bit digits: O(n) instead of O(n log n) compares,
    // and each pass streams the 16-byte keys. Stability preserves the
    // original-index tie order, matching the std::sort path. Passes whose
    // digit is constant across all keys (common: coordinates span a small
    // exponent range) are skipped.
    order_scratch_.resize(n);
    std::vector<std::pair<uint64_t, uint32_t>>* src = &order_;
    std::vector<std::pair<uint64_t, uint32_t>>* dst = &order_scratch_;
    const uint64_t first_key = (*src)[0].first;
    for (int digit = 0; digit < 4; ++digit) {
      uint32_t* histogram = histogram_.data() +
                            static_cast<size_t>(digit) * kRadixBuckets;
      const int shift = kRadixBits * digit;
      if (histogram[(first_key >> shift) & (kRadixBuckets - 1)] == n) {
        continue;  // Constant digit: this pass would be the identity.
      }
      uint32_t running = 0;
      for (size_t b = 0; b < kRadixBuckets; ++b) {
        const uint32_t count = histogram[b];
        histogram[b] = running;
        running += count;
      }
      for (const auto& e : *src) {
        (*dst)[histogram[(e.first >> shift) & (kRadixBuckets - 1)]++] = e;
      }
      std::swap(src, dst);
    }
    if (src != &order_) order_.swap(order_scratch_);
  }
  // Pass 2: sequential writes, random reads over the dense input columns.
  x_.resize(n);
  y_.resize(n);
  id_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t from = order_[i].second;
    x_[i] = x[from];
    y_[i] = y[from];
    id_[i] = id[from];
  }
}

namespace {

/// Fixed-size match buffer flushed into the caller's vector in one append.
/// 1024 pairs = 16 KiB: fits in L1d alongside the sweep window.
constexpr size_t kEmitBatch = 1024;

/// Runtime-dispatched vector widening: the counting loop is compiled once
/// for the x86-64 baseline (SSE2, 2 doubles/vector) and once for AVX2
/// (4 doubles/vector + FMA); the dynamic loader picks the widest clone the
/// CPU supports. No-op off x86-64, and disabled under ThreadSanitizer:
/// target_clones dispatches through an ifunc whose resolver runs during
/// relocation processing, before the TSan runtime is initialized, which
/// segfaults at program startup.
#if defined(__SANITIZE_THREAD__)
#define PASJOIN_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PASJOIN_UNDER_TSAN 1
#endif
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PASJOIN_UNDER_TSAN)
#define PASJOIN_VECTOR_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define PASJOIN_VECTOR_CLONES
#endif

/// Exact mask sums over one sweep window (counts < 2^53 stay exact in
/// doubles, keeping the loop in the FP vector domain: compare -> mask ->
/// add, with no stores and a fixed trip count).
struct WindowCounts {
  double candidates;
  double results;
};

PASJOIN_VECTOR_CLONES
WindowCounts CountWindow(const double* PASJOIN_RESTRICT sx,
                         const double* PASJOIN_RESTRICT sy, size_t lo,
                         size_t hi, double xi, double yi, double eps,
                         double eps2) {
  double candidates = 0.0;
  double results = 0.0;
  for (size_t k = lo; k < hi; ++k) {
    const double dx = sx[k] - xi;
    const double dy = sy[k] - yi;
    candidates += std::fabs(dy) <= eps ? 1.0 : 0.0;
    results += dx * dx + dy * dy <= eps2 ? 1.0 : 0.0;
  }
  return {candidates, results};
}

/// The sweep core, specialized at compile time on whether matches are
/// materialized (kCollect) or only counted. No callback of any kind runs in
/// the inner loop; `out` is touched only in batch flushes.
template <bool kCollect>
JoinCounters SweepImpl(const SoaPartition& r, const SoaPartition& s,
                       double eps, std::vector<ResultPair>* out,
                       KernelTimings* timings, obs::TraceRecorder* trace,
                       const KernelCancellation* cancel) {
  JoinCounters counters;
  const size_t nr = r.size();
  const size_t ns = s.size();
  if (nr == 0 || ns == 0) return counters;
  const int64_t trace_start_ns = trace != nullptr ? trace->NowNs() : 0;

  const double* PASJOIN_RESTRICT rx = r.x().data();
  const double* PASJOIN_RESTRICT ry = r.y().data();
  const int64_t* rid = r.id().data();
  const double* PASJOIN_RESTRICT sx = s.x().data();
  const double* PASJOIN_RESTRICT sy = s.y().data();
  const int64_t* sid = s.id().data();

  const double eps2 = eps * eps;
  ResultPair batch[kEmitBatch];
  size_t batched = 0;
  double emit_seconds = 0.0;

  Stopwatch sweep_watch;
  auto flush = [&] {
    if constexpr (kCollect) {
      Stopwatch emit_watch;
      out->insert(out->end(), batch, batch + batched);
      emit_seconds += emit_watch.ElapsedSeconds();
    }
    batched = 0;
  };

  // Forward sweep over R with a sliding S window. Both window pointers are
  // monotone (R is x-sorted), so the amortized pointer work is O(nr + ns)
  // and each candidate pair is visited exactly once, inside a counting loop
  // with a *fixed trip count* per pivot: no data-dependent exits, no
  // stores, no unpredictable branches, so the compiler can vectorize it.
  // Note d(r, s) <= eps implies |dy| <= eps, so the result test does not
  // need the y-filter's mask; both counters are plain mask sums.
  //
  // Emission is kept out of the counting loop entirely: a window is
  // rescanned to materialize its matches only when its (already computed)
  // result count is non-zero — rare under realistic selectivities, and the
  // rescan touches only the (small, L1-resident) window.
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t last_poll_candidates = 0;
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < nr; ++i) {
    const double xi = rx[i];
    const double yi = ry[i];
    const double x_lo = xi - eps;
    const double x_hi = xi + eps;
    while (lo < ns && sx[lo] < x_lo) ++lo;
    if (hi < lo) hi = lo;
    while (hi < ns && sx[hi] <= x_hi) ++hi;
    const WindowCounts window = CountWindow(sx, sy, lo, hi, xi, yi, eps, eps2);
    candidates += static_cast<uint64_t>(window.candidates);
    results += static_cast<uint64_t>(window.results);
    if constexpr (kCollect) {
      if (window.results != 0) {
        const int64_t id_i = rid[i];
        for (size_t k = lo; k < hi; ++k) {
          const double dx = sx[k] - xi;
          const double dy = sy[k] - yi;
          if (dx * dx + dy * dy <= eps2) {
            batch[batched++] = ResultPair{id_i, sid[k]};
            if (batched == kEmitBatch) flush();
          }
        }
      }
    }
    // Batch-granularity cancellation poll: a single predictable branch per
    // pivot (cancel is null on the uncancellable path), with the pulse and
    // the atomic token load amortized over kKernelPollGrain pivots.
    if (cancel != nullptr && (i & (kKernelPollGrain - 1)) ==
                                 kKernelPollGrain - 1) {
      cancel->Pulse(candidates - last_poll_candidates);
      last_poll_candidates = candidates;
      if (cancel->ShouldStop()) {
        counters.candidates = candidates;
        counters.results = results;
        if (batched > 0) flush();
        return counters;  // Partial; the caller discards (see header).
      }
    }
  }
  if (cancel != nullptr) cancel->Pulse(candidates - last_poll_candidates);
  counters.candidates = candidates;
  counters.results = results;
  if (batched > 0) flush();

  if (timings != nullptr || trace != nullptr) {
    const double total = sweep_watch.ElapsedSeconds();
    if (timings != nullptr) {
      timings->emit_seconds += emit_seconds;
      timings->sweep_seconds += total - emit_seconds;
    }
    if (trace != nullptr) {
      // The batched emission is interleaved with the sweep, so the two
      // phases are presented as sequential spans whose durations carry the
      // measured attribution (together they cover the call exactly).
      const int64_t total_ns = static_cast<int64_t>(total * 1e9);
      const int64_t emit_ns = static_cast<int64_t>(emit_seconds * 1e9);
      const int32_t track = obs::TraceRecorder::CurrentTrack();
      obs::TraceEvent sweep_event;
      sweep_event.name = "kernel-sweep";
      sweep_event.category = "kernel";
      sweep_event.start_ns = trace_start_ns;
      sweep_event.duration_ns = total_ns - emit_ns;
      sweep_event.track = track;
      sweep_event.arg_names[0] = "candidates";
      sweep_event.arg_values[0] = static_cast<int64_t>(counters.candidates);
      sweep_event.arg_names[1] = "results";
      sweep_event.arg_values[1] = static_cast<int64_t>(counters.results);
      sweep_event.num_args = 2;
      trace->Append(sweep_event);
      if (emit_ns > 0) {
        obs::TraceEvent emit_event;
        emit_event.name = "kernel-emit";
        emit_event.category = "kernel";
        emit_event.start_ns = trace_start_ns + (total_ns - emit_ns);
        emit_event.duration_ns = emit_ns;
        emit_event.track = track;
        emit_event.arg_names[0] = "pairs";
        emit_event.arg_values[0] = static_cast<int64_t>(counters.results);
        emit_event.num_args = 1;
        trace->Append(emit_event);
      }
    }
  }
  return counters;
}

}  // namespace

JoinCounters SoaSweepJoin(const SoaPartition& r, const SoaPartition& s,
                          double eps, std::vector<ResultPair>* out,
                          KernelTimings* timings, obs::TraceRecorder* trace,
                          const KernelCancellation* cancel) {
  if (out != nullptr) {
    return SweepImpl<true>(r, s, eps, out, timings, trace, cancel);
  }
  return SweepImpl<false>(r, s, eps, nullptr, timings, trace, cancel);
}

JoinCounters SoaSweepJoinTuples(const std::vector<Tuple>& r,
                                const std::vector<Tuple>& s, double eps,
                                std::vector<ResultPair>* out,
                                KernelTimings* timings,
                                obs::TraceRecorder* trace) {
  SoaPartition soa_r;
  SoaPartition soa_s;
  soa_r.LoadSorted(r, timings, trace);
  soa_s.LoadSorted(s, timings, trace);
  return SoaSweepJoin(soa_r, soa_s, eps, out, timings, trace);
}

}  // namespace pasjoin::spatial
