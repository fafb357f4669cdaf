// Copyright 2026 The pasjoin Authors.
//
// A chunked work-stealing index scheduler (docs/PARALLELISM.md).
//
// The engine's phases are loops over an index range [0, count): map tasks,
// regrouped workers, (worker, partition) join items, dedup buckets. To run
// such a loop across all host cores without a central locked queue, the
// range is pre-split into one contiguous slice per claimant ("shard"); a
// claimant first drains its own slice in grain-sized blocks and then steals
// blocks from the other slices once its own runs dry — the classic
// per-thread-deque work-stealing shape, reduced to atomic cursors because
// the work items are known up front.
//
// Concurrency: completely lock-free. Every claim is one fetch_add on the
// victim shard's cursor; a cursor racing past its slice end is harmless
// (the overshoot is bounded by grain * claim attempts, and claims stop once
// every slice reports exhausted). No ordering is promised — determinism of
// the phases comes from *where results are written* (per-index slots, or
// per-thread state the driver folds after the phase), never from claim
// order.
#ifndef PASJOIN_EXEC_STEAL_QUEUE_H_
#define PASJOIN_EXEC_STEAL_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/macros.h"

namespace pasjoin::exec {

/// Distributes the index range [0, count) across `shards` claimants in
/// blocks of up to `grain` indices. Thread-compatible construction,
/// thread-safe Next().
class StealQueue {
 public:
  StealQueue(int count, int shards, int grain)
      : count_(count),
        grain_(std::max(1, grain)),
        shards_(static_cast<size_t>(std::max(1, shards))) {
    PASJOIN_CHECK(count >= 0);
    for (size_t k = 0; k < shards_.size(); ++k) {
      shards_[k].cursor.store(SliceBegin(static_cast<int>(k)),
                              std::memory_order_relaxed);
    }
  }

  StealQueue(const StealQueue&) = delete;
  StealQueue& operator=(const StealQueue&) = delete;

  /// Claims the next block of indices, preferring `home`'s slice and
  /// stealing from the other slices once it is dry. On success fills
  /// [*begin, *end) (non-empty, at most grain wide) and returns true;
  /// returns false once every slice is exhausted. `home` is taken modulo
  /// the shard count, so callers may pass a plain runner index.
  bool Next(int home, int* begin, int* end) {
    const int shards = static_cast<int>(shards_.size());
    const int start = home % shards;
    for (int probe = 0; probe < shards; ++probe) {
      const int k = (start + probe) % shards;
      const int slice_end = SliceEnd(k);
      const int b = shards_[static_cast<size_t>(k)].cursor.fetch_add(
          grain_, std::memory_order_relaxed);
      if (b < slice_end) {
        *begin = b;
        *end = std::min(b + grain_, slice_end);
        return true;
      }
    }
    return false;
  }

  int count() const { return count_; }
  int grain() const { return grain_; }

  /// A grain that amortizes the claim cost over ~16 blocks per claimant
  /// while keeping enough blocks in flight for stealing to rebalance.
  static int DefaultGrain(int count, int shards) {
    return std::max(1, count / (std::max(1, shards) * 16));
  }

 private:
  /// Shard k owns [SliceBegin(k), SliceEnd(k)): the same balanced split the
  /// engine uses for input splits, so every shard is within one index of
  /// count / shards wide.
  int SliceBegin(int k) const {
    const auto shards = static_cast<long long>(shards_.size());
    return static_cast<int>(static_cast<long long>(count_) * k / shards);
  }
  int SliceEnd(int k) const { return SliceBegin(k + 1); }

  /// One cache line per cursor: claimants hammer their own cursor and only
  /// touch a victim's when stealing.
  struct alignas(64) Shard {
    std::atomic<int> cursor{0};
  };

  const int count_;
  const int grain_;
  std::vector<Shard> shards_;
};

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_STEAL_QUEUE_H_
