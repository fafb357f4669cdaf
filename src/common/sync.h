// Copyright 2026 The pasjoin Authors.
//
// Annotated synchronization primitives — the only place in the tree that may
// touch raw std::mutex / std::condition_variable (enforced by the
// `sync-discipline` rule of tools/pasjoin_lint.py).
//
// Why a wrapper layer instead of the standard library directly:
//
//   1. *Compile-time thread-safety analysis.* pasjoin::Mutex is a Clang
//      "capability": members annotated PASJOIN_GUARDED_BY(mu_) may only be
//      touched while mu_ is held, functions annotated PASJOIN_REQUIRES(mu_)
//      may only be called with it held, and violations are build errors
//      under the `thread-safety` preset (-Werror=thread-safety, see
//      docs/STATIC_ANALYSIS.md). On GCC every annotation macro expands to
//      nothing and the wrappers compile down to the std primitives.
//   2. *Lock-rank deadlock checking.* A Mutex may carry a rank from the
//      global table below. In debug builds (and in any TU that defines
//      PASJOIN_SYNC_FORCE_RANK_CHECKS) each thread tracks its stack of held
//      ranked locks; acquiring a lock whose rank is not strictly greater
//      than every rank already held aborts immediately — naming both locks
//      and dumping the held stack — even on interleavings that would not
//      have deadlocked this time. Release builds compile the check out
//      entirely (the rank is a dormant const int member).
//
// The vocabulary, the rank table, and how to read a -Wthread-safety
// diagnostic are documented in docs/STATIC_ANALYSIS.md.
#ifndef PASJOIN_COMMON_SYNC_H_
#define PASJOIN_COMMON_SYNC_H_

#include <chrono>
// sync.h is the sanctioned home of the raw primitives; everything else goes
// through the wrappers below.
#include <condition_variable>  // pasjoin-lint: allow(no-naked-thread)
#include <mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. The
// PASJOIN_ prefix (rather than the canonical unprefixed spellings) keeps the
// macros collision-free and greppable; they expand to __attribute__((...))
// under Clang and to nothing elsewhere, so GCC builds see plain classes.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define PASJOIN_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PASJOIN_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability (Mutex below). `x` names the
/// capability kind in diagnostics ("mutex").
#define PASJOIN_CAPABILITY(x) PASJOIN_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (MutexLock below).
#define PASJOIN_SCOPED_CAPABILITY PASJOIN_THREAD_ANNOTATION_(scoped_lockable)

/// Data member may only be read or written while holding `x`.
#define PASJOIN_GUARDED_BY(x) PASJOIN_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member: the *pointed-to* data is protected by `x` (the pointer
/// itself is not).
#define PASJOIN_PT_GUARDED_BY(x) PASJOIN_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function may only be called while holding every listed capability; it
/// neither acquires nor releases them.
#define PASJOIN_REQUIRES(...) \
  PASJOIN_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on return.
#define PASJOIN_ACQUIRE(...) \
  PASJOIN_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (which must be held on entry).
#define PASJOIN_RELEASE(...) \
  PASJOIN_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability only when it returns `ret`.
#define PASJOIN_TRY_ACQUIRE(ret, ...) \
  PASJOIN_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (anti-deadlock: the function
/// acquires them itself).
#define PASJOIN_EXCLUDES(...) \
  PASJOIN_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares a static acquisition-order edge between capabilities (redundant
/// with the runtime rank checker, but visible to the static analysis).
#define PASJOIN_ACQUIRED_BEFORE(...) \
  PASJOIN_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PASJOIN_ACQUIRED_AFTER(...) \
  PASJOIN_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to a capability-protected object.
#define PASJOIN_RETURN_CAPABILITY(x) \
  PASJOIN_THREAD_ANNOTATION_(lock_returned(x))

/// Runtime assertion that the capability is held (teaches the analysis a
/// fact it cannot prove, e.g. across a callback boundary).
#define PASJOIN_ASSERT_CAPABILITY(x) \
  PASJOIN_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment justifying why the invariant holds anyway.
#define PASJOIN_NO_THREAD_SAFETY_ANALYSIS \
  PASJOIN_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock-rank runtime checking (debug builds only).
// ---------------------------------------------------------------------------

/// Rank checks compile in when NDEBUG is off (Debug builds) or when a TU
/// opts in explicitly (the sync death test forces them on so the checker is
/// exercised by the tier-1 RelWithDebInfo run too). Release TUs pay nothing:
/// Lock()/Unlock() reduce to the raw std::mutex calls.
#if !defined(NDEBUG) || defined(PASJOIN_SYNC_FORCE_RANK_CHECKS)
#define PASJOIN_SYNC_RANK_CHECKS_ENABLED 1
#else
#define PASJOIN_SYNC_RANK_CHECKS_ENABLED 0
#endif

namespace pasjoin {

/// Rank of an unranked Mutex: exempt from order checking (used for locks
/// that never nest, e.g. short-lived local aggregation guards).
inline constexpr int kNoMutexRank = -1;

/// Global lock-rank table. A thread may acquire a ranked Mutex only while
/// every ranked Mutex it already holds has a strictly smaller rank, so any
/// A->B / B->A inversion aborts deterministically in debug builds no matter
/// which interleaving actually ran. Gaps between values leave room for new
/// locks; keep this table in sync with the one in docs/STATIC_ANALYSIS.md.
namespace lockrank {
/// common: CancellationState callback/wait list (common/cancellation.h).
/// Isolated by construction: it is never held while acquiring another
/// ranked lock (cancel callbacks run after it is released) and never
/// acquired while holding one — the low rank documents that if it were
/// ever nested it would have to come first.
inline constexpr int kCancellationState = 40;
/// exec::Watchdog heartbeat registry (exec/watchdog.h). The watchdog
/// thread snapshots registered heartbeats under it and cancels them only
/// after releasing it, so it nests with nothing.
inline constexpr int kWatchdogRegistry = 60;
/// exec engine: the partition store of a worker lost in the join phase
/// (its one rebuild, a re-run of the worker's regroup, runs under it).
/// The only engine lock.
inline constexpr int kEngineWorkerStore = 200;
/// exec::ThreadPool queue/shutdown state. Submit() and Wait() take it with
/// no other lock held.
inline constexpr int kThreadPool = 400;
/// obs::TraceRecorder shard registration/export; a span recorded under any
/// engine lock may register the thread's shard on first append.
inline constexpr int kTraceShards = 600;
}  // namespace lockrank

namespace sync_internal {
/// Maximum ranked locks one thread may hold at once.
inline constexpr int kMaxHeldRanks = 64;

// Defined unconditionally in sync.cc (callers are compiled out in release
// TUs). Both functions touch only a thread_local stack — no allocation, no
// locking — and abort with a full held-lock dump on a rank inversion or an
// unbalanced release.
void PushHeldRank(int rank, const char* name);
void PopHeldRank(int rank, const char* name);
}  // namespace sync_internal

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// A mutex that is (a) a Clang thread-safety capability and (b) optionally
/// rank-checked against lock-order inversions in debug builds. Prefer
/// MutexLock for scoped acquisition; Lock()/Unlock() exist for the cases
/// RAII cannot express (none in the tree today).
class PASJOIN_CAPABILITY("mutex") Mutex {
 public:
  /// An unranked, unnamed mutex (exempt from rank checking).
  Mutex() = default;

  /// A ranked mutex. `name` must be a string literal (diagnostics store the
  /// pointer); `rank` comes from pasjoin::lockrank.
  explicit Mutex(const char* name, int rank) : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PASJOIN_ACQUIRE() {
#if PASJOIN_SYNC_RANK_CHECKS_ENABLED
    // Push *before* blocking: an inversion is reported even on the lucky
    // interleaving where the deadlock did not materialize.
    if (rank_ != kNoMutexRank) sync_internal::PushHeldRank(rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() PASJOIN_RELEASE() {
    mu_.unlock();
#if PASJOIN_SYNC_RANK_CHECKS_ENABLED
    if (rank_ != kNoMutexRank) sync_internal::PopHeldRank(rank_, name_);
#endif
  }

  /// Non-blocking acquisition; the rank stack records the lock only on
  /// success (a failed try is not a deadlock edge).
  bool TryLock() PASJOIN_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if PASJOIN_SYNC_RANK_CHECKS_ENABLED
    if (rank_ != kNoMutexRank) sync_internal::PushHeldRank(rank_, name_);
#endif
    return true;
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* name_ = "<unranked>";
  int rank_ = kNoMutexRank;
};

/// RAII lock over a pasjoin::Mutex; the Clang analysis treats the scope of a
/// MutexLock as "mu is held".
class PASJOIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PASJOIN_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PASJOIN_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with pasjoin::Mutex. Waits release and
/// re-acquire the underlying std::mutex directly (adopt/release), so the
/// thread's held-rank stack — which still lists `mu` for the duration of the
/// sleep — stays truthful: the lock is held again by the time the caller
/// observes anything.
///
/// Call Wait in an explicit `while (!condition)` loop rather than through a
/// predicate lambda: the thread-safety analysis does not propagate REQUIRES
/// into lambdas, so guarded reads inside a predicate would (spuriously) fail
/// the build.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, sleeps until notified, re-acquires `*mu`.
  /// Spurious wakeups happen; always re-check the condition.
  void Wait(Mutex* mu) PASJOIN_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu->mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  /// Like Wait but wakes after `timeout` at the latest. Returns true when
  /// notified, false on timeout (either way `*mu` is held on return).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      PASJOIN_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(adopted, timeout);
    adopted.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pasjoin

#endif  // PASJOIN_COMMON_SYNC_H_
