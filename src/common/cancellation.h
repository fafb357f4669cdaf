// Copyright 2026 The pasjoin Authors.
//
// Cooperative cancellation and deadlines (docs/CANCELLATION.md).
//
// pasjoin cancellation is *polled*, never preemptive: a CancellationSource
// owns the cancel flag, hands out cheap CancellationToken views, and the
// code doing the work checks IsCancelled() at well-chosen poll points (the
// engine's task loops, the kernels' emission batches, every blocking wait).
// Nothing is ever torn down mid-operation — a cancelled task runs to its
// next poll point, unwinds normally, and never commits its output, so no
// partial results become visible.
//
// The hot-path cost is one relaxed-ish atomic load (acquire) per poll; a
// default-constructed token has no state at all and polls as a null-pointer
// test. The callback list (the links of child sources) and the
// interruptible waits are guarded by a pasjoin::Mutex ranked in the global
// lock-order table (lockrank::kCancellationState); callbacks always run
// *outside* that lock, on the thread that called Cancel(), so a callback may
// take any other lock without ordering constraints.
//
// Deadline is the value-type companion: a steady-clock expiry the engine
// converts into a Cancel(kDeadlineExceeded) the moment it passes.
#ifndef PASJOIN_COMMON_CANCELLATION_H_
#define PASJOIN_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace pasjoin {

/// A wall-clock budget: either unlimited (the default) or a fixed
/// steady-clock instant after which HasExpired() turns true. Plain value
/// type — copy it freely into options structs.
class Deadline {
 public:
  /// Unlimited: never expires.
  Deadline() = default;

  /// Explicit spelling of the unlimited deadline.
  static Deadline Never() { return Deadline(); }

  /// Expires `seconds` from now. Non-positive values and NaN produce an
  /// already-expired deadline (useful for tests and admission rejection);
  /// +infinity and any span the steady clock cannot hold from now produce
  /// Never().
  static Deadline AfterSeconds(double seconds) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const double ticks = std::chrono::duration<double, Clock::period>(
                             std::chrono::duration<double>(
                                 seconds > 0.0 ? seconds : 0.0))
                             .count();
    // The room converts to the nearest double, so every tick count below it
    // is at most the room itself and adds to `now` without overflow.
    const auto room = (Clock::time_point::max() - now).count();
    if (!(ticks < static_cast<double>(room))) return Never();
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = now + Clock::duration(static_cast<Clock::rep>(ticks));
    return d;
  }

  /// True for the default (never-expiring) deadline.
  bool unlimited() const { return !has_deadline_; }

  /// Seconds until expiry: +infinity when unlimited, <= 0 once expired.
  double SecondsRemaining() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - std::chrono::steady_clock::now())
        .count();
  }

  /// True once the deadline has passed (never for the unlimited deadline).
  bool HasExpired() const { return has_deadline_ && SecondsRemaining() <= 0.0; }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_{};
};

namespace cancel_internal {

/// Shared state behind one CancellationSource and all of its tokens.
/// Internal — use CancellationSource / CancellationToken.
///
/// Concurrency: the cancelled flag is a three-state atomic (`kLive` ->
/// `kCancelling` -> `kCancelled`); the claiming CAS makes the first
/// Cancel() win, and code/reason are published via the release store of
/// `kCancelled` (readers load-acquire before touching them, so they are
/// data-race-free without a lock). Only the callback list and the
/// interruptible waits take `mu_` (rank lockrank::kCancellationState);
/// drained callbacks run outside it.
class CancellationState {
 public:
  CancellationState() = default;
  CancellationState(const CancellationState&) = delete;
  CancellationState& operator=(const CancellationState&) = delete;

  /// One acquire load; safe from any thread at any rate.
  bool IsCancelled() const {
    return phase_.load(std::memory_order_acquire) == kCancelled;
  }

  /// First caller wins and returns true; every later call is a no-op.
  /// Runs the registered callbacks (and unblocks waiters) before returning.
  bool Cancel(StatusCode code, std::string reason);

  /// kOk until cancelled, then the Cancel() call's code.
  StatusCode code() const;

  /// Empty until cancelled, then the Cancel() call's reason. The reference
  /// stays valid for the state's lifetime (the reason is write-once).
  const std::string& reason() const;

  /// Registers `fn` to run when Cancel() fires (on the cancelling thread,
  /// with no locks held). Its one user is the parent->child link of a
  /// CancellationSource. If the state is already cancelled, runs `fn`
  /// inline and returns 0; otherwise returns a nonzero id for
  /// RemoveCallback. `fn` must own its captures (shared_ptr, not raw
  /// `this`): removal does not wait for an in-flight invocation.
  uint64_t AddCallback(std::function<void()> fn);

  /// Unregisters a callback id previously returned by AddCallback (0 and
  /// already-removed ids are ignored).
  void RemoveCallback(uint64_t id);

  /// Sleeps until cancelled or `seconds` elapse; true when cancelled.
  bool WaitForCancellation(double seconds);

 private:
  enum : int { kLive = 0, kCancelling = 1, kCancelled = 2 };

  struct CallbackEntry {
    uint64_t id;
    std::function<void()> fn;
  };

  std::atomic<int> phase_{kLive};
  /// Written once by the winning Cancel() before the kCancelled release
  /// store; read only after an acquire load observes kCancelled.
  StatusCode code_ = StatusCode::kOk;
  std::string reason_;

  Mutex mu_{"CancellationState::mu_", lockrank::kCancellationState};
  CondVar cv_;
  uint64_t next_id_ PASJOIN_GUARDED_BY(mu_) = 1;
  bool callbacks_drained_ PASJOIN_GUARDED_BY(mu_) = false;
  std::vector<CallbackEntry> callbacks_ PASJOIN_GUARDED_BY(mu_);
};

}  // namespace cancel_internal

/// A cheap, copyable view of a CancellationSource's cancel flag. The
/// default-constructed token has no source and can never be cancelled —
/// IsCancelled() is a null-pointer test — which is what makes it a
/// zero-cost default in options structs.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// False for the default token: no source, cancellation impossible. Hot
  /// paths use this to skip polling entirely.
  bool CanBeCancelled() const { return state_ != nullptr; }

  /// True once the owning source cancelled. One atomic acquire load.
  bool IsCancelled() const {
    return state_ != nullptr && state_->IsCancelled();
  }

  /// OK until cancelled; afterwards the Cancel() call's code and reason
  /// (kCancelled or kDeadlineExceeded in engine use).
  [[nodiscard]] Status ToStatus() const {
    if (!IsCancelled()) return Status::OK();
    return Status(state_->code(), state_->reason());
  }

  /// Interruptible sleep — the *only* sanctioned way to wait for a fixed
  /// duration on a cancellable path (raw sleep_for is lint-banned in
  /// src/exec, rule `no-uninterruptible-sleep`). Returns true when the
  /// sleep was cut short by cancellation, false after a full `seconds`
  /// sleep. A token without a source sleeps the full duration.
  bool WaitForCancellation(double seconds) const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<cancel_internal::CancellationState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<cancel_internal::CancellationState> state_;
};

/// Owns one cancel flag. The owner keeps the source and hands out tokens;
/// Cancel() trips the flag exactly once (first caller wins), runs the
/// registered callbacks, and wakes every WaitForCancellation.
///
/// A source constructed over a parent token is *linked*: when the parent
/// cancels, the link propagates the parent's code/reason into this source
/// (job -> attempt fan-out in the engine), while cancelling this source
/// leaves the parent untouched. The destructor unlinks.
class CancellationSource {
 public:
  CancellationSource();
  explicit CancellationSource(const CancellationToken& parent);
  ~CancellationSource();

  CancellationSource(const CancellationSource&) = delete;
  CancellationSource& operator=(const CancellationSource&) = delete;

  /// A token observing this source. Cheap (shared_ptr copy).
  CancellationToken token() const { return CancellationToken(state_); }

  /// Trips the flag. `code` is typically kCancelled or kDeadlineExceeded.
  /// Returns true when this call transitioned the state (false when it was
  /// already cancelled — the original code/reason stand).
  bool Cancel(StatusCode code, std::string reason);

  /// True once cancelled (by this source, or via the parent link).
  bool cancelled() const { return state_->IsCancelled(); }

 private:
  std::shared_ptr<cancel_internal::CancellationState> state_;
  /// The parent's state (kept alive for unlinking) and our callback id in
  /// it; both empty for an unlinked source.
  std::shared_ptr<cancel_internal::CancellationState> parent_;
  uint64_t parent_callback_id_ = 0;
};

}  // namespace pasjoin

#endif  // PASJOIN_COMMON_CANCELLATION_H_
