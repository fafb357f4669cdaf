// Copyright 2026 The pasjoin Authors.
#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace pasjoin::exec {

namespace {

/// Rethrows the captured task failures the way Wait() documents: a single
/// failure rethrows unchanged, several aggregate into a runtime_error.
[[noreturn]] void ThrowTaskErrors(std::exception_ptr error, size_t count) {
  if (count == 1) std::rethrow_exception(error);
  std::string first_message = "unknown exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    first_message = e.what();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Non-std exception: keep the placeholder message.
  }
  throw std::runtime_error(std::to_string(count) +
                           " tasks failed; first: " + first_message);
}

/// Defensive backstop of the cancel-aware wait. Cancellation latency is NOT
/// bounded by this: the token's callback wakes all_done_ directly, so this
/// timeout only matters if a notification is ever lost to a bug. 100 ms keeps
/// such a bug a bounded slowdown instead of a hang (the hang-detection CI
/// lane relies on every wait being interruptible).
constexpr std::chrono::milliseconds kCancelWakeBackstop{100};

/// Handshake cell between Wait(token) and the cancellation callback it
/// registers. The callback may run on the cancelling thread at any point in
/// the token's lifetime — including after the waiter returned — so it must
/// never touch the pool directly; it goes through this shared cell, which
/// the waiter disarms (pool = nullptr) before leaving. The cell's mutex
/// ranks kThreadPoolCancelWake, just below kThreadPool: the callback holds
/// it while acquiring the pool lock.
struct CancelWakeState {
  Mutex mu{"ThreadPool::CancelWakeState::mu", lockrank::kThreadPoolCancelWake};
  ThreadPool* pool PASJOIN_GUARDED_BY(mu) = nullptr;
};

/// The calling thread's index within its pool (ThreadPool::
/// CurrentThreadIndex); set once when a pool thread starts.
thread_local int current_thread_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  PASJOIN_CHECK(num_threads >= 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    PASJOIN_CHECK(!shutting_down_);
    queue_.push_back(std::move(fn));
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  size_t count = 0;
  {
    MutexLock lock(&mu_);
    while (!(queue_.empty() && in_flight_ == 0)) all_done_.Wait(&mu_);
    error = std::exchange(first_error_, nullptr);
    count = std::exchange(error_count_, 0);
  }
  if (error) ThrowTaskErrors(std::move(error), count);
}

Status ThreadPool::Wait(const CancellationToken& cancel) {
  if (!cancel.CanBeCancelled()) {
    Wait();
    return Status::OK();
  }
  // Wire the token into all_done_ so cancellation wakes the waiter at
  // signal-delivery latency (the old design re-polled every 5 ms, which is
  // both wasted wakeups and a 5 ms worst-case drop delay). The callback's
  // empty pool-lock critical section guarantees the waiter is either parked
  // in the cv (and gets the notify) or about to re-check IsCancelled() with
  // the flag already visible: Cancel() release-stores the cancelled state
  // BEFORE draining callbacks (common/cancellation.cc).
  auto wake = std::make_shared<CancelWakeState>();
  {
    MutexLock lock(&wake->mu);
    wake->pool = this;
  }
  const uint64_t callback_id = cancel.AddCallback([wake] {
    MutexLock lock(&wake->mu);
    ThreadPool* const pool = wake->pool;
    if (pool == nullptr) return;  // the waiter already left
    { MutexLock pool_lock(&pool->mu_); }
    pool->all_done_.NotifyAll();
  });
  std::exception_ptr error;
  size_t count = 0;
  bool cancelled = false;
  {
    MutexLock lock(&mu_);
    while (!(queue_.empty() && in_flight_ == 0)) {
      if (!cancelled && cancel.IsCancelled()) {
        cancelled = true;
        // Drop queued-but-unstarted tasks; running ones drain below (they
        // see the same token at their own poll points).
        queue_.clear();
        continue;
      }
      all_done_.WaitFor(&mu_, kCancelWakeBackstop);
    }
    error = std::exchange(first_error_, nullptr);
    count = std::exchange(error_count_, 0);
  }
  // Disarm before unregistering: RemoveCallback does not wait for an
  // in-flight invocation, but any invocation that reads a non-null pool
  // holds wake->mu, which the store below serializes against — so once
  // pool is nulled, no callback can touch this pool again.
  {
    MutexLock lock(&wake->mu);
    wake->pool = nullptr;
  }
  cancel.RemoveCallback(callback_id);
  if (error) ThrowTaskErrors(std::move(error), count);
  // A token that fired before the queue was seen non-empty (or after it
  // drained) still fails the wait: its tasks may have skipped their work.
  return cancel.IsCancelled() ? cancel.ToStatus() : Status::OK();
}

void ThreadPool::WorkerLoop(int index) {
  current_thread_index = index;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Timed idle wait: a missed notification (or a state transition added
      // without one) degrades to bounded latency instead of a hang — the
      // hang-detection CI lane relies on queue waits being interruptible.
      while (!shutting_down_ && queue_.empty()) {
        task_available_.WaitFor(&mu_, std::chrono::milliseconds(100));
      }
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(&mu_);
      if (error) {
        if (!first_error_) first_error_ = std::move(error);
        ++error_count_;
      }
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

int ThreadPool::CurrentThreadIndex() { return current_thread_index; }

int ThreadPool::DefaultThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    kMaxThreads);
}

}  // namespace pasjoin::exec
