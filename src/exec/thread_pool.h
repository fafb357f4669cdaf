// Copyright 2026 The pasjoin Authors.
//
// A fixed-size thread pool. The engine submits one task per input split /
// partition group; physical parallelism is bounded by the host's cores while
// *logical* worker accounting (which worker would have done the task on the
// paper's cluster) is tracked separately by the engine.
#ifndef PASJOIN_EXEC_THREAD_POOL_H_
#define PASJOIN_EXEC_THREAD_POOL_H_

#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace pasjoin::exec {

/// Fixed pool of worker threads executing submitted tasks FIFO.
///
/// The pool knows nothing of cancellation: Wait() always waits for every
/// submitted task. A cancellable caller submits tasks that poll its token
/// and return once it fires, then reads the token's status after Wait()
/// (the engine's steal runners, docs/CANCELLATION.md).
///
/// Concurrency: all queue/shutdown/error state is guarded by `mu_`
/// (rank lockrank::kThreadPool).
class ThreadPool {
 public:
  /// Creates `num_threads` threads (>= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, joins all workers.
  ///
  /// Destruction is a DRAIN, not an abandonment: every task submitted
  /// before the destructor runs — including tasks still queued, never
  /// started — executes to completion first (tested in
  /// tests/exec/thread_pool_test.cc). Tasks that must not run after a
  /// cancellation check their token themselves. A captured task exception
  /// that was never observed via Wait() is dropped (destructors must not
  /// throw).
  ~ThreadPool();

  PASJOIN_DISALLOW_COPY(ThreadPool);

  /// Enqueues a task. Thread-safe; may be called concurrently from any
  /// thread, including from within running tasks. If tasks throw, the first
  /// exception is captured verbatim and every further failure is counted;
  /// the next Wait() reports the aggregate.
  void Submit(std::function<void()> fn) PASJOIN_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. If exactly one task
  /// threw since the previous Wait(), rethrows that exception unchanged; if
  /// several threw, throws a std::runtime_error carrying the failure count
  /// and the first captured message (no failure is silently dropped).
  void Wait() PASJOIN_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// The most threads a job may ask one pool for; admission rejects more
  /// (exec::ValidateThreads) before any thread starts.
  static constexpr int kMaxThreads = 256;

  /// A sensible default: the host's hardware concurrency, at most
  /// kMaxThreads.
  static int DefaultThreads();

 private:
  void WorkerLoop() PASJOIN_EXCLUDES(mu_);

  Mutex mu_{"ThreadPool::mu_", lockrank::kThreadPool};
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ PASJOIN_GUARDED_BY(mu_);
  int in_flight_ PASJOIN_GUARDED_BY(mu_) = 0;
  bool shutting_down_ PASJOIN_GUARDED_BY(mu_) = false;
  /// First exception thrown by a task since the last Wait(), plus the total
  /// number of failed tasks in the same window.
  std::exception_ptr first_error_ PASJOIN_GUARDED_BY(mu_);
  size_t error_count_ PASJOIN_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_;
};

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_THREAD_POOL_H_
