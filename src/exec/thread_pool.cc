// Copyright 2026 The pasjoin Authors.
#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
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

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  PASJOIN_CHECK(num_threads >= 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
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

void ThreadPool::WorkerLoop() {
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

int ThreadPool::DefaultThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    kMaxThreads);
}

}  // namespace pasjoin::exec
