// Copyright 2026 The pasjoin Authors.
#include "common/cancellation.h"

#include <algorithm>

namespace pasjoin {

namespace cancel_internal {

bool CancellationState::Cancel(StatusCode code, std::string reason) {
  int expected = kLive;
  if (!phase_.compare_exchange_strong(expected, kCancelling,
                                      std::memory_order_acq_rel)) {
    return false;  // Another Cancel() won (or is about to): its code stands.
  }
  // Sole writer from here on: publish code/reason before the flag flips.
  code_ = code;
  reason_ = std::move(reason);
  phase_.store(kCancelled, std::memory_order_release);
  std::vector<CallbackEntry> to_run;
  {
    MutexLock lock(&mu_);
    callbacks_drained_ = true;
    to_run.swap(callbacks_);
    cv_.NotifyAll();
  }
  // Outside the lock: callbacks may acquire anything (including other
  // cancellation states — the parent->child propagation link does).
  for (CallbackEntry& entry : to_run) entry.fn();
  return true;
}

StatusCode CancellationState::code() const {
  return IsCancelled() ? code_ : StatusCode::kOk;
}

const std::string& CancellationState::reason() const {
  static const std::string kEmpty;
  return IsCancelled() ? reason_ : kEmpty;
}

uint64_t CancellationState::AddCallback(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    if (!callbacks_drained_) {
      const uint64_t id = next_id_++;
      callbacks_.push_back(CallbackEntry{id, std::move(fn)});
      return id;
    }
  }
  // Already cancelled and drained: run inline, exactly like a late
  // registration racing the drain would have been run by Cancel().
  fn();
  return 0;
}

void CancellationState::RemoveCallback(uint64_t id) {
  if (id == 0) return;
  MutexLock lock(&mu_);
  callbacks_.erase(
      std::remove_if(callbacks_.begin(), callbacks_.end(),
                     [id](const CallbackEntry& e) { return e.id == id; }),
      callbacks_.end());
}

bool CancellationState::WaitForCancellation(double seconds) {
  const Deadline until = Deadline::AfterSeconds(seconds);
  MutexLock lock(&mu_);
  while (phase_.load(std::memory_order_acquire) != kCancelled) {
    if (until.unlimited()) {
      cv_.Wait(&mu_);
      continue;
    }
    const double remaining = until.SecondsRemaining();
    if (remaining <= 0.0) return false;
    cv_.WaitFor(&mu_, std::chrono::duration<double>(remaining));
  }
  return true;
}

}  // namespace cancel_internal

bool CancellationToken::WaitForCancellation(double seconds) const {
  if (state_ != nullptr) return state_->WaitForCancellation(seconds);
  // Sourceless token: nothing can interrupt, but the sleep contract holds.
  // A throwaway CondVar bounds the wait without touching raw sleep
  // primitives (banned outside the sync layer).
  if (seconds <= 0.0) return false;
  // Throwaway local pair, not shared state.
  Mutex mu;  // pasjoin-lint: allow(sync-guarded-by)
  CondVar cv;
  const Deadline until = Deadline::AfterSeconds(seconds);
  MutexLock lock(&mu);
  double remaining = until.SecondsRemaining();
  while (remaining > 0.0) {
    if (until.unlimited()) {
      cv.Wait(&mu);  // nothing can wake it: an unbounded sleep
    } else {
      cv.WaitFor(&mu, std::chrono::duration<double>(remaining));
    }
    remaining = until.SecondsRemaining();
  }
  return false;
}

CancellationSource::CancellationSource()
    : state_(std::make_shared<cancel_internal::CancellationState>()) {}

CancellationSource::CancellationSource(const CancellationToken& parent)
    : state_(std::make_shared<cancel_internal::CancellationState>()),
      parent_(parent.state_) {
  if (parent_ == nullptr) return;
  // The link captures shared_ptrs (never `this`): it stays safe even if
  // this source is destroyed while the parent's Cancel() is mid-drain.
  auto parent_state = parent_;
  auto child_state = state_;
  parent_callback_id_ = parent_->AddCallback([parent_state, child_state] {
    child_state->Cancel(parent_state->code(), parent_state->reason());
  });
}

CancellationSource::~CancellationSource() {
  if (parent_ != nullptr) parent_->RemoveCallback(parent_callback_id_);
}

bool CancellationSource::Cancel(StatusCode code, std::string reason) {
  return state_->Cancel(code, std::move(reason));
}

}  // namespace pasjoin
