#include "serve/resilience.h"

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"

namespace eos::serve {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string ReplicaDownPoint(int replica) {
  return StrFormat("%s.%d", kReplicaDownFault, replica);
}

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kResourceExhausted;
}

Result<Prediction> RetryTransient(
    const std::function<Result<Prediction>()>& attempt) {
  for (;;) {
    Result<Prediction> result = attempt();
    if (result.ok() || !IsTransient(result.status())) return result;
    std::this_thread::yield();
  }
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  EOS_CHECK_GE(options_.failure_threshold, 1);
  EOS_CHECK_GE(options_.cooldown_us, 0);
}

bool CircuitBreaker::AllowRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      auto elapsed = std::chrono::steady_clock::now() - opened_at_;
      if (elapsed < std::chrono::microseconds(options_.cooldown_us)) {
        return false;
      }
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    }
    case State::kHalfOpen:
      // One probe at a time: further traffic stays rejected until the
      // in-flight probe reports its outcome.
      return false;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    probe_in_flight_ = false;
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  switch (state_) {
    case State::kClosed:
      if (consecutive_failures_ >= options_.failure_threshold) {
        state_ = State::kOpen;
        opened_at_ = std::chrono::steady_clock::now();
      }
      break;
    case State::kHalfOpen:
      // The probe failed: reopen for a fresh cooldown.
      state_ = State::kOpen;
      probe_in_flight_ = false;
      opened_at_ = std::chrono::steady_clock::now();
      break;
    case State::kOpen:
      // A straggler failure (e.g. the watchdog flagging a stall that began
      // before the trip) keeps the breaker open; the cooldown clock is not
      // re-armed, or a steady trickle of stragglers could pin it open.
      break;
  }
}

void CircuitBreaker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "Closed";
    case State::kOpen:
      return "Open";
    case State::kHalfOpen:
      return "HalfOpen";
  }
  return "?";
}

ReplicaHealth::ReplicaHealth(int num_replicas, int num_slots,
                             const ReplicaHealthOptions& options)
    : options_(options), heartbeats_(static_cast<size_t>(num_slots)) {
  EOS_CHECK_GE(num_replicas, 1);
  EOS_CHECK_GE(num_slots, 1);
  EOS_CHECK_GE(options_.stall_threshold_us, 0);
  EOS_CHECK_GT(options_.watchdog_interval_us, 0);
  for (int r = 0; r < num_replicas; ++r) {
    breakers_.emplace_back(options_.breaker);
  }
  if (options_.stall_threshold_us > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

ReplicaHealth::~ReplicaHealth() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

int ReplicaHealth::AcquireReplica(int preferred) {
  int n = num_replicas();
  EOS_CHECK_GE(preferred, 0);
  EOS_CHECK_LT(preferred, n);
  for (int i = 0; i < n; ++i) {
    int r = (preferred + i) % n;
    if (breakers_[static_cast<size_t>(r)].AllowRequest()) return r;
  }
  return -1;
}

void ReplicaHealth::RecordSuccess(int replica) {
  breaker(replica).RecordSuccess();
}

void ReplicaHealth::RecordFailure(int replica) {
  breaker(replica).RecordFailure();
}

CircuitBreaker& ReplicaHealth::breaker(int replica) {
  EOS_CHECK_GE(replica, 0);
  EOS_CHECK_LT(replica, num_replicas());
  return breakers_[static_cast<size_t>(replica)];
}

void ReplicaHealth::MarkBusy(int slot, int replica) {
  Heartbeat& hb = heartbeats_[static_cast<size_t>(slot)];
  hb.replica.store(replica, std::memory_order_relaxed);
  hb.stall_flagged.store(0, std::memory_order_relaxed);
  // Release-publish the timestamp last: once the watchdog sees a nonzero
  // busy_since it may read replica/stall_flagged.
  hb.busy_since_us.store(NowUs(), std::memory_order_release);
}

bool ReplicaHealth::MarkIdle(int slot) {
  Heartbeat& hb = heartbeats_[static_cast<size_t>(slot)];
  bool flagged = hb.stall_flagged.load(std::memory_order_acquire) != 0;
  hb.busy_since_us.store(0, std::memory_order_release);
  hb.replica.store(-1, std::memory_order_relaxed);
  return flagged;
}

void ReplicaHealth::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::microseconds(options_.watchdog_interval_us));
    if (watchdog_stop_) return;
    int64_t now_us = NowUs();
    for (Heartbeat& hb : heartbeats_) {
      int64_t busy_since = hb.busy_since_us.load(std::memory_order_acquire);
      if (busy_since == 0) continue;
      if (now_us - busy_since < options_.stall_threshold_us) continue;
      // Charge one failure per busy episode. exchange() makes the flag
      // idempotent against both repeated watchdog ticks and a concurrent
      // MarkIdle (which would drop the flag's answer, not double-charge).
      if (hb.stall_flagged.exchange(1, std::memory_order_acq_rel) != 0) {
        continue;
      }
      int replica = hb.replica.load(std::memory_order_relaxed);
      if (replica >= 0 && replica < num_replicas()) {
        breakers_[static_cast<size_t>(replica)].RecordFailure();
      }
    }
  }
}

}  // namespace eos::serve
