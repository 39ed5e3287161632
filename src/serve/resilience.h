#ifndef EOS_SERVE_RESILIENCE_H_
#define EOS_SERVE_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/model_session.h"

/// \file
/// Failure handling for the serving layer. Server side: per-replica circuit
/// breakers fed by both explicit failures and a heartbeat stall watchdog,
/// and replica selection that routes around tripped breakers; the Server
/// composes these (serve/server.h). Client side: RetryTransient, the one
/// retry loop every caller shares. Each piece is independently testable
/// here. See DESIGN.md "Resilience & checkpointing".

namespace eos::serve {

/// Fault point (see testing/fault_injection.h): while armed, a replica's
/// forward pass fails as if the replica had crashed — every request in the
/// batch completes with Unavailable and the replica's breaker records a
/// failure. Armable for whichever replica serves next (this name) or for
/// one specific replica (ReplicaDownPoint).
inline constexpr char kReplicaDownFault[] = "serve.replica_down";

/// Per-replica form of kReplicaDownFault: "serve.replica_down.<replica>".
std::string ReplicaDownPoint(int replica);

/// True for failures worth re-submitting: Unavailable (replica down / no
/// healthy replica) and ResourceExhausted (backpressure, shed).
/// DeadlineExceeded is terminal — the time is already spent — and
/// FailedPrecondition (shutdown) will never heal.
bool IsTransient(const Status& status);

/// The one client-side retry loop: calls `attempt` until it returns a
/// prediction or a non-transient error, yielding between tries. There is
/// no attempt cap and no backoff — a patient client retries until it gets
/// an answer or a terminal error. After Shutdown, Submit fails with
/// FailedPrecondition, which ends the loop. `attempt` runs once per try,
/// so each call must send a new request (Submit takes its image by value).
Result<Prediction> RetryTransient(
    const std::function<Result<Prediction>()>& attempt);

struct CircuitBreakerOptions {
  /// Consecutive failures that trip the breaker open. Must be >= 1.
  int failure_threshold = 3;
  /// How long an open breaker refuses traffic before letting one probe
  /// through (half-open).
  int64_t cooldown_us = 50000;
};

/// Per-replica circuit breaker: Closed (healthy) -> Open after
/// `failure_threshold` consecutive failures -> HalfOpen after `cooldown_us`,
/// admitting exactly one probe -> Closed on probe success, back to Open on
/// probe failure. Thread-safe; workers for the same replica share one
/// breaker.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const CircuitBreakerOptions& options);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True when a request may be sent: always in Closed; in Open only once
  /// the cooldown has elapsed (which transitions to HalfOpen and grants the
  /// single probe); never while a HalfOpen probe is already in flight.
  bool AllowRequest() EXCLUDES(mu_);

  /// Reports the outcome of an admitted request. A HalfOpen probe success
  /// closes the breaker; a probe failure reopens it for a fresh cooldown.
  void RecordSuccess() EXCLUDES(mu_);
  void RecordFailure() EXCLUDES(mu_);

  /// Force-closes the breaker and clears its failure history. The serving
  /// layer never calls this on its own: it exists for the supervisor, which
  /// resets a breaker only after physically replacing the replica behind it
  /// (serve/supervisor.h) — the failures it forgets belong to a session
  /// that no longer serves.
  void Reset() EXCLUDES(mu_);

  State state() const EXCLUDES(mu_);
  int consecutive_failures() const EXCLUDES(mu_);

  static const char* StateName(State state);

 private:
  const CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  State state_ GUARDED_BY(mu_) = State::kClosed;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point opened_at_ GUARDED_BY(mu_);
};

struct ReplicaHealthOptions {
  CircuitBreakerOptions breaker;
  /// A worker continuously busy on one batch for longer than this is
  /// considered stalled; the watchdog charges one breaker failure to the
  /// replica it is serving (once per episode). 0 disables the watchdog.
  int64_t stall_threshold_us = 0;
  /// Watchdog poll period.
  int64_t watchdog_interval_us = 1000;
};

/// Health bookkeeping for a set of model replicas served by a set of
/// workers: one CircuitBreaker per replica plus an optional heartbeat
/// watchdog thread that detects stalled workers. Replica selection
/// (AcquireReplica) prefers a worker's home replica and fails over to any
/// replica whose breaker admits traffic.
class ReplicaHealth {
 public:
  /// `num_slots` is the number of heartbeat slots (>= number of concurrent
  /// RunBatch callers). Starts the watchdog thread when
  /// options.stall_threshold_us > 0.
  ReplicaHealth(int num_replicas, int num_slots,
                const ReplicaHealthOptions& options);

  /// Stops the watchdog.
  ~ReplicaHealth();

  ReplicaHealth(const ReplicaHealth&) = delete;
  ReplicaHealth& operator=(const ReplicaHealth&) = delete;

  /// Picks the replica to serve the next batch on: `preferred` when its
  /// breaker admits, else the first other replica (scanning from
  /// preferred+1, wrapping) whose breaker admits. Returns -1 when every
  /// breaker refuses — the caller should fail the batch with Unavailable.
  int AcquireReplica(int preferred);

  void RecordSuccess(int replica);
  void RecordFailure(int replica);

  CircuitBreaker& breaker(int replica);
  int num_replicas() const { return static_cast<int>(breakers_.size()); }

  /// Heartbeat: a worker marks itself busy (on `replica`) for the duration
  /// of one batch. MarkIdle returns true when the watchdog flagged this
  /// episode as a stall — the caller must then NOT report success for the
  /// batch, or the stall's breaker failure would be immediately erased.
  void MarkBusy(int slot, int replica);
  bool MarkIdle(int slot);

 private:
  struct Heartbeat {
    std::atomic<int64_t> busy_since_us{0};  // 0 = idle; steady-clock us
    std::atomic<int32_t> replica{-1};
    std::atomic<uint8_t> stall_flagged{0};  // set once per busy episode
  };

  void WatchdogLoop() EXCLUDES(watchdog_mu_);

  const ReplicaHealthOptions options_;
  // deque: CircuitBreaker is neither movable nor copyable. The container
  // itself is immutable after construction (per-breaker state is guarded
  // by each breaker's own mutex), so it carries no GUARDED_BY.
  std::deque<CircuitBreaker> breakers_;
  std::vector<Heartbeat> heartbeats_;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ GUARDED_BY(watchdog_mu_) = false;
  std::thread watchdog_;
};

}  // namespace eos::serve

#endif  // EOS_SERVE_RESILIENCE_H_
