#ifndef EOS_SERVE_STATS_H_
#define EOS_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Lock-cheap serving telemetry: a geometric latency histogram plus
/// throughput / batching / queue-depth counters. Every mutator is a handful
/// of relaxed-or-acq_rel atomic operations, so workers and clients can
/// record from any thread without contending on a mutex; `Snapshot()` reads
/// a consistent-enough view for reporting (counters may lag each other by a
/// few in-flight requests, which is fine for monitoring output).

namespace eos::serve {

/// Fixed-bucket latency histogram over microseconds. Buckets are geometric
/// with 4 sub-buckets per octave (ratio 2^(1/4) ≈ 1.19), spanning 1 us to
/// ~4.7 minutes; out-of-range samples clamp to the edge buckets. Percentile
/// queries return the upper edge of the bucket holding the requested rank,
/// so the reported value is an upper bound within ~19% of the true sample.
class LatencyHistogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kNumBuckets = 28 * kBucketsPerOctave;

  LatencyHistogram();

  /// Records one latency sample (negative values clamp to the first bucket).
  void Record(double micros);

  /// Total samples recorded.
  int64_t TotalCount() const;

  /// Latency (us) at percentile `p` in [0, 100]; 0 when empty.
  double PercentileUs(double p) const;

  /// Upper edge (us) of bucket `b` — exposed for tests.
  static double BucketUpperEdgeUs(int b);

  /// Bucket index a sample of `micros` lands in — exposed for tests.
  static int BucketIndex(double micros);

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> counts_;
};

/// One consistent-enough view of a ServeStats, ready for printing.
struct StatsSnapshot {
  int64_t completed = 0;       ///< requests completed with a prediction
  int64_t rejected = 0;        ///< requests refused at a full queue
  int64_t shed = 0;            ///< sheddable requests refused past the mark
  int64_t deadline_expired = 0;  ///< accepted requests expired while queued
  int64_t replica_failures = 0;  ///< batches failed by a down replica
  int64_t batches = 0;         ///< micro-batches executed
  int64_t swaps = 0;           ///< model-version hot-swaps applied
  int64_t rollbacks = 0;       ///< swaps that restored a previous version
  /// Replicas replaced in place by the supervisor (same-version session
  /// splices, serve/supervisor.h). The healing witness: a chaos drill that
  /// kills a replica asserts this went up instead of inferring recovery
  /// from traffic.
  int64_t replicas_replaced = 0;
  /// Requests still queued when their batcher was destroyed without a
  /// graceful drain. The zero-downtime swap invariant is exactly
  /// `dropped_on_drain == 0` — Shutdown serves every accepted request, so
  /// any nonzero value is a torn deployment (asserted by the fleet tier).
  int64_t dropped_on_drain = 0;
  /// (version, completed-request count) per model version that served at
  /// least one request, ascending by version.
  std::vector<std::pair<int64_t, int64_t>> served_by_version;
  /// Requests attributed past the fixed per-version table
  /// (ServeStats::kMaxTrackedVersions distinct versions). Stays 0 in any
  /// sane deployment; nonzero means version counts are incomplete.
  int64_t served_version_overflow = 0;
  double mean_batch_size = 0;  ///< batched requests / batches
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  int64_t queue_depth = 0;      ///< gauge at snapshot time
  int64_t max_queue_depth = 0;  ///< high-water mark of the gauge
  double elapsed_seconds = 0;   ///< since stats construction / Reset
  double throughput_rps = 0;    ///< completed / elapsed_seconds

  /// Single-line JSON object with every field above. served_by_version
  /// renders as an object with decimal-string keys: {"1": 10, "2": 4}.
  std::string ToJson() const;
};

/// Sums the additive counters of `parts` (completed, rejected, shed,
/// deadline_expired, replica_failures, batches, swaps, rollbacks,
/// replicas_replaced, dropped_on_drain, served_version_overflow,
/// max_queue_depth as a max,
/// served_by_version merged per version) into one fleet-level snapshot.
/// Latency percentiles and mean batch size are NOT aggregatable from
/// snapshots and are left 0 — read them per shard. elapsed_seconds is the
/// max of the parts; throughput_rps is recomputed from the summed
/// completed count over that window.
StatsSnapshot AggregateCounters(const std::vector<StatsSnapshot>& parts);

/// Aggregates serving telemetry. One instance is shared by a Server, its
/// MicroBatcher, and its workers; all methods are thread-safe.
class ServeStats {
 public:
  /// Capacity of the lock-free per-version counter table. A serving
  /// process sees a handful of live versions (active + rollback target +
  /// history), so 32 distinct ids per stats lifetime is generous; beyond
  /// it, counts land in served_version_overflow instead of being lost.
  static constexpr int kMaxTrackedVersions = 32;

  ServeStats();

  /// Records a completed request and its submit-to-completion latency.
  void RecordLatencyUs(double micros);

  /// Records one executed micro-batch of `size` requests.
  void RecordBatch(int64_t size);

  /// Records a request rejected for backpressure (queue at max depth).
  void RecordRejected();

  /// Records a sheddable request refused past the soft high-water mark.
  void RecordShed();

  /// Records an accepted request completed with DeadlineExceeded instead of
  /// a prediction. Deliberately NOT counted as completed: `completed` means
  /// "answered", and these were not.
  void RecordDeadlineExpired();

  /// Records one batch failed because its serving replica was down.
  void RecordReplicaFailure();

  /// Attributes `count` completed requests to model `version` (> 0). The
  /// per-version table is lock-free: a fixed open-addressed array of
  /// (version, count) atomics, so workers record from any thread at the
  /// same cost as the other counters.
  void RecordServedByVersion(int64_t version, int64_t count = 1);

  /// Records one model-version hot-swap; `rollback` marks a swap that
  /// restored a previously-served version.
  void RecordSwap(bool rollback = false);

  /// Records one supervisor replica replacement (same-version splice).
  void RecordReplicaReplaced();

  /// Records one request dropped undrained (see StatsSnapshot — any
  /// nonzero total is a swap/shutdown protocol violation).
  void RecordDroppedOnDrain();

  /// Updates the queue-depth gauge (and its high-water mark).
  void SetQueueDepth(int64_t depth);

  StatsSnapshot Snapshot() const;

 private:
  LatencyHistogram latency_;
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> deadline_expired_{0};
  std::atomic<int64_t> replica_failures_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batched_requests_{0};
  std::atomic<int64_t> swaps_{0};
  std::atomic<int64_t> rollbacks_{0};
  std::atomic<int64_t> replicas_replaced_{0};
  std::atomic<int64_t> dropped_on_drain_{0};
  // Open-addressed per-version table: slot i holds version key 0 (empty)
  // or a claimed version id; counts accumulate next to the key. Keys are
  // claimed by CAS and never released, so (key, count) pairs stay
  // consistent without a lock.
  std::array<std::atomic<int64_t>, kMaxTrackedVersions> version_keys_;
  std::array<std::atomic<int64_t>, kMaxTrackedVersions> version_counts_;
  std::atomic<int64_t> version_overflow_{0};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> max_queue_depth_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eos::serve

#endif  // EOS_SERVE_STATS_H_
