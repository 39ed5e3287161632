#include "serve/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace eos::serve {

LatencyHistogram::LatencyHistogram() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

int LatencyHistogram::BucketIndex(double micros) {
  if (!(micros > 1.0)) return 0;
  int b = static_cast<int>(kBucketsPerOctave * std::log2(micros));
  if (b < 0) b = 0;
  if (b >= kNumBuckets) b = kNumBuckets - 1;
  return b;
}

double LatencyHistogram::BucketUpperEdgeUs(int b) {
  return std::exp2(static_cast<double>(b + 1) / kBucketsPerOctave);
}

void LatencyHistogram::Record(double micros) {
  counts_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
}

int64_t LatencyHistogram::TotalCount() const {
  int64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::PercentileUs(double p) const {
  int64_t total = TotalCount();
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the requested percentile, 1-based (nearest-rank definition).
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 *
                                                static_cast<double>(total)));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += counts_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketUpperEdgeUs(b);
  }
  return BucketUpperEdgeUs(kNumBuckets - 1);
}

ServeStats::ServeStats() : start_(std::chrono::steady_clock::now()) {
  for (auto& k : version_keys_) k.store(0, std::memory_order_relaxed);
  for (auto& c : version_counts_) c.store(0, std::memory_order_relaxed);
}

void ServeStats::RecordLatencyUs(double micros) {
  latency_.Record(micros);
  completed_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordBatch(int64_t size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(size, std::memory_order_relaxed);
}

void ServeStats::RecordRejected() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordDeadlineExpired() {
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordReplicaFailure() {
  replica_failures_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordServedByVersion(int64_t version, int64_t count) {
  EOS_CHECK_GT(version, 0);
  EOS_CHECK_GE(count, 0);
  if (count == 0) return;
  // Home slot from the version id, then linear probe. Keys are claimed by
  // CAS from 0 and never change afterwards, so a reader that sees key ==
  // version can safely accumulate into the adjacent count.
  size_t home = static_cast<size_t>(version) %
                static_cast<size_t>(kMaxTrackedVersions);
  for (int probe = 0; probe < kMaxTrackedVersions; ++probe) {
    size_t slot = (home + static_cast<size_t>(probe)) %
                  static_cast<size_t>(kMaxTrackedVersions);
    int64_t key = version_keys_[slot].load(std::memory_order_acquire);
    if (key == 0) {
      if (version_keys_[slot].compare_exchange_strong(
              key, version, std::memory_order_acq_rel)) {
        key = version;
      }
      // CAS failure loaded the winner's key into `key`; fall through.
    }
    if (key == version) {
      version_counts_[slot].fetch_add(count, std::memory_order_relaxed);
      return;
    }
  }
  // Table full of other versions: count is preserved, attribution is not.
  version_overflow_.fetch_add(count, std::memory_order_relaxed);
}

void ServeStats::RecordSwap(bool rollback) {
  swaps_.fetch_add(1, std::memory_order_relaxed);
  if (rollback) rollbacks_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordReplicaReplaced() {
  replicas_replaced_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordDroppedOnDrain() {
  dropped_on_drain_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::SetQueueDepth(int64_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  int64_t prev = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > prev &&
         !max_queue_depth_.compare_exchange_weak(prev, depth,
                                                 std::memory_order_relaxed)) {
  }
}

StatsSnapshot ServeStats::Snapshot() const {
  StatsSnapshot s;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.replica_failures = replica_failures_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.replicas_replaced = replicas_replaced_.load(std::memory_order_relaxed);
  s.dropped_on_drain = dropped_on_drain_.load(std::memory_order_relaxed);
  for (int slot = 0; slot < kMaxTrackedVersions; ++slot) {
    int64_t key = version_keys_[static_cast<size_t>(slot)].load(
        std::memory_order_acquire);
    if (key == 0) continue;
    s.served_by_version.emplace_back(
        key, version_counts_[static_cast<size_t>(slot)].load(
                 std::memory_order_relaxed));
  }
  std::sort(s.served_by_version.begin(), s.served_by_version.end());
  s.served_version_overflow =
      version_overflow_.load(std::memory_order_relaxed);
  int64_t batched = batched_requests_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches > 0
          ? static_cast<double>(batched) / static_cast<double>(s.batches)
          : 0.0;
  s.p50_us = latency_.PercentileUs(50.0);
  s.p95_us = latency_.PercentileUs(95.0);
  s.p99_us = latency_.PercentileUs(99.0);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.elapsed_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  s.throughput_rps = s.elapsed_seconds > 0.0
                         ? static_cast<double>(s.completed) / s.elapsed_seconds
                         : 0.0;
  return s;
}

std::string StatsSnapshot::ToJson() const {
  std::string versions = "{";
  for (size_t i = 0; i < served_by_version.size(); ++i) {
    versions += StrFormat(
        "%s\"%lld\": %lld", i > 0 ? ", " : "",
        static_cast<long long>(served_by_version[i].first),
        static_cast<long long>(served_by_version[i].second));
  }
  versions += "}";
  return StrFormat(
      "{\"completed\": %lld, \"rejected\": %lld, \"shed\": %lld, "
      "\"deadline_expired\": %lld, \"replica_failures\": %lld, "
      "\"batches\": %lld, \"swaps\": %lld, "
      "\"rollbacks\": %lld, \"replicas_replaced\": %lld, "
      "\"dropped_on_drain\": %lld, "
      "\"served_by_version\": %s, \"served_version_overflow\": %lld, "
      "\"mean_batch_size\": %.3f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
      "\"p99_us\": %.1f, \"queue_depth\": %lld, \"max_queue_depth\": %lld, "
      "\"elapsed_seconds\": %.4f, \"throughput_rps\": %.1f}",
      static_cast<long long>(completed), static_cast<long long>(rejected),
      static_cast<long long>(shed), static_cast<long long>(deadline_expired),
      static_cast<long long>(replica_failures),
      static_cast<long long>(batches),
      static_cast<long long>(swaps), static_cast<long long>(rollbacks),
      static_cast<long long>(replicas_replaced),
      static_cast<long long>(dropped_on_drain), versions.c_str(),
      static_cast<long long>(served_version_overflow), mean_batch_size,
      p50_us, p95_us, p99_us, static_cast<long long>(queue_depth),
      static_cast<long long>(max_queue_depth), elapsed_seconds,
      throughput_rps);
}

StatsSnapshot AggregateCounters(const std::vector<StatsSnapshot>& parts) {
  StatsSnapshot total;
  for (const StatsSnapshot& p : parts) {
    total.completed += p.completed;
    total.rejected += p.rejected;
    total.shed += p.shed;
    total.deadline_expired += p.deadline_expired;
    total.replica_failures += p.replica_failures;
    total.batches += p.batches;
    total.swaps += p.swaps;
    total.rollbacks += p.rollbacks;
    total.replicas_replaced += p.replicas_replaced;
    total.dropped_on_drain += p.dropped_on_drain;
    total.served_version_overflow += p.served_version_overflow;
    total.queue_depth += p.queue_depth;
    total.max_queue_depth = std::max(total.max_queue_depth,
                                     p.max_queue_depth);
    total.elapsed_seconds = std::max(total.elapsed_seconds,
                                     p.elapsed_seconds);
    for (const auto& [version, count] : p.served_by_version) {
      auto it = std::find_if(
          total.served_by_version.begin(), total.served_by_version.end(),
          [v = version](const auto& entry) { return entry.first == v; });
      if (it == total.served_by_version.end()) {
        total.served_by_version.emplace_back(version, count);
      } else {
        it->second += count;
      }
    }
  }
  std::sort(total.served_by_version.begin(), total.served_by_version.end());
  total.throughput_rps =
      total.elapsed_seconds > 0.0
          ? static_cast<double>(total.completed) / total.elapsed_seconds
          : 0.0;
  return total;
}

}  // namespace eos::serve
