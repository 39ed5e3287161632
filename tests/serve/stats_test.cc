#include "serve/stats.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace eos::serve {
namespace {

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0);
  EXPECT_EQ(h.PercentileUs(50.0), 0.0);
  EXPECT_EQ(h.PercentileUs(99.0), 0.0);
}

TEST(LatencyHistogramTest, BucketIndexIsMonotonic) {
  int prev = LatencyHistogram::BucketIndex(0.5);
  for (double us = 1.0; us < 1e8; us *= 1.7) {
    int b = LatencyHistogram::BucketIndex(us);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, LatencyHistogram::kNumBuckets);
    prev = b;
  }
}

TEST(LatencyHistogramTest, PercentilesBracketBimodalSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(10.0);
  for (int i = 0; i < 10; ++i) h.Record(10000.0);
  EXPECT_EQ(h.TotalCount(), 100);
  // p50 falls in the 10us bucket; the geometric bucket edge over-reports by
  // at most one bucket ratio (2^(1/4)).
  EXPECT_GE(h.PercentileUs(50.0), 10.0);
  EXPECT_LE(h.PercentileUs(50.0), 10.0 * 1.2);
  // p99 lands in the 10ms mode.
  EXPECT_GE(h.PercentileUs(99.0), 10000.0);
  EXPECT_LE(h.PercentileUs(99.0), 10000.0 * 1.2);
  // Percentiles are monotone in p.
  EXPECT_LE(h.PercentileUs(50.0), h.PercentileUs(95.0));
  EXPECT_LE(h.PercentileUs(95.0), h.PercentileUs(99.0));
}

TEST(LatencyHistogramTest, ExtremeSamplesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.Record(-5.0);
  h.Record(0.0);
  h.Record(1e300);
  EXPECT_EQ(h.TotalCount(), 3);
  EXPECT_GT(h.PercentileUs(100.0), 0.0);
}

TEST(ServeStatsTest, CountersAggregate) {
  ServeStats stats;
  stats.RecordBatch(4);
  stats.RecordBatch(2);
  for (int i = 0; i < 6; ++i) stats.RecordLatencyUs(100.0);
  stats.RecordRejected();
  stats.SetQueueDepth(5);
  stats.SetQueueDepth(2);

  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.completed, 6);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.batches, 2);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 3.0);
  EXPECT_EQ(s.queue_depth, 2);
  EXPECT_EQ(s.max_queue_depth, 5);
  EXPECT_GT(s.p50_us, 0.0);
  EXPECT_GT(s.elapsed_seconds, 0.0);
  EXPECT_GT(s.throughput_rps, 0.0);
}

TEST(ServeStatsTest, JsonContainsEveryField) {
  ServeStats stats;
  stats.RecordBatch(1);
  stats.RecordLatencyUs(50.0);
  std::string json = stats.Snapshot().ToJson();
  for (const char* key :
       {"\"completed\"", "\"rejected\"", "\"shed\"", "\"deadline_expired\"",
        "\"replica_failures\"", "\"batches\"", "\"swaps\"",
        "\"rollbacks\"", "\"dropped_on_drain\"", "\"served_by_version\"",
        "\"served_version_overflow\"",
        "\"mean_batch_size\"", "\"p50_us\"", "\"p95_us\"", "\"p99_us\"",
        "\"queue_depth\"", "\"max_queue_depth\"", "\"elapsed_seconds\"",
        "\"throughput_rps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing\n"
                                                 << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ServeStatsTest, ZeroLatencySampleCountsAndKeepsPercentilesPositive) {
  // A sub-microsecond completion rounds to 0us; it must still be counted
  // and must not zero out (or NaN) the percentile report.
  ServeStats stats;
  stats.RecordLatencyUs(0.0);
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.completed, 1);
  EXPECT_GE(s.p50_us, 0.0);
  EXPECT_GE(s.p99_us, s.p50_us);
}

TEST(ServeStatsTest, ResilienceCountersAreSeparateFromCompleted) {
  ServeStats stats;
  stats.RecordLatencyUs(120.0);  // one genuinely served request
  stats.RecordDeadlineExpired();
  stats.RecordDeadlineExpired();
  stats.RecordShed();
  stats.RecordReplicaFailure();

  StatsSnapshot s = stats.Snapshot();
  // A request expired in queue was never served: it must not inflate
  // completed (and therefore throughput).
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.deadline_expired, 2);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.rejected, 0);  // shed and rejected are distinct causes
  EXPECT_EQ(s.replica_failures, 1);
}

TEST(ServeStatsTest, ConcurrentRecordingIsLossless) {
  ServeStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordLatencyUs(static_cast<double>(1 + (t * kPerThread + i) %
                                                          5000));
        if (i % 50 == 0) stats.RecordBatch(1);
        stats.SetQueueDepth(i % 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.completed, kThreads * kPerThread);
  EXPECT_LE(s.max_queue_depth, 6);
}

}  // namespace
}  // namespace eos::serve
