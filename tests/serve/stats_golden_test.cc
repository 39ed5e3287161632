#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fleet.h"
#include "serve/stats.h"

/// \file
/// Golden tests for the serving telemetry added with the fleet: per-version
/// counters, swap/rollback/drain accounting, snapshot JSON, and the
/// fleet-level counter aggregation. Every expected value is computed by
/// hand on exactly-representable inputs, so EXPECT_EQ is exact — any drift
/// in the table layout, merge rules, or JSON field set fails loudly.

namespace eos::serve {
namespace {

TEST(StatsGoldenTest, PerVersionCountsSurviveHomeSlotCollisions) {
  ServeStats stats;
  // Versions 3, 35, and 67 all home to slot 3 (mod 32), forcing the
  // open-addressed table through its linear-probe path. Interleaved
  // recording must still attribute every count to its own version.
  stats.RecordServedByVersion(3, 2);
  stats.RecordServedByVersion(35, 4);
  stats.RecordServedByVersion(3);
  stats.RecordServedByVersion(67, 5);
  stats.RecordServedByVersion(35);
  stats.RecordServedByVersion(3, 0);  // zero-count attribution is a no-op

  StatsSnapshot s = stats.Snapshot();
  std::vector<std::pair<int64_t, int64_t>> expected = {{3, 3}, {35, 5},
                                                       {67, 5}};
  EXPECT_EQ(s.served_by_version, expected);
  EXPECT_EQ(s.served_version_overflow, 0);
}

TEST(StatsGoldenTest, TableFullOverflowsWithoutLosingTheTotal) {
  ServeStats stats;
  // Fill every one of the 32 slots with a distinct version...
  for (int64_t v = 1; v <= ServeStats::kMaxTrackedVersions; ++v) {
    stats.RecordServedByVersion(v, v);
  }
  // ...then a 33rd version has nowhere to land: its count is preserved in
  // the overflow bucket instead of being dropped or misattributed.
  stats.RecordServedByVersion(1000, 7);

  StatsSnapshot s = stats.Snapshot();
  ASSERT_EQ(s.served_by_version.size(),
            static_cast<size_t>(ServeStats::kMaxTrackedVersions));
  int64_t attributed = 0;
  for (const auto& [version, count] : s.served_by_version) {
    EXPECT_EQ(version, count);  // version v recorded exactly v requests
    attributed += count;
  }
  EXPECT_EQ(attributed, 32 * 33 / 2);
  EXPECT_EQ(s.served_version_overflow, 7);
}

TEST(StatsGoldenTest, SwapRollbackAndDrainCounters) {
  ServeStats stats;
  stats.RecordSwap();
  stats.RecordSwap(/*rollback=*/true);
  stats.RecordSwap();
  stats.RecordReplicaReplaced();
  stats.RecordDroppedOnDrain();
  stats.RecordDroppedOnDrain();

  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.swaps, 3);
  EXPECT_EQ(s.rollbacks, 1);
  EXPECT_EQ(s.replicas_replaced, 1);
  EXPECT_EQ(s.dropped_on_drain, 2);
}

/// A snapshot with every field set to a hand-picked, exactly-representable
/// value (so the fixed-precision formatting below is deterministic).
StatsSnapshot FixtureSnapshot() {
  StatsSnapshot s;
  s.completed = 10;
  s.rejected = 1;
  s.shed = 2;
  s.deadline_expired = 3;
  s.replica_failures = 4;
  s.batches = 6;
  s.swaps = 7;
  s.rollbacks = 2;
  s.replicas_replaced = 1;
  s.dropped_on_drain = 0;
  s.served_by_version = {{1, 6}, {2, 4}};
  s.served_version_overflow = 0;
  s.mean_batch_size = 2.5;
  s.p50_us = 100.0;
  s.p95_us = 200.0;
  s.p99_us = 400.0;
  s.queue_depth = 3;
  s.max_queue_depth = 9;
  s.elapsed_seconds = 2.0;
  s.throughput_rps = 5.0;
  return s;
}

TEST(StatsGoldenTest, SnapshotJsonMatchesGoldenString) {
  EXPECT_EQ(
      FixtureSnapshot().ToJson(),
      "{\"completed\": 10, \"rejected\": 1, \"shed\": 2, "
      "\"deadline_expired\": 3, \"replica_failures\": 4, "
      "\"batches\": 6, \"swaps\": 7, \"rollbacks\": 2, "
      "\"replicas_replaced\": 1, "
      "\"dropped_on_drain\": 0, \"served_by_version\": {\"1\": 6, \"2\": 4}, "
      "\"served_version_overflow\": 0, \"mean_batch_size\": 2.500, "
      "\"p50_us\": 100.0, \"p95_us\": 200.0, \"p99_us\": 400.0, "
      "\"queue_depth\": 3, \"max_queue_depth\": 9, "
      "\"elapsed_seconds\": 2.0000, \"throughput_rps\": 5.0}");
}

TEST(StatsGoldenTest, AggregateCountersSumsAndMerges) {
  StatsSnapshot a = FixtureSnapshot();
  StatsSnapshot b;
  b.completed = 30;
  b.rejected = 2;
  b.batches = 10;
  b.swaps = 1;
  b.rollbacks = 1;
  b.replicas_replaced = 2;
  b.dropped_on_drain = 1;
  b.served_by_version = {{2, 10}, {5, 20}};
  b.served_version_overflow = 3;
  b.queue_depth = 1;
  b.max_queue_depth = 20;
  b.elapsed_seconds = 4.0;

  StatsSnapshot total = AggregateCounters({a, b});
  EXPECT_EQ(total.completed, 40);
  EXPECT_EQ(total.rejected, 3);
  EXPECT_EQ(total.shed, 2);
  EXPECT_EQ(total.deadline_expired, 3);
  EXPECT_EQ(total.replica_failures, 4);
  EXPECT_EQ(total.batches, 16);
  EXPECT_EQ(total.swaps, 8);
  EXPECT_EQ(total.rollbacks, 3);
  EXPECT_EQ(total.replicas_replaced, 3);
  EXPECT_EQ(total.dropped_on_drain, 1);
  EXPECT_EQ(total.served_version_overflow, 3);
  // Version 2 appears in both parts and merges; 1 and 5 pass through.
  std::vector<std::pair<int64_t, int64_t>> expected = {{1, 6}, {2, 14},
                                                       {5, 20}};
  EXPECT_EQ(total.served_by_version, expected);
  // Gauges: depth sums (fleet-wide queued work), high-water mark is a max.
  EXPECT_EQ(total.queue_depth, 4);
  EXPECT_EQ(total.max_queue_depth, 20);
  // Window is the max part; throughput is recomputed over it: 40 / 4.0.
  EXPECT_EQ(total.elapsed_seconds, 4.0);
  EXPECT_EQ(total.throughput_rps, 10.0);
  // Percentiles and batch-size means are not aggregatable from snapshots.
  EXPECT_EQ(total.p50_us, 0.0);
  EXPECT_EQ(total.mean_batch_size, 0.0);
}

TEST(StatsGoldenTest, AggregateOfNothingIsAllZeros) {
  StatsSnapshot total = AggregateCounters({});
  EXPECT_EQ(total.completed, 0);
  EXPECT_EQ(total.throughput_rps, 0.0);
  EXPECT_TRUE(total.served_by_version.empty());
}

TEST(StatsGoldenTest, FleetSnapshotJsonCarriesVersionsAndShards) {
  FleetSnapshot fleet;
  fleet.active_version = 2;
  fleet.previous_version = 1;
  fleet.canary_version = 3;
  fleet.admission_rejected = 5;
  fleet.supervisor.polls = 11;
  fleet.supervisor.replicas_replaced = 2;
  fleet.per_shard = {FixtureSnapshot(), FixtureSnapshot()};
  // Mirrors Fleet::Stats: totals fold the canary's counters in alongside
  // the shards.
  std::vector<StatsSnapshot> parts = fleet.per_shard;
  parts.push_back(fleet.canary);
  fleet.totals = AggregateCounters(parts);

  std::string json = fleet.ToJson();
  EXPECT_NE(json.find("\"active_version\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"previous_version\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"canary_version\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"admission_rejected\": 5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"supervisor\": {\"polls\": 11, "
                      "\"replicas_replaced\": 2, \"load_failures\": 0, "
                      "\"budget_exhausted\": 0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"totals\": {\"completed\": 20"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"canary\": {\"completed\": 0"), std::string::npos)
      << json;
  // Exactly two per-shard objects.
  EXPECT_NE(json.find("\"per_shard\": [{"), std::string::npos) << json;
  size_t count = 0;
  for (size_t pos = json.find("\"completed\""); pos != std::string::npos;
       pos = json.find("\"completed\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 4u);  // totals + canary + 2 shards
}

}  // namespace
}  // namespace eos::serve
