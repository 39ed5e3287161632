#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "core/checkpoint.h"
#include "nn/resnet.h"
#include "serve/canary.h"
#include "serve/fleet.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_injection.h"

/// \file
/// Health-gated canary deploys: the pure policy pieces (keyspace split,
/// guardrail math, divergence probe) pinned exactly, then the Fleet state
/// machine end to end — a healthy canary promotes to a full roll, a tripped
/// guardrail auto-aborts without ever serving a non-canary key from the bad
/// version, a diverging model aborts before serving ANY key, and Shutdown
/// racing an in-flight canary drains cleanly (dropped_on_drain == 0).

namespace eos::serve {
namespace {

using ::eos::testing::FaultInjector;
using ::eos::testing::ScopedFault;

nn::ImageClassifier SmallNet(uint64_t seed) {
  Rng rng(seed);
  nn::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.base_width = 8;
  config.num_classes = 4;
  return nn::BuildResNet(config, rng);
}

nn::ImageClassifier FactoryNet() { return SmallNet(424242); }

// The pid keeps this suite and its *_eos_deadlock_detect twin, which ctest
// may run at the same time, from deleting each other's files.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

std::shared_ptr<ModelSession> MakeCheckpoint(const std::string& path,
                                             uint64_t seed) {
  nn::ImageClassifier net = SmallNet(seed);
  Rng rng(seed + 100);
  Tensor warmup = Tensor::Uniform({8, 3, 8, 8}, -1.0f, 1.0f, rng);
  net.Forward(warmup, /*training=*/true);
  TrainCheckpoint ckpt;
  EOS_CHECK(SaveCheckpoint(ckpt, net, path).ok());
  auto session = ModelSession::LoadFromCheckpoint(FactoryNet(), path);
  EOS_CHECK(session.ok());
  return std::move(session).value();
}

class CanaryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_F(CanaryTest, CutoffBoundsAndMembershipFraction) {
  EXPECT_EQ(CanaryCutoff(0.0), 0u);
  EXPECT_EQ(CanaryCutoff(-0.5), 0u);
  EXPECT_EQ(CanaryCutoff(1.0), UINT64_MAX);
  EXPECT_EQ(CanaryCutoff(2.0), UINT64_MAX);
  // Monotone in the fraction.
  EXPECT_LT(CanaryCutoff(0.1), CanaryCutoff(0.2));
  EXPECT_LT(CanaryCutoff(0.2), CanaryCutoff(0.9));

  // No key is in the empty slice; every key is in the full slice.
  for (uint64_t key : std::vector<uint64_t>{0, 1, 12345, UINT64_MAX}) {
    EXPECT_FALSE(IsCanaryKey(key, CanaryCutoff(0.0)));
    EXPECT_TRUE(IsCanaryKey(key, CanaryCutoff(1.0)));
  }

  // The mixed split lands near the requested fraction over a dense key
  // range (Mix64 is a bijection, so 10k consecutive keys sample its output
  // distribution well). Tolerance is loose — this pins "roughly a quarter",
  // not the mixer's exact statistics.
  uint64_t cutoff = CanaryCutoff(0.25);
  int members = 0;
  for (uint64_t key = 0; key < 10000; ++key) {
    if (IsCanaryKey(key, cutoff)) ++members;
  }
  EXPECT_GT(members, 2100);
  EXPECT_LT(members, 2900);

  // Membership is a pure function of (key, cutoff): same inputs, same
  // answer, every time.
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(IsCanaryKey(key, cutoff), IsCanaryKey(key, cutoff));
  }
}

TEST_F(CanaryTest, GuardrailVerdicts) {
  CanaryOptions options;
  options.max_error_rate = 0.1;
  options.max_p99_ratio = 0.0;  // latency guardrail disabled

  CanaryWindowStats clean;
  clean.requests = 100;
  clean.failures = 5;
  clean.error_rate = 0.05;
  EXPECT_TRUE(EvaluateGuardrails(options, clean).pass);

  CanaryWindowStats dirty = clean;
  dirty.failures = 20;
  dirty.error_rate = 0.2;
  GuardrailVerdict verdict = EvaluateGuardrails(options, dirty);
  EXPECT_FALSE(verdict.pass);
  EXPECT_NE(verdict.reason.find("error rate"), std::string::npos)
      << verdict.reason;

  // With the latency guardrail disabled, an arbitrarily bad p99 ratio
  // passes; enabled, the same window fails with a latency reason.
  CanaryWindowStats slow;
  slow.requests = 100;
  slow.canary_p99_us = 9000.0;
  slow.baseline_p99_us = 1000.0;
  EXPECT_TRUE(EvaluateGuardrails(options, slow).pass);
  options.max_p99_ratio = 2.0;
  verdict = EvaluateGuardrails(options, slow);
  EXPECT_FALSE(verdict.pass);
  EXPECT_NE(verdict.reason.find("p99"), std::string::npos) << verdict.reason;
  // A zero baseline (no incumbent latency data yet) disables the ratio
  // check rather than dividing by zero.
  slow.baseline_p99_us = 0.0;
  EXPECT_TRUE(EvaluateGuardrails(options, slow).pass);
}

TEST_F(CanaryTest, PredictionDivergenceIsExact) {
  std::string path_a = TempPath("canary_div_a.eosc");
  std::string path_b = TempPath("canary_div_b.eosc");
  std::shared_ptr<ModelSession> a = MakeCheckpoint(path_a, 611);
  std::shared_ptr<ModelSession> b = MakeCheckpoint(path_b, 641);
  auto a_twin = ModelSession::LoadFromCheckpoint(FactoryNet(), path_a);
  ASSERT_TRUE(a_twin.ok());

  Rng rng(77);
  Tensor batch = Tensor::Uniform({16, 3, 8, 8}, -1.0f, 1.0f, rng);

  // Two sessions from the same checkpoint are bitwise-deterministic, so
  // divergence is exactly zero — the probe can demand max_divergence == 0
  // without flaking.
  EXPECT_EQ(PredictionDivergence(*a, **a_twin, batch), 0.0);

  // Different weights: the probe must report exactly the per-sample argmax
  // disagreement fraction, computed here offline.
  int64_t n = batch.size(0);
  int64_t diverged = 0;
  for (int64_t i = 0; i < n; ++i) {
    Tensor image = GatherImages(batch, {i}).Reshape(
        {batch.size(1), batch.size(2), batch.size(3)});
    if (a->PredictOne(image).label != b->PredictOne(image).label) ++diverged;
  }
  EXPECT_EQ(PredictionDivergence(*a, *b, batch),
            static_cast<double>(diverged) / static_cast<double>(n));

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// Keyed client traffic that records every (key, served version) pair —
/// the evidence for "no non-canary key was ever served by the canary
/// version". Stops on `stop`; shutdown refusals just end the loop.
struct VersionLog {
  std::mutex mu;
  std::map<uint64_t, std::set<int64_t>> versions_by_key GUARDED_BY(mu);

  void Record(uint64_t key, int64_t version) {
    std::lock_guard<std::mutex> lock(mu);
    versions_by_key[key].insert(version);
  }

  /// Copy for the post-join assertions (clients are stopped by then, but
  /// the lock keeps the access pattern analyzable).
  std::map<uint64_t, std::set<int64_t>> Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return versions_by_key;
  }
};

void DriveKeyedTraffic(Fleet& fleet, const Tensor& image, uint64_t num_keys,
                       std::atomic<bool>& stop, VersionLog& log) {
  uint64_t key = 0;
  while (!stop.load(std::memory_order_acquire)) {
    Result<Prediction> served = fleet.Predict(key % num_keys, image);
    if (served.ok()) {
      log.Record(key % num_keys, served->version);
    } else if (served.status().code() == StatusCode::kFailedPrecondition) {
      break;  // fleet shut down
    }
    ++key;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// The happy path: a healthy canary absorbs its evaluation windows under
// live traffic, every guardrail passes, and the canary promotes into the
// same rolling swap as a direct deploy — the fleet ends fully on v2 with
// all canary traffic accounted for and nothing dropped.
TEST_F(CanaryTest, HealthyCanaryPromotesToFullRoll) {
  std::string path_v1 = TempPath("canary_promote_v1.eosc");
  std::string path_v2 = TempPath("canary_promote_v2.eosc");
  MakeCheckpoint(path_v1, 711);
  MakeCheckpoint(path_v2, 727);
  Rng rng(5);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::atomic<bool> stop{false};
  VersionLog log;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back(
        [&] { DriveKeyedTraffic(**fleet, image, 64, stop, log); });
  }

  CanaryOptions canary;
  canary.keyspace_fraction = 0.5;  // wide slice so windows fill fast
  canary.min_requests_per_window = 8;
  canary.evaluation_windows = 2;
  canary.window_timeout_us = 20000000;
  canary.max_error_rate = 0.0;  // healthy traffic: zero failures expected
  Result<CanaryReport> report = (*fleet)->CanaryDeploy(2, path_v2, canary);
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, CanaryOutcome::kPromoted);
  EXPECT_EQ(report->version, 2);
  EXPECT_NE(report->reason.find("2 windows passed"), std::string::npos)
      << report->reason;
  ASSERT_EQ(report->windows.size(), 2u);
  for (const auto& window : report->windows) {
    EXPECT_GE(window.requests, canary.min_requests_per_window);
    EXPECT_EQ(window.failures, 0);
    EXPECT_EQ(window.error_rate, 0.0);
  }

  // Promotion == the full roll: every shard serves v2, v1 is the instant
  // rollback target.
  EXPECT_EQ((*fleet)->active_version(), 2);
  for (int s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ((*fleet)->shard(s).active_version(), 2) << "shard " << s;
  }
  EXPECT_EQ((*fleet)->registry().previous_version(), 1);

  (*fleet)->Shutdown();
  FleetSnapshot stats = (*fleet)->Stats();
  // The retired canary's counters survive in the fleet snapshot, and the
  // fleet-wide drop invariant covers them.
  EXPECT_GE(stats.canary.completed,
            canary.min_requests_per_window * canary.evaluation_windows);
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  EXPECT_EQ(stats.canary_version, 0);  // nothing under evaluation anymore
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// The auto-abort path, plus the no-mixed-serving proof: with the guardrail
// fault armed, the canary aborts after its first window — and the recorded
// (key, version) evidence shows the bad version only ever served keys
// inside the canary slice. Non-canary keys never touched it.
TEST_F(CanaryTest, TrippedGuardrailAbortsAndNeverMixesVersions) {
  std::string path_v1 = TempPath("canary_abort_v1.eosc");
  std::string path_v2 = TempPath("canary_abort_v2.eosc");
  MakeCheckpoint(path_v1, 811);
  MakeCheckpoint(path_v2, 821);
  Rng rng(6);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::atomic<bool> stop{false};
  VersionLog log;
  const uint64_t num_keys = 64;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back(
        [&] { DriveKeyedTraffic(**fleet, image, num_keys, stop, log); });
  }

  auto trip = ScopedFault::Failure(kCanaryGuardrailTrip, /*count=*/1);
  CanaryOptions canary;
  canary.keyspace_fraction = 0.5;
  canary.min_requests_per_window = 8;
  canary.evaluation_windows = 3;
  canary.window_timeout_us = 20000000;
  Result<CanaryReport> report = (*fleet)->CanaryDeploy(2, path_v2, canary);
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, CanaryOutcome::kAborted);
  EXPECT_NE(report->reason.find("fault injection"), std::string::npos)
      << report->reason;
  EXPECT_EQ(FaultInjector::Global().total_fires(kCanaryGuardrailTrip), 1);
  // The abort restored a single-version fleet: v1 active everywhere, no
  // rollback target minted, no canary under evaluation.
  EXPECT_EQ((*fleet)->active_version(), 1);
  for (int s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ((*fleet)->shard(s).active_version(), 1) << "shard " << s;
  }
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.canary_version, 0);

  // The un-mix evidence: only keys inside the deterministic canary slice
  // ever saw version 2. (Canary keys legitimately saw both — before the
  // canary opened and after it retired they ride the ring.)
  uint64_t cutoff = CanaryCutoff(canary.keyspace_fraction);
  for (const auto& [key, versions] : log.Snapshot()) {
    if (!IsCanaryKey(key, cutoff)) {
      EXPECT_EQ(versions.count(2), 0u)
          << "non-canary key " << key << " was served by the bad version";
    }
  }

  // The aborted id stays burned; the repaired attempt ships as 3 (a plain
  // deploy here) and the fleet moves on.
  Status retry_burned = (*fleet)->DeployCheckpoint(2, path_v2);
  EXPECT_FALSE(retry_burned.ok());
  Status redeploy = (*fleet)->DeployCheckpoint(3, path_v2);
  ASSERT_TRUE(redeploy.ok()) << redeploy.ToString();
  EXPECT_EQ((*fleet)->active_version(), 3);

  (*fleet)->Shutdown();
  EXPECT_EQ((*fleet)->Stats().totals.dropped_on_drain, 0);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// The divergence probe aborts a bad model BEFORE any traffic touches it:
// different weights fail the bitwise (max_divergence = 0) probe, the
// canary slice never opens, and the canary's serve counters stay zero.
TEST_F(CanaryTest, DivergingModelAbortsBeforeServingAnyKey) {
  std::string path_v1 = TempPath("canary_probe_v1.eosc");
  std::string path_v2 = TempPath("canary_probe_v2.eosc");
  MakeCheckpoint(path_v1, 911);
  MakeCheckpoint(path_v2, 941);  // different weights
  Rng rng(7);

  FleetOptions options;
  options.num_shards = 1;
  options.server.num_workers = 1;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  CanaryOptions canary;
  canary.keyspace_fraction = 1.0;
  canary.min_requests_per_window = 1;
  canary.evaluation_windows = 1;
  canary.max_divergence = 0.0;
  canary.reference_batch = Tensor::Uniform({16, 3, 8, 8}, -1.0f, 1.0f, rng);
  Result<CanaryReport> report = (*fleet)->CanaryDeploy(2, path_v2, canary);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, CanaryOutcome::kAborted);
  EXPECT_GT(report->divergence, 0.0);
  EXPECT_NE(report->reason.find("divergence"), std::string::npos)
      << report->reason;
  EXPECT_TRUE(report->windows.empty());  // aborted before any evaluation

  // Not one request was served by the rejected model.
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.canary.completed, 0);
  EXPECT_EQ((*fleet)->active_version(), 1);
  (*fleet)->Shutdown();
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// The regression drill from the issue: Shutdown races an in-flight canary
// whose window can never fill. The canary must abort promptly with the
// shutdown reason, every accepted request (ring and canary alike) must
// still complete — dropped_on_drain == 0 fleet-wide — and no non-canary
// key may ever have been served by the canary version.
TEST_F(CanaryTest, ShutdownRacingCanaryAbortsCleanly) {
  std::string path_v1 = TempPath("canary_race_v1.eosc");
  std::string path_v2 = TempPath("canary_race_v2.eosc");
  MakeCheckpoint(path_v1, 1013);
  MakeCheckpoint(path_v2, 1019);
  Rng rng(8);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  std::atomic<bool> stop{false};
  VersionLog log;
  const uint64_t num_keys = 64;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back(
        [&] { DriveKeyedTraffic(**fleet, image, num_keys, stop, log); });
  }

  // A window that can never fill: the canary sits in its evaluation loop
  // (serving its slice) until Shutdown interrupts it.
  CanaryOptions canary;
  canary.keyspace_fraction = 0.5;
  canary.min_requests_per_window = 1000000000;
  canary.evaluation_windows = 1;
  canary.window_timeout_us = 60000000;
  Result<CanaryReport> report = Status::FailedPrecondition("not yet run");
  std::thread deployer(
      [&] { report = (*fleet)->CanaryDeploy(2, path_v2, canary); });

  // Wait until the canary is provably live and serving (its version shows
  // under evaluation and it has completed real traffic), then yank the
  // fleet out from under it.
  for (;;) {
    FleetSnapshot stats = (*fleet)->Stats();
    if (stats.canary_version == 2 && stats.canary.completed >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*fleet)->Shutdown();
  deployer.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, CanaryOutcome::kAborted);
  EXPECT_NE(report->reason.find("shutdown"), std::string::npos)
      << report->reason;

  // Every accepted request completed: the canary drained gracefully inside
  // the abort, the shards drained in Shutdown, and nothing fleet-wide was
  // dropped. The canary really served traffic before the race.
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  EXPECT_GE(stats.canary.completed, 4);
  EXPECT_EQ(stats.canary_version, 0);

  // No mixed-version serving even through the race: non-canary keys never
  // saw the canary version.
  uint64_t cutoff = CanaryCutoff(canary.keyspace_fraction);
  for (const auto& [key, versions] : log.Snapshot()) {
    if (!IsCanaryKey(key, cutoff)) {
      EXPECT_EQ(versions.count(2), 0u)
          << "non-canary key " << key
          << " was served by the mid-shutdown canary version";
    }
  }
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

}  // namespace
}  // namespace eos::serve
