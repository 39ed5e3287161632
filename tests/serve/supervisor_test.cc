#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "nn/resnet.h"
#include "serve/fleet.h"
#include "serve/resilience.h"
#include "serve/supervisor.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_injection.h"

/// \file
/// Supervised replica recovery drills (serve/supervisor.h): a poisoned
/// replica is detected via its breaker, replaced with a fresh checkpoint
/// load, and serving heals bitwise; a checkpoint that re-poisons every
/// replacement exhausts the restart budget instead of crash-looping. Both
/// drills synchronize on FleetSupervisor::WaitFor and the fault injector's
/// cumulative fire history — no sleeps, no timing guesses.

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

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

/// Background load that ignores outcomes: the drills below only need
/// traffic to keep flowing so breakers accumulate evidence and replacement
/// sessions get exercised. Stops when `stop` flips.
void DriveTraffic(Fleet& fleet, const Tensor& image, std::atomic<bool>& stop) {
  uint64_t key = 0;
  while (!stop.load(std::memory_order_acquire)) {
    (void)fleet.Predict(key++, image);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// The recovery drill: one replica's session is poisoned (a persistent
// failure that breaker probes cannot heal), the supervisor detects the
// stuck-open breaker, reloads the active checkpoint, and splices the fresh
// session in. Afterwards no serving session is poisoned and predictions
// are bitwise-correct again.
TEST_F(SupervisorTest, PoisonedReplicaIsReplacedAndServingHeals) {
  std::string path = TempPath("supervisor_heal_v1.eosc");
  std::shared_ptr<ModelSession> ref = MakeCheckpoint(path, 521);
  Rng rng(9);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);
  Prediction expected = ref->PredictOne(image);

  FleetOptions options;
  options.num_shards = 1;
  options.replicas_per_shard = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  options.server.health.breaker.cooldown_us = 5000;
  options.supervisor.enabled = true;
  options.supervisor.poll_interval_us = 500;
  options.supervisor.unhealthy_polls = 1;
  options.supervisor.max_restarts = 3;
  options.supervisor.initial_backoff_us = 1000;
  auto fleet = Fleet::Create(FactoryNet, path, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_NE((*fleet)->supervisor(), nullptr);

  // Exactly one batch poisons its serving session; every later batch on
  // that session fails until the supervisor replaces it.
  auto poison = ScopedFault::Failure(kReplicaPoisonFault, /*count=*/1);
  std::atomic<bool> stop{false};
  std::thread driver([&] { DriveTraffic(**fleet, image, stop); });

  bool healed = (*fleet)->supervisor()->WaitFor(
      [](const SupervisorSnapshot& s) { return s.replicas_replaced >= 1; },
      /*timeout_us=*/20000000);
  stop.store(true, std::memory_order_release);
  driver.join();
  ASSERT_TRUE(healed);
  EXPECT_EQ(FaultInjector::Global().total_fires(kReplicaPoisonFault), 1);

  // The poisoned session is really gone from the serving set...
  std::shared_ptr<const ReplicaSet> set = (*fleet)->shard(0).active_set();
  for (const auto& replica : set->replicas) {
    EXPECT_FALSE(replica->poisoned());
  }
  EXPECT_EQ(set->version, 1);
  // ...and the healed fleet answers bitwise-correctly (retry rides out any
  // residual breaker cooldown).
  for (uint64_t key = 0; key < 8; ++key) {
    Result<Prediction> served =
        RetryTransient([&] { return (*fleet)->Predict(key, image); });
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->version, 1);
    EXPECT_EQ(served->label, expected.label);
    EXPECT_EQ(served->confidence, expected.confidence);
  }

  (*fleet)->Shutdown();
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.replicas_replaced, 1);
  EXPECT_EQ(stats.supervisor.replicas_replaced, 1);
  EXPECT_EQ(stats.supervisor.load_failures, 0);
  EXPECT_EQ(stats.supervisor.budget_exhausted, 0);
  std::remove(path.c_str());
}

// The crash-loop drill: the fault re-poisons every replacement (count=-1
// fires on every batch), so each fresh session the supervisor installs
// fails again. The restart budget must bound the loop: exactly
// max_restarts replacements, then the slot is abandoned and
// budget_exhausted records the surrender.
TEST_F(SupervisorTest, RepoisoningCheckpointExhaustsRestartBudget) {
  std::string path = TempPath("supervisor_budget_v1.eosc");
  MakeCheckpoint(path, 547);
  Rng rng(11);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 1;
  options.replicas_per_shard = 1;
  options.server.num_workers = 1;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  // Fast breaker so every re-poisoned replacement is condemned quickly.
  options.server.health.breaker.failure_threshold = 1;
  options.server.health.breaker.cooldown_us = 2000;
  options.supervisor.enabled = true;
  options.supervisor.poll_interval_us = 500;
  options.supervisor.unhealthy_polls = 1;
  options.supervisor.max_restarts = 2;
  options.supervisor.initial_backoff_us = 1000;
  options.supervisor.backoff_multiplier = 2.0;
  options.supervisor.max_backoff_us = 10000;
  auto fleet = Fleet::Create(FactoryNet, path, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_NE((*fleet)->supervisor(), nullptr);

  auto poison = ScopedFault::Failure(kReplicaPoisonFault, /*count=*/-1);
  std::atomic<bool> stop{false};
  std::thread driver([&] { DriveTraffic(**fleet, image, stop); });

  bool exhausted = (*fleet)->supervisor()->WaitFor(
      [](const SupervisorSnapshot& s) { return s.budget_exhausted >= 1; },
      /*timeout_us=*/30000000);
  stop.store(true, std::memory_order_release);
  driver.join();
  ASSERT_TRUE(exhausted);

  SupervisorSnapshot snap = (*fleet)->supervisor()->Snapshot();
  // Exactly the budget's worth of replacements, each installed
  // successfully and then re-poisoned by the next batch, then surrender.
  EXPECT_EQ(snap.replicas_replaced, 2);
  EXPECT_EQ(snap.budget_exhausted, 1);
  EXPECT_EQ(snap.load_failures, 0);
  // Original session + each replacement was poisoned at least once.
  EXPECT_GE(FaultInjector::Global().total_fires(kReplicaPoisonFault), 3);

  (*fleet)->Shutdown();
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.replicas_replaced, 2);
  EXPECT_EQ(stats.supervisor.budget_exhausted, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eos::serve
