#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "nn/resnet.h"
#include "serve/fleet.h"
#include "serve/resilience.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_injection.h"

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

Tensor SampleImage(const Tensor& images, int64_t i) {
  return GatherImages(images, {i})
      .Reshape({images.size(1), images.size(2), images.size(3)});
}

/// Every fleet fault drill starts and ends with a clean injector, so a
/// failed drill can never leak an armed point into the next test.
class FleetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// The cutover drill: a replica dies on every shard WHILE a deploy is
// stalled mid-roll. Zero requests may fail — the per-replica breaker must
// fail the batch over to the healthy replica, and the swap must keep
// draining in-flight batches on whichever set they resolved. Every
// completed prediction must match the offline reference of its stamped
// version bitwise.
TEST_F(FleetFaultTest, ReplicaDownDuringCutoverServesEveryRequest) {
  std::string path_v1 = TempPath("fleet_drill_v1.eosc");
  std::string path_v2 = TempPath("fleet_drill_v2.eosc");
  std::shared_ptr<ModelSession> ref_v1 = MakeCheckpoint(path_v1, 131);
  std::shared_ptr<ModelSession> ref_v2 = MakeCheckpoint(path_v2, 157);
  Rng rng(15);
  Tensor images = Tensor::Uniform({8, 3, 8, 8}, -1.0f, 1.0f, rng);
  std::vector<Prediction> expected_v1, expected_v2;
  for (int64_t i = 0; i < images.size(0); ++i) {
    expected_v1.push_back(ref_v1->PredictOne(SampleImage(images, i)));
    expected_v2.push_back(ref_v2->PredictOne(SampleImage(images, i)));
  }

  FleetOptions options;
  options.num_shards = 2;
  options.replicas_per_shard = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 2;
  options.server.batcher.max_queue_delay_us = 100;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Hold the deploy between shard 0's cutover and shard 1's (one stall
  // consumed after shard 1's load) so the mixed-version window is wide
  // enough for traffic to land in it deterministically.
  auto stall = ScopedFault::Stall(kSwapStallFault, /*stall_us=*/30000,
                                  /*count=*/1, /*skip=*/1);
  std::thread deployer([&] {
    Status deploy = (*fleet)->DeployCheckpoint(2, path_v2);
    EXPECT_TRUE(deploy.ok()) << deploy.ToString();
  });

  // Replica 0 goes down (in every shard — the point is shared) for a
  // bounded burst while the swap is in flight.
  auto down = ScopedFault::Failure(ReplicaDownPoint(0), /*count=*/4);

  const int64_t total = 64;
  std::atomic<int64_t> served_v1{0};
  std::atomic<int64_t> served_v2{0};
  std::atomic<int64_t> failed_requests{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t r = c; r < total; r += 4) {
        int64_t i = r % images.size(0);
        // A batch that landed on the downed replica fails Unavailable; the
        // drill's claim is that a retrying client ALWAYS gets an answer
        // (the breaker reroutes to the healthy replica), so retry without
        // limit and count terminal failures only.
        Result<Prediction> served = RetryTransient([&] {
          return (*fleet)->Predict(static_cast<uint64_t>(r),
                                   SampleImage(images, i));
        });
        if (!served.ok()) {
          failed_requests.fetch_add(1);
          ADD_FAILURE() << served.status().ToString();
          continue;
        }
        ASSERT_TRUE(served->version == 1 || served->version == 2);
        const Prediction& expected =
            served->version == 1 ? expected_v1[static_cast<size_t>(i)]
                                 : expected_v2[static_cast<size_t>(i)];
        EXPECT_EQ(served->label, expected.label);
        EXPECT_EQ(served->confidence, expected.confidence);
        (served->version == 1 ? served_v1 : served_v2).fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  deployer.join();
  (*fleet)->Shutdown();

  EXPECT_EQ(failed_requests.load(), 0);
  EXPECT_EQ(served_v1.load() + served_v2.load(), total);
  // The drill really exercised both faults, asserted on the injector's
  // cumulative history (which survives the ScopedFault guards): the stall
  // held the roll exactly once, and the downed replica really failed
  // batches — at least one, at most its armed budget (scheduling decides
  // how many of the 4 land before the breakers shield the replica).
  EXPECT_EQ(FaultInjector::Global().total_fires(kSwapStallFault), 1);
  EXPECT_GE(FaultInjector::Global().total_fires(ReplicaDownPoint(0)), 1);
  EXPECT_LE(FaultInjector::Global().total_fires(ReplicaDownPoint(0)), 4);
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.completed, total);
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  EXPECT_EQ(stats.active_version, 2);
  EXPECT_EQ(stats.previous_version, 1);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// The failed-deploy drill: checkpoint.load_fail kills the rolling swap at
// its second shard (skip passes shard 0's load through). The deploy must
// return the load error, roll shard 0 back automatically, and leave every
// shard serving the incumbent version — the recorded rollback shows up in
// the per-shard stats and the fleet never serves a mixed state afterwards.
TEST_F(FleetFaultTest, LoadFailureMidRollTriggersAutomaticRollback) {
  std::string path_v1 = TempPath("fleet_loadfail_v1.eosc");
  std::string path_v2 = TempPath("fleet_loadfail_v2.eosc");
  std::shared_ptr<ModelSession> ref_v1 = MakeCheckpoint(path_v1, 211);
  MakeCheckpoint(path_v2, 223);
  Rng rng(33);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 3;
  options.server.num_workers = 1;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  {
    // One replica per shard: shard 0 loads cleanly (skip=1), shard 1's
    // load dies.
    auto load_fail =
        ScopedFault::Failure(kLoadFailFault, /*count=*/1, /*skip=*/1);
    Status deploy = (*fleet)->DeployCheckpoint(2, path_v2);
    ASSERT_FALSE(deploy.ok());
    EXPECT_EQ(deploy.code(), StatusCode::kIoError);
    EXPECT_EQ(load_fail.fire_count(), 1);
  }
  // The cumulative history still answers after the guard died, and it is
  // the drill's only fired point — FireCounts doubles as a "no other fault
  // leaked into this scenario" check.
  EXPECT_EQ(FaultInjector::Global().total_fires(kLoadFailFault), 1);
  std::map<std::string, int64_t> fired = FaultInjector::Global().FireCounts();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired.begin()->first, kLoadFailFault);

  // The fleet is whole again on version 1: registry, every shard, and the
  // next served prediction all agree.
  EXPECT_EQ((*fleet)->active_version(), 1);
  EXPECT_EQ((*fleet)->registry().previous_version(), 0);
  for (int s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ((*fleet)->shard(s).active_version(), 1) << "shard " << s;
  }
  Prediction expected = ref_v1->PredictOne(image);
  Result<Prediction> served = (*fleet)->Predict(99, image);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->version, 1);
  EXPECT_EQ(served->label, expected.label);
  EXPECT_EQ(served->confidence, expected.confidence);

  // The recorded rollback path: shard 0 swapped forward then back (2
  // swaps, 1 rollback); shards 1 and 2 were never touched.
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.per_shard[0].swaps, 2);
  EXPECT_EQ(stats.per_shard[0].rollbacks, 1);
  EXPECT_EQ(stats.per_shard[1].swaps, 0);
  EXPECT_EQ(stats.per_shard[2].swaps, 0);

  // Version id 2 was consumed by the failed attempt (ids are single-use);
  // the repaired deploy ships as id 3 and succeeds end to end.
  Status redeploy = (*fleet)->DeployCheckpoint(3, path_v2);
  ASSERT_TRUE(redeploy.ok()) << redeploy.ToString();
  EXPECT_EQ((*fleet)->active_version(), 3);
  (*fleet)->Shutdown();
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

// Requests must keep completing while a deploy is stalled mid-roll — the
// zero-downtime half of the swap contract, pinned with a fault stall
// instead of a timing race.
TEST_F(FleetFaultTest, ServingContinuesWhileDeployIsStalled) {
  std::string path_v1 = TempPath("fleet_stall_v1.eosc");
  std::string path_v2 = TempPath("fleet_stall_v2.eosc");
  MakeCheckpoint(path_v1, 311);
  MakeCheckpoint(path_v2, 331);
  Rng rng(44);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  FleetOptions options;
  options.num_shards = 2;
  options.server.num_workers = 1;
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  auto stall = ScopedFault::Stall(kSwapStallFault, /*stall_us=*/50000,
                                  /*count=*/1, /*skip=*/1);
  std::thread deployer([&] {
    Status deploy = (*fleet)->DeployCheckpoint(2, path_v2);
    EXPECT_TRUE(deploy.ok()) << deploy.ToString();
  });
  // Wait until the roll is provably in flight (the stall point fired), then
  // serve through the stalled window.
  while (stall.fire_count() == 0) std::this_thread::yield();
  int64_t served_during_stall = 0;
  for (int r = 0; r < 8; ++r) {
    Result<Prediction> served =
        (*fleet)->Predict(static_cast<uint64_t>(r), image);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served->version == 1 || served->version == 2);
    ++served_during_stall;
  }
  EXPECT_EQ(served_during_stall, 8);
  deployer.join();
  EXPECT_EQ(FaultInjector::Global().total_fires(kSwapStallFault), 1);
  EXPECT_EQ((*fleet)->active_version(), 2);
  (*fleet)->Shutdown();
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

TEST_F(FleetFaultTest, StatsMisuseDies) {
  EXPECT_DEATH(
      {
        ServeStats stats;
        stats.RecordServedByVersion(0);  // version ids are strictly positive
      },
      "EOS_CHECK failed");
  EXPECT_DEATH(
      {
        ServeStats stats;
        stats.RecordServedByVersion(1, -2);  // negative attribution
      },
      "EOS_CHECK failed");
}

}  // namespace
}  // namespace eos::serve
