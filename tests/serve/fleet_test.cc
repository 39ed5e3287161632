#include "serve/fleet.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "nn/resnet.h"
#include "tensor/tensor_ops.h"

namespace eos::serve {
namespace {

nn::ImageClassifier SmallNet(uint64_t seed) {
  Rng rng(seed);
  nn::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.base_width = 8;
  config.num_classes = 4;
  return nn::BuildResNet(config, rng);
}

/// The factory every fleet in this file uses: fresh architecture, fixed
/// init seed (the checkpoint load overwrites the weights anyway).
nn::ImageClassifier FactoryNet() { return SmallNet(424242); }

// The pid keeps this suite and its *_eos_deadlock_detect twin, which ctest
// may run at the same time, from deleting each other's files.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

/// Saves a warm (BN statistics moved) net seeded with `seed` as a training
/// checkpoint at `path` and returns a reference session over those exact
/// weights for bitwise comparisons.
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

FleetOptions SmallFleetOptions(int shards, int workers) {
  FleetOptions options;
  options.num_shards = shards;
  options.server.num_workers = workers;
  options.server.batcher.max_batch_size = 4;
  options.server.batcher.max_queue_delay_us = 200;
  options.server.batcher.max_queue_depth = 64;
  return options;
}

TEST(FleetTest, RoutingMatchesTheRingAndCoversEveryShard) {
  std::string path = TempPath("fleet_route.eosc");
  MakeCheckpoint(path, 1);
  FleetOptions options = SmallFleetOptions(/*shards=*/4, /*workers=*/1);
  auto fleet = Fleet::Create(FactoryNet, path, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  HashRing reference(options.num_shards, options.vnodes_per_shard);
  std::vector<bool> hit(4, false);
  for (uint64_t key = 0; key < 1024; ++key) {
    int shard = (*fleet)->ShardForKey(key);
    EXPECT_EQ(shard, reference.ShardFor(key));
    hit[static_cast<size_t>(shard)] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(hit[static_cast<size_t>(s)]);
  std::remove(path.c_str());
}

TEST(FleetTest, ServedPredictionsMatchOfflineAcrossShards) {
  std::string path = TempPath("fleet_equiv.eosc");
  std::shared_ptr<ModelSession> reference = MakeCheckpoint(path, 7);
  Rng rng(21);
  Tensor images = Tensor::Uniform({17, 3, 8, 8}, -1.0f, 1.0f, rng);

  auto fleet =
      Fleet::Create(FactoryNet, path, SmallFleetOptions(3, /*workers=*/1));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (int64_t i = 0; i < images.size(0); ++i) {
    Tensor image = SampleImage(images, i);
    Prediction expected = reference->PredictOne(image);
    Result<Prediction> served =
        (*fleet)->Predict(static_cast<uint64_t>(i), image);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->label, expected.label) << "sample " << i;
    EXPECT_EQ(served->confidence, expected.confidence) << "sample " << i;
    EXPECT_EQ(served->version, 1) << "sample " << i;
  }
  (*fleet)->Shutdown();
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.completed, images.size(0));
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  EXPECT_EQ(stats.active_version, 1);
  std::remove(path.c_str());
}

/// Drives `total` closed-loop requests from `client_threads` threads while
/// the main thread deploys version 2 mid-run, then checks every completed
/// prediction bitwise against the offline reference session of WHICHEVER
/// version its stamp says served it. This is the swap-equivalence drill:
/// a cutover may split the traffic between versions, but it must never
/// drop, delay past shutdown, or mix a single prediction.
void RunSwapEquivalence(int client_threads) {
  std::string path_v1 = TempPath("fleet_swap_v1.eosc");
  std::string path_v2 = TempPath("fleet_swap_v2.eosc");
  std::shared_ptr<ModelSession> ref_v1 = MakeCheckpoint(path_v1, 31);
  std::shared_ptr<ModelSession> ref_v2 = MakeCheckpoint(path_v2, 57);
  Rng rng(5);
  Tensor images = Tensor::Uniform({12, 3, 8, 8}, -1.0f, 1.0f, rng);
  std::vector<Prediction> expected_v1, expected_v2;
  for (int64_t i = 0; i < images.size(0); ++i) {
    expected_v1.push_back(ref_v1->PredictOne(SampleImage(images, i)));
    expected_v2.push_back(ref_v2->PredictOne(SampleImage(images, i)));
  }

  FleetOptions options = SmallFleetOptions(/*shards=*/2, /*workers=*/2);
  auto fleet = Fleet::Create(FactoryNet, path_v1, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  const int64_t total = 96;
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> served_v1{0};
  std::atomic<int64_t> served_v2{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t r = c; r < total; r += client_threads) {
        int64_t i = r % images.size(0);
        for (;;) {
          auto f = (*fleet)->Submit(static_cast<uint64_t>(r),
                                    SampleImage(images, i));
          if (!f.ok()) {
            // Closed-loop clients ride out backpressure.
            ASSERT_EQ(f.status().code(), StatusCode::kResourceExhausted);
            std::this_thread::yield();
            continue;
          }
          Result<Prediction> served = std::move(f).value().get();
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          const Prediction& expected =
              served->version == 1 ? expected_v1[static_cast<size_t>(i)]
                                   : expected_v2[static_cast<size_t>(i)];
          ASSERT_TRUE(served->version == 1 || served->version == 2)
              << "unknown version stamp " << served->version;
          if (served->label != expected.label ||
              served->confidence != expected.confidence) {
            failed.store(true);
          }
          EXPECT_EQ(served->label, expected.label)
              << "sample " << i << " stamped v" << served->version;
          EXPECT_EQ(served->confidence, expected.confidence)
              << "sample " << i << " stamped v" << served->version;
          (served->version == 1 ? served_v1 : served_v2).fetch_add(1);
          completed.fetch_add(1);
          break;
        }
      }
    });
  }
  // Cut over once the run is warm: some requests land before, some after,
  // and with multiple worker threads some batches straddle the swap.
  while (completed.load() < total / 4) std::this_thread::yield();
  Status deploy = (*fleet)->DeployCheckpoint(2, path_v2);
  ASSERT_TRUE(deploy.ok()) << deploy.ToString();
  for (auto& t : clients) t.join();
  (*fleet)->Shutdown();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(completed.load(), total);
  EXPECT_EQ(served_v1.load() + served_v2.load(), total);
  // The deploy waited for a quarter of the traffic, so both versions served.
  EXPECT_GT(served_v1.load(), 0);
  EXPECT_GT(served_v2.load(), 0);

  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.totals.completed, total);
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  EXPECT_EQ(stats.totals.swaps, options.num_shards);
  EXPECT_EQ(stats.totals.rollbacks, 0);
  EXPECT_EQ(stats.active_version, 2);
  EXPECT_EQ(stats.previous_version, 1);
  int64_t by_version_total = 0;
  for (const auto& [version, count] : stats.totals.served_by_version) {
    EXPECT_TRUE(version == 1 || version == 2);
    by_version_total += count;
  }
  EXPECT_EQ(by_version_total, total);
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
}

TEST(FleetTest, SwapEquivalenceSingleClient) { RunSwapEquivalence(1); }

TEST(FleetTest, SwapEquivalenceEightClients) { RunSwapEquivalence(8); }

TEST(FleetTest, AdmissionControlRefusesDeepQueues) {
  std::string path = TempPath("fleet_admission.eosc");
  MakeCheckpoint(path, 11);
  FleetOptions options = SmallFleetOptions(/*shards=*/1, /*workers=*/0);
  options.admission_max_queue_depth = 2;
  auto fleet = Fleet::Create(FactoryNet, path, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  Rng rng(3);
  Tensor images = Tensor::Uniform({4, 3, 8, 8}, -1.0f, 1.0f, rng);
  // No workers drain the queue, so depth grows by one per accepted submit:
  // two are admitted, the third trips the fleet-level gate.
  std::vector<std::future<Result<Prediction>>> accepted;
  for (int64_t i = 0; i < 2; ++i) {
    auto f = (*fleet)->Submit(0, SampleImage(images, i));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    accepted.push_back(std::move(f).value());
  }
  auto refused = (*fleet)->Submit(0, SampleImage(images, 2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // Graceful shutdown still serves both accepted requests — admission
  // control rejects at the door, never after acceptance.
  (*fleet)->Shutdown();
  for (auto& f : accepted) {
    Result<Prediction> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  FleetSnapshot stats = (*fleet)->Stats();
  EXPECT_EQ(stats.admission_rejected, 1);
  EXPECT_EQ(stats.totals.completed, 2);
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
  std::remove(path.c_str());
}

TEST(FleetTest, RollbackRestoresThePreviousVersionInstantly) {
  std::string path_v1 = TempPath("fleet_rb_v1.eosc");
  std::string path_v2 = TempPath("fleet_rb_v2.eosc");
  std::shared_ptr<ModelSession> ref_v1 = MakeCheckpoint(path_v1, 71);
  MakeCheckpoint(path_v2, 91);
  Rng rng(9);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);

  auto fleet =
      Fleet::Create(FactoryNet, path_v1, SmallFleetOptions(2, /*workers=*/1));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Nothing to roll back to on a fresh fleet.
  Status early = (*fleet)->Rollback();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE((*fleet)->DeployCheckpoint(2, path_v2).ok());
  EXPECT_EQ((*fleet)->active_version(), 2);
  // Version ids are single-use: redeploying id 2 (or 1) is refused.
  EXPECT_EQ((*fleet)->DeployCheckpoint(2, path_v2).code(),
            StatusCode::kFailedPrecondition);

  // Rollback needs no checkpoint files at all — remove them first to prove
  // the retained sessions are what gets reinstalled.
  std::remove(path_v1.c_str());
  std::remove(path_v2.c_str());
  ASSERT_TRUE((*fleet)->Rollback().ok());
  EXPECT_EQ((*fleet)->active_version(), 1);
  EXPECT_EQ((*fleet)->registry().previous_version(), 2);
  Prediction expected = ref_v1->PredictOne(image);
  Result<Prediction> served = (*fleet)->Predict(12345, image);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->version, 1);
  EXPECT_EQ(served->label, expected.label);
  EXPECT_EQ(served->confidence, expected.confidence);

  // Roll forward: the pair (active, previous) just flips again.
  ASSERT_TRUE((*fleet)->Rollback().ok());
  EXPECT_EQ((*fleet)->active_version(), 2);
  (*fleet)->Shutdown();
  FleetSnapshot stats = (*fleet)->Stats();
  // Deploy swapped each of the 2 shards once; each Rollback again.
  EXPECT_EQ(stats.totals.swaps, 6);
  EXPECT_EQ(stats.totals.rollbacks, 4);
  EXPECT_EQ(stats.totals.dropped_on_drain, 0);
}

TEST(FleetTest, CreateFailsCleanlyOnMissingCheckpoint) {
  auto fleet = Fleet::Create(FactoryNet, TempPath("nonexistent.eosc"),
                             SmallFleetOptions(2, 1));
  ASSERT_FALSE(fleet.ok());
}

TEST(FleetDeathTest, InvalidOptionsAndSwapMisuseDie) {
  std::string path = TempPath("fleet_death.eosc");
  MakeCheckpoint(path, 3);
  EXPECT_DEATH(
      {
        FleetOptions options;
        options.num_shards = 0;
        (void)Fleet::Create(FactoryNet, path, options);  // checked misuse
      },
      "EOS_CHECK failed");
  EXPECT_DEATH(
      {
        FleetOptions options;
        options.initial_version = 0;
        (void)Fleet::Create(FactoryNet, path, options);  // checked misuse
      },
      "EOS_CHECK failed");

  auto session = ModelSession::LoadFromCheckpoint(FactoryNet(), path);
  ASSERT_TRUE(session.ok());
  ServerOptions server_options;
  server_options.num_workers = 0;
  Server server({*session, *session}, server_options);
  // Same version as the incumbent set.
  EXPECT_DEATH({ (void)server.SwapReplicas({*session, *session}, 1); },
               "EOS_CHECK failed");
  // Replica-count mismatch (breakers are sized to the incumbent count).
  EXPECT_DEATH({ (void)server.SwapReplicas({*session}, 2); },
               "EOS_CHECK failed");
  // Null replica.
  EXPECT_DEATH({ (void)server.SwapReplicas({*session, nullptr}, 2); },
               "EOS_CHECK failed");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eos::serve
