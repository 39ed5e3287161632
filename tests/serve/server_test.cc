#include "serve/server.h"

#include <unistd.h>

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "nn/resnet.h"
#include "nn/serialize.h"
#include "runtime/thread_pool.h"
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

// The pid keeps this suite and its *_eos_deadlock_detect twin, which ctest
// may run at the same time, from deleting each other's files.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

void RemoveSnapshot(const std::string& path) {
  std::remove((path + ".extractor").c_str());
  std::remove((path + ".head").c_str());
}

/// Saves a warm (BN stats moved) net to `path` and returns the offline
/// reference predictions for `images`.
std::vector<int64_t> MakeSnapshotAndReference(const std::string& path,
                                              const Tensor& images,
                                              uint64_t seed) {
  nn::ImageClassifier net = SmallNet(seed);
  Rng rng(seed + 100);
  Tensor warmup = Tensor::Uniform({8, 3, 8, 8}, -1.0f, 1.0f, rng);
  net.Forward(warmup, /*training=*/true);
  EOS_CHECK(nn::SaveClassifier(net, path).ok());
  return Predict(net, images);
}

Tensor SampleImage(const Tensor& images, int64_t i) {
  return GatherImages(images, {i})
      .Reshape({images.size(1), images.size(2), images.size(3)});
}

/// Submits every image as a single-sample request from `client_threads`
/// closed-loop clients and checks each completed label against `expected`.
void DriveAndCheck(Server& server, const Tensor& images,
                   const std::vector<int64_t>& expected, int client_threads) {
  int64_t n = images.size(0);
  std::vector<int64_t> served(static_cast<size_t>(n), -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t i = c; i < n; i += client_threads) {
        for (;;) {
          auto f = server.Submit(SampleImage(images, i));
          if (f.ok()) {
            Result<Prediction> r = std::move(f).value().get();
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            served[static_cast<size_t>(i)] = r->label;
            break;
          }
          // Backpressure: closed-loop clients retry until accepted.
          ASSERT_EQ(f.status().code(), StatusCode::kResourceExhausted);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(served[static_cast<size_t>(i)], expected[static_cast<size_t>(i)])
        << "sample " << i;
  }
}

TEST(ServerTest, ServedPredictionsMatchOfflinePredictAcrossPolicies) {
  std::string path = TempPath("server_equiv.eosw");
  Rng rng(11);
  Tensor images = Tensor::Uniform({23, 3, 8, 8}, -1.0f, 1.0f, rng);
  std::vector<int64_t> expected = MakeSnapshotAndReference(path, images, 1);

  struct Policy {
    int workers;
    int replicas;
    int64_t max_batch;
    int64_t delay_us;
  };
  for (const Policy& policy : std::vector<Policy>{
           {1, 1, 1, 0},      // no batching at all
           {1, 1, 5, 500},    // odd batch size
           {3, 3, 8, 500},    // replicated sessions, concurrent forwards
           {4, 1, 32, 2000},  // many workers sharing one session
       }) {
    std::vector<std::shared_ptr<ModelSession>> replicas;
    for (int r = 0; r < policy.replicas; ++r) {
      auto session = ModelSession::Load(SmallNet(999 + r), path);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      replicas.push_back(std::move(session).value());
    }
    ServerOptions options;
    options.num_workers = policy.workers;
    options.batcher.max_batch_size = policy.max_batch;
    options.batcher.max_queue_delay_us = policy.delay_us;
    options.batcher.max_queue_depth = 64;
    Server server(std::move(replicas), options);
    DriveAndCheck(server, images, expected, /*client_threads=*/4);
    server.Shutdown();
    StatsSnapshot stats = server.Stats();
    EXPECT_EQ(stats.completed, images.size(0));
    EXPECT_GT(stats.batches, 0);
    EXPECT_GT(stats.p50_us, 0.0);
  }
  RemoveSnapshot(path);
}

TEST(ServerTest, BitwiseIdenticalAtAnyRuntimeThreadCount) {
  std::string path = TempPath("server_threads.eosw");
  Rng rng(13);
  Tensor images = Tensor::Uniform({9, 3, 8, 8}, -1.0f, 1.0f, rng);
  std::vector<int64_t> expected = MakeSnapshotAndReference(path, images, 2);

  int restore = runtime::ThreadCount();
  for (int lanes : {1, 4}) {
    runtime::SetThreadCount(lanes);
    auto session = ModelSession::Load(SmallNet(777), path);
    ASSERT_TRUE(session.ok());
    ServerOptions options;
    options.num_workers = 2;
    options.batcher.max_batch_size = 4;
    Server server(std::move(session).value(), options);
    DriveAndCheck(server, images, expected, /*client_threads=*/2);
  }
  runtime::SetThreadCount(restore);
  RemoveSnapshot(path);
}

TEST(ServerTest, BackpressureSurfacesWithoutBlocking) {
  // num_workers = 0: nothing drains, so the queue fills deterministically.
  ServerOptions options;
  options.num_workers = 0;
  options.batcher.max_batch_size = 4;
  options.batcher.max_queue_delay_us = 0;
  options.batcher.max_queue_depth = 2;
  Server server(std::make_shared<ModelSession>(SmallNet(3)), options);

  Rng rng(5);
  Tensor image = Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);
  auto f1 = server.Submit(image);
  auto f2 = server.Submit(image);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  auto f3 = server.Submit(image);
  ASSERT_FALSE(f3.ok());
  EXPECT_EQ(f3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.queue_depth(), 2);
  EXPECT_EQ(server.Stats().rejected, 1);

  // The caller-driven drain completes both accepted futures in one batch.
  ASSERT_TRUE(server.ServeOnce());
  Result<Prediction> p1 = std::move(f1).value().get();
  Result<Prediction> p2 = std::move(f2).value().get();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->label, p2->label);  // identical image, identical answer
  EXPECT_EQ(p1->confidence, p2->confidence);
  EXPECT_EQ(server.Stats().mean_batch_size, 2.0);
  server.Shutdown();
  EXPECT_FALSE(server.Submit(image).ok());
}

TEST(ServerTest, ShutdownDrainsEveryAcceptedRequest) {
  ServerOptions options;
  options.num_workers = 2;
  options.batcher.max_batch_size = 8;
  options.batcher.max_queue_delay_us = 5000;
  options.batcher.max_queue_depth = 256;
  Server server(std::make_shared<ModelSession>(SmallNet(4)), options);

  Rng rng(6);
  std::vector<std::future<Result<Prediction>>> futures;
  for (int i = 0; i < 50; ++i) {
    auto f = server.Submit(Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(f).value());
  }
  server.Shutdown();  // graceful: every accepted future still completes
  for (auto& f : futures) {
    Result<Prediction> p = f.get();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_GE(p->label, 0);
    EXPECT_LT(p->label, 4);
  }
  EXPECT_EQ(server.Stats().completed, 50);
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(ServerTest, SubmitAfterShutdownFailsPrecondition) {
  Server server(std::make_shared<ModelSession>(SmallNet(7)), ServerOptions{});
  server.Shutdown();
  Rng rng(8);
  auto f = server.Submit(Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServerTest, BlockingPredictConvenience) {
  Server server(std::make_shared<ModelSession>(SmallNet(9)), ServerOptions{});
  Rng rng(10);
  auto p = server.Predict(Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng));
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p->label, 0);
  EXPECT_LT(p->label, 4);
}

}  // namespace
}  // namespace eos::serve
