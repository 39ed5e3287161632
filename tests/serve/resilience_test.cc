#include "serve/resilience.h"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/resnet.h"
#include "serve/server.h"
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

Tensor RandomImage(Rng& rng) {
  return Tensor::Uniform({3, 8, 8}, -1.0f, 1.0f, rng);
}

void SleepUs(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// --- RetryTransient -------------------------------------------------------

TEST_F(ResilienceTest, TransientCodesAreUnavailableAndResourceExhaustedOnly) {
  EXPECT_TRUE(IsTransient(Status::Unavailable("replica down")));
  EXPECT_TRUE(IsTransient(Status::ResourceExhausted("queue full")));
  EXPECT_FALSE(IsTransient(Status::DeadlineExceeded("too late")));
  EXPECT_FALSE(IsTransient(Status::FailedPrecondition("shut down")));
  EXPECT_FALSE(IsTransient(Status::OK()));
}

TEST_F(ResilienceTest, RetryTransientStopsAtFirstTerminalError) {
  int attempts = 0;
  Result<Prediction> r = RetryTransient([&]() -> Result<Prediction> {
    ++attempts;
    if (attempts == 1) return Status::ResourceExhausted("queue full");
    if (attempts == 2) return Status::Unavailable("replica down");
    return Status::DeadlineExceeded("too late");
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(attempts, 3);
}

// --- CircuitBreaker -------------------------------------------------------

TEST_F(ResilienceTest, BreakerTripsAfterConsecutiveFailuresOnly) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown_us = 60'000'000;  // never elapses in this test
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());

  breaker.RecordFailure();
  EXPECT_EQ(breaker.consecutive_failures(), 1);
  breaker.RecordSuccess();  // success resets the streak
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST_F(ResilienceTest, BreakerHalfOpenAdmitsSingleProbeThenCloses) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_us = 5000;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  SleepUs(20'000);  // past the cooldown
  EXPECT_TRUE(breaker.AllowRequest());  // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());  // only one probe in flight

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST_F(ResilienceTest, BreakerProbeFailureReopensForFreshCooldown) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_us = 5000;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  SleepUs(20'000);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // probe failed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());  // fresh cooldown just started
  SleepUs(20'000);
  EXPECT_TRUE(breaker.AllowRequest());  // ...but it can probe again
}

TEST_F(ResilienceTest, StateNamesCoverEveryState) {
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kClosed),
               "Closed");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kOpen),
               "Open");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kHalfOpen),
               "HalfOpen");
}

// --- ReplicaHealth --------------------------------------------------------

TEST_F(ResilienceTest, AcquireReplicaFailsOverPastTrippedBreakers) {
  ReplicaHealthOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_us = 60'000'000;
  ReplicaHealth health(/*num_replicas=*/3, /*num_slots=*/1, options);

  EXPECT_EQ(health.AcquireReplica(0), 0);
  health.RecordFailure(0);
  EXPECT_EQ(health.AcquireReplica(0), 1);  // wrapped scan skips the open one
  EXPECT_EQ(health.AcquireReplica(2), 2);  // healthy preferred stays home
  health.RecordFailure(1);
  EXPECT_EQ(health.AcquireReplica(0), 2);
  health.RecordFailure(2);
  EXPECT_EQ(health.AcquireReplica(0), -1);  // every breaker refuses
  EXPECT_EQ(health.AcquireReplica(2), -1);
}

TEST_F(ResilienceTest, WatchdogChargesStalledWorkerOncePerEpisode) {
  ReplicaHealthOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_us = 60'000'000;
  options.stall_threshold_us = 3000;
  options.watchdog_interval_us = 500;
  ReplicaHealth health(/*num_replicas=*/1, /*num_slots=*/1, options);

  health.MarkBusy(0, 0);
  SleepUs(30'000);  // well past the stall threshold; many watchdog ticks
  EXPECT_EQ(health.breaker(0).state(), CircuitBreaker::State::kOpen);
  // Repeated ticks charged exactly one failure for the episode.
  EXPECT_EQ(health.breaker(0).consecutive_failures(), 1);
  EXPECT_TRUE(health.MarkIdle(0));  // the caller learns it was flagged

  // A fast episode is never flagged.
  health.MarkBusy(0, 0);
  EXPECT_FALSE(health.MarkIdle(0));
}

// --- Deadlines, shedding, failover through the Server ---------------------

TEST_F(ResilienceTest, QueuedRequestPastDeadlineCompletesDeadlineExceeded) {
  ServerOptions options;
  options.num_workers = 0;  // caller-driven: expiry happens while queued
  Server server(std::make_shared<ModelSession>(SmallNet(1)), options);
  Rng rng(2);

  SubmitOptions tight;
  tight.timeout_us = 1;
  auto expired = server.Submit(RandomImage(rng), tight);
  ASSERT_TRUE(expired.ok());
  SleepUs(10'000);  // the queued request's budget runs out
  auto fresh = server.Submit(RandomImage(rng));
  ASSERT_TRUE(fresh.ok());

  ASSERT_TRUE(server.ServeOnce());  // pops both; only the fresh one rides
  Result<Prediction> e = std::move(expired).value().get();
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  Result<Prediction> f = std::move(fresh).value().get();
  ASSERT_TRUE(f.ok()) << f.status().ToString();

  StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.completed, 1);  // expiry is not a completion
}

TEST_F(ResilienceTest, DeadlineFaultForcesExpiryWithoutTimingRaces) {
  ServerOptions options;
  options.num_workers = 0;
  Server server(std::make_shared<ModelSession>(SmallNet(3)), options);
  Rng rng(4);

  auto guard = ScopedFault::Failure(kDeadlineFault, 1);
  auto doomed = server.Submit(RandomImage(rng));
  auto served = server.Submit(RandomImage(rng));
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(server.ServeOnce());

  Result<Prediction> d = std::move(doomed).value().get();
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);
  Result<Prediction> s = std::move(served).value().get();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(guard.fire_count(), 1);
}

TEST_F(ResilienceTest, HighWaterMarkShedsOnlyLowPriorityRequests) {
  ServerOptions options;
  options.num_workers = 0;
  options.batcher.max_queue_depth = 8;
  options.batcher.shed_queue_depth = 2;
  Server server(std::make_shared<ModelSession>(SmallNet(5)), options);
  Rng rng(6);

  SubmitOptions sheddable;
  sheddable.priority = 0;
  // Below the mark, low-priority work is admitted like any other.
  ASSERT_TRUE(server.Submit(RandomImage(rng), sheddable).ok());
  ASSERT_TRUE(server.Submit(RandomImage(rng)).ok());
  ASSERT_EQ(server.queue_depth(), 2);  // at the high-water mark now

  auto shed = server.Submit(RandomImage(rng), sheddable);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // Normal-priority traffic still gets through until the hard bound.
  ASSERT_TRUE(server.Submit(RandomImage(rng)).ok());

  StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.rejected, 0);  // shedding is its own counter
  server.Shutdown();  // drains the three accepted requests
}

TEST_F(ResilienceTest, ReplicaDownFailsOverThenBreakerReadmits) {
  ServerOptions options;
  options.num_workers = 0;
  options.health.breaker.failure_threshold = 2;
  options.health.breaker.cooldown_us = 20'000;
  std::vector<std::shared_ptr<ModelSession>> replicas = {
      std::make_shared<ModelSession>(SmallNet(7)),
      std::make_shared<ModelSession>(SmallNet(7)),
  };
  Server server(std::move(replicas), options);
  Rng rng(8);

  auto serve_one = [&]() -> Result<Prediction> {
    auto f = server.Submit(RandomImage(rng));
    EOS_CHECK(f.ok());
    EOS_CHECK(server.ServeOnce());
    return std::move(f).value().get();
  };

  auto down = ScopedFault::Failure(ReplicaDownPoint(0), -1);
  for (int i = 0; i < 2; ++i) {
    Result<Prediction> r = serve_one();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(server.health().breaker(0).state(),
            CircuitBreaker::State::kOpen);

  // With replica 0 tripped, the same preferred-0 path serves via replica 1.
  Result<Prediction> failover = serve_one();
  ASSERT_TRUE(failover.ok()) << failover.status().ToString();
  EXPECT_EQ(server.Stats().replica_failures, 2);

  // Replica recovers; after the cooldown one probe re-admits it.
  down.Disarm();
  SleepUs(40'000);
  Result<Prediction> probe = serve_one();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(server.health().breaker(0).state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(ResilienceTest, RetryTransientSucceedsAfterTransientFailures) {
  ServerOptions options;
  options.num_workers = 1;
  options.health.breaker.failure_threshold = 100;  // breaker out of the way
  Server server(std::make_shared<ModelSession>(SmallNet(9)), options);
  Rng image_rng(10);
  Tensor image = RandomImage(image_rng);

  auto down = ScopedFault::Failure(kReplicaDownFault, 2);
  int attempts = 0;
  Result<Prediction> r = RetryTransient([&] {
    ++attempts;
    return server.Predict(image.Clone());
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(down.fire_count(), 2);
  EXPECT_EQ(attempts, 3);
}

TEST_F(ResilienceTest, ShutdownRacingInFlightRetriesNeverHangs) {
  ServerOptions options;
  options.num_workers = 1;
  options.health.breaker.failure_threshold = 1000;
  Server server(std::make_shared<ModelSession>(SmallNet(15)), options);
  Rng image_rng(16);
  Tensor image = RandomImage(image_rng);

  // Every attempt fails Unavailable, so the client keeps retrying until
  // Shutdown turns Submit into FailedPrecondition (terminal).
  auto down = ScopedFault::Failure(kReplicaDownFault, -1);
  Status seen = Status::OK();
  std::thread client([&] {
    Result<Prediction> r =
        RetryTransient([&] { return server.Predict(image.Clone()); });
    seen = r.status();
  });
  SleepUs(10'000);
  server.Shutdown();
  client.join();  // must terminate promptly — the join itself is the test
  EXPECT_EQ(seen.code(), StatusCode::kFailedPrecondition) << seen.ToString();
}

// --- The acceptance fault drill ------------------------------------------
//
// Three replicas, one of them down and stall faults armed, closed-loop
// retrying clients plus sheddable deadline traffic: every request must
// reach a correct terminal state (never hang), and the tripped breaker
// must re-admit its replica after the cooldown.
TEST_F(ResilienceTest, FaultDrillEveryRequestReachesTerminalState) {
  ServerOptions options;
  options.num_workers = 3;
  options.batcher.max_batch_size = 4;
  options.batcher.max_queue_delay_us = 200;
  options.batcher.max_queue_depth = 256;
  options.batcher.shed_queue_depth = 128;
  options.health.breaker.failure_threshold = 2;
  options.health.breaker.cooldown_us = 20'000;
  // Watchdog armed but lenient: the injected 500us stalls slow batches
  // without charging healthy replicas.
  options.health.stall_threshold_us = 5'000'000;
  std::vector<std::shared_ptr<ModelSession>> replicas;
  for (int r = 0; r < 3; ++r) {
    replicas.push_back(std::make_shared<ModelSession>(SmallNet(20)));
  }
  Server server(std::move(replicas), options);

  auto down = ScopedFault::Failure(ReplicaDownPoint(1), -1);
  auto stall = ScopedFault::Stall(kWorkerStallFault, 500, 8);

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        Tensor image = RandomImage(rng);
        Result<Prediction> r =
            RetryTransient([&] { return server.Predict(image.Clone()); });
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else {
          ADD_FAILURE() << r.status().ToString();
        }
      }
    });
  }
  // Sheddable deadline traffic rides along: each future must still reach a
  // terminal state (served, expired, or shed at admission).
  Rng aux_rng(200);
  SubmitOptions sheddable;
  sheddable.priority = 0;
  sheddable.timeout_us = 100;
  int aux_terminal = 0;
  for (int i = 0; i < 8; ++i) {
    auto f = server.Submit(RandomImage(aux_rng), sheddable);
    if (!f.ok()) {
      if (f.status().code() == StatusCode::kResourceExhausted) ++aux_terminal;
      continue;
    }
    Result<Prediction> r = std::move(f).value().get();
    if (r.ok() || r.status().code() == StatusCode::kDeadlineExceeded ||
        r.status().code() == StatusCode::kUnavailable) {
      ++aux_terminal;
    }
  }
  for (auto& t : clients) t.join();

  // Retrying clients route around the down replica to the two healthy
  // ones, so every request is answered.
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_EQ(aux_terminal, 8);
  StatsSnapshot mid = server.Stats();
  EXPECT_GT(mid.replica_failures, 0);

  // The replica recovers: after the cooldown a probe from the worker whose
  // home it is re-admits it.
  down.Disarm();
  SleepUs(40'000);
  Rng probe_rng(300);
  bool readmitted = false;
  for (int i = 0; i < 200 && !readmitted; ++i) {
    Result<Prediction> r = server.Predict(RandomImage(probe_rng));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    readmitted = server.health().breaker(1).state() ==
                 CircuitBreaker::State::kClosed;
    if (!readmitted) SleepUs(1000);
  }
  EXPECT_TRUE(readmitted) << "breaker 1 never re-closed after recovery";
  server.Shutdown();
}

}  // namespace
}  // namespace eos::serve
