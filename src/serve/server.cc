#include "serve/server.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "testing/fault_injection.h"

namespace eos::serve {

namespace {

/// Stacks the per-request images [C, H, W] into one batch [N, C, H, W].
Tensor StackRequests(const std::vector<MicroBatcher::Request>& batch) {
  EOS_CHECK(!batch.empty());
  const Tensor& first = batch[0].image;
  EOS_CHECK_EQ(first.dim(), 3);
  int64_t sample_numel = first.numel();
  Tensor images({static_cast<int64_t>(batch.size()), first.size(0),
                 first.size(1), first.size(2)});
  for (size_t i = 0; i < batch.size(); ++i) {
    EOS_CHECK(SameShape(batch[i].image, first));
    std::memcpy(images.data() + static_cast<int64_t>(i) * sample_numel,
                batch[i].image.data(),
                static_cast<size_t>(sample_numel) * sizeof(float));
  }
  return images;
}

/// Completes every request in `batch` with the same terminal error.
void FailBatch(std::vector<MicroBatcher::Request>& batch,
               const Status& status) {
  for (auto& request : batch) {
    request.promise.set_value(status);
  }
}

}  // namespace

Server::Server(std::shared_ptr<ModelSession> session,
               const ServerOptions& options)
    : Server(std::vector<std::shared_ptr<ModelSession>>{std::move(session)},
             options) {}

Server::Server(std::vector<std::shared_ptr<ModelSession>> replicas,
               const ServerOptions& options)
    : options_(options),
      num_replicas_(static_cast<int>(replicas.size())),
      batcher_(options.batcher, &stats_) {
  EOS_CHECK(!replicas.empty());
  for (const auto& replica : replicas) EOS_CHECK(replica != nullptr);
  EOS_CHECK_GE(options_.num_workers, 0);
  EOS_CHECK_GT(options_.initial_version, 0);
  {
    auto set = std::make_shared<ReplicaSet>();
    set->version = options_.initial_version;
    set->replicas = std::move(replicas);
    std::lock_guard<DebugMutex> lock(set_mu_);
    active_set_ = std::move(set);
  }
  // Heartbeat slot per worker; one extra slot for the ServeOnce driver
  // (num_workers == 0) so the watchdog covers that mode too.
  int num_slots = options_.num_workers > 0 ? options_.num_workers : 1;
  health_ = std::make_unique<ReplicaHealth>(num_replicas_, num_slots,
                                            options_.health);
  if (options_.num_workers > 0) {
    workers_ = std::make_unique<runtime::ThreadPool>(options_.num_workers);
    for (int w = 0; w < options_.num_workers; ++w) {
      workers_->Submit(
          [this, w] { WorkerLoop(static_cast<size_t>(w)); });
    }
  }
}

Server::~Server() { Shutdown(); }

Result<std::future<Result<Prediction>>> Server::Submit(
    Tensor image, const SubmitOptions& submit_options) {
  return batcher_.Submit(std::move(image), submit_options);
}

Result<Prediction> Server::Predict(Tensor image,
                                   const SubmitOptions& submit_options) {
  EOS_ASSIGN_OR_RETURN(std::future<Result<Prediction>> future,
                       Submit(std::move(image), submit_options));
  return future.get();
}

bool Server::ServeOnce() {
  std::vector<MicroBatcher::Request> batch;
  if (!batcher_.NextBatch(batch)) return false;
  RunBatch(/*heartbeat_slot=*/0, /*preferred_replica=*/0, batch);
  return true;
}

void Server::WorkerLoop(size_t worker_index) {
  int slot = static_cast<int>(worker_index);
  int home = static_cast<int>(worker_index) % num_replicas_;
  std::vector<MicroBatcher::Request> batch;
  while (batcher_.NextBatch(batch)) {
    RunBatch(slot, home, batch);
  }
}

std::shared_ptr<const ReplicaSet> Server::AcquireSet() const {
  std::lock_guard<DebugMutex> lock(set_mu_);
  return active_set_;
}

std::shared_ptr<const ReplicaSet> Server::SwapReplicas(
    std::vector<std::shared_ptr<ModelSession>> replicas, int64_t version,
    bool rollback) {
  EOS_CHECK_GT(version, 0);
  EOS_CHECK_EQ(static_cast<int>(replicas.size()), num_replicas_);
  for (const auto& replica : replicas) EOS_CHECK(replica != nullptr);
  auto set = std::make_shared<ReplicaSet>();
  set->version = version;
  set->replicas = std::move(replicas);
  std::shared_ptr<const ReplicaSet> previous;
  {
    std::lock_guard<DebugMutex> lock(set_mu_);
    EOS_CHECK_NE(active_set_->version, version);
    previous = std::move(active_set_);
    active_set_ = std::move(set);
  }
  // The cutover is the pointer exchange above: batches popped from here on
  // resolve the new set; batches already running hold shared ownership of
  // `previous` and drain on it. Nothing is dropped either way.
  stats_.RecordSwap(rollback);
  return previous;
}

void Server::SpliceReplica(int replica, std::shared_ptr<ModelSession> session) {
  EOS_CHECK_GE(replica, 0);
  EOS_CHECK_LT(replica, num_replicas_);
  EOS_CHECK(session != nullptr);
  auto set = std::make_shared<ReplicaSet>();
  {
    std::lock_guard<DebugMutex> lock(set_mu_);
    set->version = active_set_->version;
    set->replicas = active_set_->replicas;
    set->replicas[static_cast<size_t>(replica)] = std::move(session);
    active_set_ = set;
  }
  // Reset AFTER the splice: a batch that resolves the new set can only hit
  // the fresh session, so a closed breaker never re-admits the evicted one.
  health_->breaker(replica).Reset();
  stats_.RecordReplicaReplaced();
}

int64_t Server::active_version() const { return AcquireSet()->version; }

void Server::RunBatch(int heartbeat_slot, int preferred_replica,
                      std::vector<MicroBatcher::Request>& batch) {
  // Resolve the versioned replica set exactly once: the whole batch runs
  // on it even if SwapReplicas lands mid-execution, so every stamped
  // version below is the version that really produced the prediction.
  std::shared_ptr<const ReplicaSet> set = AcquireSet();
  int replica = health_->AcquireReplica(preferred_replica);
  if (replica < 0) {
    // Every breaker refuses: fail fast so clients can back off and retry
    // once a cooldown lets a probe through.
    stats_.RecordReplicaFailure();
    FailBatch(batch,
              Status::Unavailable("no healthy replica (all breakers open)"));
    return;
  }

  health_->MarkBusy(heartbeat_slot, replica);
  testing::FaultInjector::MaybeStall(kWorkerStallFault);

  // Poison sticks to the session object (see kReplicaPoisonFault): once
  // set, every batch this session is asked to serve fails until the
  // supervisor splices in a fresh load — unlike replica_down below, which
  // consumes armed counts and so heals on its own.
  if (testing::FaultInjector::ShouldFail(kReplicaPoisonFault)) {
    set->replicas[static_cast<size_t>(replica)]->Poison();
  }
  bool poisoned = set->replicas[static_cast<size_t>(replica)]->poisoned();

  // Simulated crash of the serving replica (either the generic point or
  // this specific replica's): the batch fails with Unavailable and the
  // breaker records it, exactly like a real failed forward would.
  bool replica_down =
      poisoned || testing::FaultInjector::ShouldFail(kReplicaDownFault) ||
      testing::FaultInjector::ShouldFail(ReplicaDownPoint(replica));
  if (replica_down) {
    health_->MarkIdle(heartbeat_slot);
    health_->RecordFailure(replica);
    stats_.RecordReplicaFailure();
    FailBatch(batch,
              Status::Unavailable(StrFormat(
                  "replica %d is %s; request not served", replica,
                  poisoned ? "poisoned" : "down")));
    return;
  }

  Tensor images = StackRequests(batch);
  std::vector<Prediction> predictions =
      set->replicas[static_cast<size_t>(replica)]->PredictBatch(images);
  EOS_CHECK_EQ(predictions.size(), batch.size());
  for (Prediction& p : predictions) p.version = set->version;

  // A batch the watchdog flagged as stalled must not report success: the
  // stall already charged the replica's breaker a failure, and an instant
  // success would erase it before it could ever accumulate to a trip.
  bool stalled = health_->MarkIdle(heartbeat_slot);
  if (!stalled) health_->RecordSuccess(replica);

  auto done = std::chrono::steady_clock::now();
  stats_.RecordBatch(static_cast<int64_t>(batch.size()));
  stats_.RecordServedByVersion(set->version,
                               static_cast<int64_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    stats_.RecordLatencyUs(std::chrono::duration<double, std::micro>(
                               done - batch[i].enqueue_time)
                               .count());
    batch[i].promise.set_value(predictions[i]);
  }
}

void Server::Shutdown() {
  std::unique_ptr<runtime::ThreadPool> workers;
  {
    std::unique_lock<DebugMutex> lock(shutdown_mu_);
    if (shutdown_started_) {
      // Another caller claimed the drain; wait it out so that returning
      // from Shutdown always means "fully drained", then nothing to do.
      shutdown_cv_.Wait(lock, shutdown_mu_,
                        [this]() REQUIRES(shutdown_mu_) {
                          return shutdown_done_;
                        });
      return;
    }
    shutdown_started_ = true;
    workers = std::move(workers_);
  }
  // The drain runs with shutdown_mu_ released: joining the pool blocks on
  // the batcher's and pool's internal mutexes, and holding shutdown_mu_
  // across that would stall every concurrent Shutdown caller inside a
  // lock it cannot need.
  batcher_.Shutdown();
  if (workers != nullptr) {
    // The pool destructor joins the worker loops; they exit once NextBatch
    // reports the shut-down queue fully drained.
    workers.reset();
  } else {
    while (ServeOnce()) {
    }
  }
  {
    std::lock_guard<DebugMutex> lock(shutdown_mu_);
    shutdown_done_ = true;
  }
  shutdown_cv_.NotifyAll();
}

}  // namespace eos::serve
