#ifndef EOS_SERVE_SERVER_H_
#define EOS_SERVE_SERVER_H_

#include <future>
#include <memory>
#include <vector>

#include "common/condvar.h"
#include "common/debug_mutex.h"
#include "common/thread_annotations.h"
#include "runtime/thread_pool.h"
#include "serve/micro_batcher.h"
#include "serve/model_session.h"
#include "serve/resilience.h"
#include "serve/stats.h"

/// \file
/// The serving front door: a dynamic micro-batching inference server that
/// turns a saved EOS-trained classifier into a concurrently-queryable
/// service. Clients Submit single images and receive futures; worker loops
/// on a dedicated runtime::ThreadPool coalesce requests through the
/// MicroBatcher, run batched eval-mode forwards on a ModelSession, and
/// complete each future with label + softmax confidence. Replica failures
/// trip per-replica circuit breakers and route work to healthy replicas
/// (serve/resilience.h). See DESIGN.md "Serving" and "Resilience &
/// checkpointing" for guarantees.

namespace eos::serve {

/// Fault point (see testing/fault_injection.h): while armed, a worker (or
/// the ServeOnce caller) sleeps the armed duration before executing its
/// micro-batch — a deterministic "slow worker" for drain/shutdown and
/// stall-watchdog tests.
inline constexpr char kWorkerStallFault[] = "serve.worker_stall";

/// Fault point: while armed, the next batch POISONS the session of the
/// replica serving it (ModelSession::Poison) before failing — a persistent
/// failure that sticks to the session object, so breaker probes keep
/// failing until the supervisor splices a fresh session into the slot.
/// Armed with count=1 this kills exactly one replica (the supervised-
/// recovery drill); armed unlimited it re-poisons every replacement, which
/// is how tests exercise the supervisor's restart budget and backoff.
inline constexpr char kReplicaPoisonFault[] = "serve.replica_poison";

struct ServerOptions {
  /// Worker loops draining the micro-batcher. Each worker's home replica is
  /// its index modulo the replica count (failover may route elsewhere);
  /// with fewer replicas than workers the shared sessions serialize their
  /// forward passes internally. 0 = no worker threads: the caller drives
  /// via ServeOnce() (deterministic mode for tests and single-threaded
  /// embedders).
  int num_workers = 1;
  MicroBatcherOptions batcher;
  /// Circuit-breaker and stall-watchdog policy shared by all replicas.
  ReplicaHealthOptions health;
  /// Version id stamped on predictions served by the construction-time
  /// replicas (SwapReplicas installs later versions). Must be > 0.
  int64_t initial_version = 1;
};

/// An immutable (version, replicas) pair — the unit of atomic model
/// hot-swap. Every micro-batch resolves the set pointer exactly once, so a
/// batch runs entirely on one version and its predictions are stamped with
/// exactly the version that served them; a concurrent SwapReplicas cannot
/// tear a batch across versions. Old sets stay alive (shared_ptr) until
/// their in-flight batches drain, and the fleet keeps the previous set
/// registered for instant rollback.
struct ReplicaSet {
  int64_t version = 0;
  std::vector<std::shared_ptr<ModelSession>> replicas;
};

/// A micro-batching inference server over one or more ModelSession
/// replicas of the same snapshot. Served predictions are bitwise-identical
/// to `core::Predict` on that snapshot regardless of worker count, replica
/// count, or batching policy, because eval-mode per-sample outputs are
/// batch-composition-independent (see ModelSession). The replica set is
/// hot-swappable (SwapReplicas): each batch runs on the one versioned set
/// it resolved at pop time and stamps its predictions with that version,
/// so the bitwise guarantee holds per served version across a cutover.
///
/// Every accepted request reaches exactly one terminal state on its
/// future: OK with a prediction, DeadlineExceeded (expired while queued),
/// or Unavailable (its batch hit a down replica and no healthy replica
/// could take it). Admission failures (ResourceExhausted backpressure or
/// shedding, FailedPrecondition after Shutdown) surface on Submit itself.
///
/// Shutdown is graceful: new Submits are refused, every queued request is
/// still executed and its future completed, then workers exit. The
/// destructor calls Shutdown(), so accepted futures never dangle.
class Server {
 public:
  /// Single-replica convenience constructor.
  Server(std::shared_ptr<ModelSession> session, const ServerOptions& options);

  /// Multi-replica constructor: worker i's home is replicas[i % size].
  /// All replicas must be loaded from the same snapshot (unchecked).
  Server(std::vector<std::shared_ptr<ModelSession>> replicas,
         const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one image [C, H, W]. Fails with ResourceExhausted when the
  /// queue is full or the request is shed (backpressure) and
  /// FailedPrecondition after Shutdown.
  Result<std::future<Result<Prediction>>> Submit(
      Tensor image, const SubmitOptions& submit_options = {});

  /// Blocking convenience: Submit then wait for the terminal result.
  Result<Prediction> Predict(Tensor image,
                             const SubmitOptions& submit_options = {});

  /// Executes at most one micro-batch on the calling thread. Blocks until
  /// work arrives (or shutdown); returns false when shut down and drained.
  /// This is the drive loop for num_workers == 0.
  bool ServeOnce();

  /// Stops accepting requests, drains every queued request (completing its
  /// future), and joins the workers. Idempotent and safe to call
  /// concurrently: exactly one caller performs the drain; every caller
  /// (first or not) returns only after the drain has completed.
  ///
  /// shutdown_mu_ is held only to claim the shutdown and take ownership of
  /// the worker pool — never across the drain/join itself — so it cannot
  /// participate in a lock cycle with the batcher's or the pool's internal
  /// mutexes.
  void Shutdown() EXCLUDES(shutdown_mu_);

  /// Atomically replaces the serving replica set with `replicas` under
  /// `version` (a model hot-swap). Requirements (EOS_CHECKed): the same
  /// replica count as the incumbent set (breakers and worker homes are
  /// sized to it), all sessions non-null, version > 0 and different from
  /// the incumbent's. Returns the previous set — still referenced by any
  /// in-flight batches, which drain on it — so the caller can keep it
  /// registered for instant rollback. Batches popped after the swap run
  /// entirely on the new set; no request is dropped, delayed, or served by
  /// a half-swapped model (tests/serve/fleet_test.cc proves bitwise
  /// equivalence under concurrent cutover). `rollback` marks the swap as a
  /// version restore in the stats.
  std::shared_ptr<const ReplicaSet> SwapReplicas(
      std::vector<std::shared_ptr<ModelSession>> replicas, int64_t version,
      bool rollback = false) EXCLUDES(set_mu_);

  /// Atomically replaces ONE replica of the active set with `session`,
  /// keeping the version — the supervisor's healing primitive
  /// (serve/supervisor.h). Same one-pointer cutover as SwapReplicas: a new
  /// immutable ReplicaSet is built with the slot spliced, so no batch is
  /// ever torn; batches already in flight drain on the old set, which keeps
  /// the displaced (failed) session alive until they finish. `session` must
  /// be loaded from the active version's checkpoint (unchecked — the caller
  /// owns provenance; the supervisor reloads from the registry's source for
  /// exactly this reason). Also resets the slot's circuit breaker — its
  /// failure history belongs to the session that was just evicted — and
  /// bumps the replicas_replaced counter.
  void SpliceReplica(int replica, std::shared_ptr<ModelSession> session)
      EXCLUDES(set_mu_);

  /// The set new batches will run on. Exposed for the supervisor (version
  /// + session identity checks) and tests; serving code paths resolve it
  /// once per batch internally.
  std::shared_ptr<const ReplicaSet> active_set() const EXCLUDES(set_mu_) {
    return AcquireSet();
  }

  /// Version of the set new batches will run on.
  int64_t active_version() const EXCLUDES(set_mu_);

  /// Telemetry snapshot (latency percentiles, throughput, queue depth,
  /// shed/deadline/retry/failure counters, per-version serve counts).
  StatsSnapshot Stats() const { return stats_.Snapshot(); }

  /// Replica health (breaker states) — exposed for tests and monitoring.
  ReplicaHealth& health() { return *health_; }

  int64_t queue_depth() const { return batcher_.queue_depth(); }
  int num_replicas() const { return num_replicas_; }
  const ServerOptions& options() const { return options_; }

 private:
  void WorkerLoop(size_t worker_index);
  /// Runs one popped batch: picks a replica (failover-aware), heartbeats,
  /// executes, and completes every request's future exactly once. The
  /// whole batch runs on one ReplicaSet resolved at entry.
  void RunBatch(int heartbeat_slot, int preferred_replica,
                std::vector<MicroBatcher::Request>& batch);

  /// The set the next batch should run on (one lock hop per batch).
  std::shared_ptr<const ReplicaSet> AcquireSet() const EXCLUDES(set_mu_);

  const ServerOptions options_;
  /// Replica count, fixed for the server's lifetime: breakers, heartbeat
  /// slots, and worker homes are all sized to it, so SwapReplicas requires
  /// the incoming set to match.
  const int num_replicas_;
  mutable DebugMutex set_mu_{"Server.set_mu_"};
  std::shared_ptr<const ReplicaSet> active_set_ GUARDED_BY(set_mu_);
  ServeStats stats_;
  MicroBatcher batcher_;
  std::unique_ptr<ReplicaHealth> health_;
  // Declared last so it is destroyed first: the pool dtor joins the worker
  // loops, which exit once the (already shut down) batcher drains. Shutdown
  // moves the pool out under shutdown_mu_ and joins it unlocked.
  std::unique_ptr<runtime::ThreadPool> workers_ GUARDED_BY(shutdown_mu_);
  DebugMutex shutdown_mu_{"Server.shutdown_mu_"};
  CondVar shutdown_cv_;
  bool shutdown_started_ GUARDED_BY(shutdown_mu_) = false;
  bool shutdown_done_ GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace eos::serve

#endif  // EOS_SERVE_SERVER_H_
