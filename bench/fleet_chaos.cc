// Fleet chaos drill: a scripted kill / stall / bad-deploy schedule executed
// against a live serve::Fleet under closed-loop load, self-checking the
// whole self-healing story end to end. The script:
//
//   1. boot v1 (supervisor enabled), 64 closed-loop clients hammering
//   2. kill: poison one replica's session mid-traffic -> the supervisor
//      must witness the stuck breaker, reload the checkpoint, and splice a
//      fresh session in (recovery time recorded)
//   3. stall: a burst of worker stalls rides through on the watchdog-free
//      path (slow != dead; nothing may fail)
//   4. bad deploy A: a canary whose weights diverge from the incumbent on
//      a reference batch -> the probe aborts it BEFORE it serves any key
//   5. bad deploy B: a canary with healthy weights but a tripped guardrail
//      -> auto-abort after its first window; only canary-slice keys may
//      ever have been served by it
//   6. good deploy: a healthy canary passes its windows and promotes to a
//      full roll (promotion latency recorded)
//
// Exit is nonzero unless: zero terminally-failed client requests, zero
// bitwise mismatches against offline per-version references, zero
// dropped_on_drain fleet-wide, the supervisor really replaced a replica,
// the bad versions never touched a non-canary key, and the fleet ended
// fully on the promoted version.
//
// Run: ./build/bench/fleet_chaos
//      ./build/bench/fleet_chaos --clients=64 --target_requests=600

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "nn/resnet.h"
#include "serve/canary.h"
#include "serve/fleet.h"
#include "serve/resilience.h"
#include "serve/supervisor.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_injection.h"

namespace {

using eos::testing::FaultInjector;
using eos::testing::ScopedFault;

int64_t g_image_size = 8;

eos::nn::ImageClassifier BuildNet(uint64_t seed) {
  eos::Rng rng(seed);
  eos::nn::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.base_width = 8;
  config.num_classes = 4;
  return eos::nn::BuildResNet(config, rng);
}

eos::nn::ImageClassifier FactoryNet() { return BuildNet(0xC4405); }

std::shared_ptr<eos::serve::ModelSession> WriteCheckpoint(
    const std::string& path, uint64_t seed) {
  eos::nn::ImageClassifier net = BuildNet(seed);
  eos::Rng rng(seed + 1);
  eos::Tensor warmup = eos::Tensor::Uniform(
      {16, 3, g_image_size, g_image_size}, -1.0f, 1.0f, rng);
  net.Forward(warmup, /*training=*/true);
  eos::TrainCheckpoint ckpt;
  eos::Status status = eos::SaveCheckpoint(ckpt, net, path);
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  auto session =
      eos::serve::ModelSession::LoadFromCheckpoint(FactoryNet(), path);
  if (!session.ok()) return nullptr;
  return std::move(session).value();
}

/// Thread-safe (key -> versions that served it) evidence log. The chaos
/// self-check reads it to prove the aborted canary never served a key
/// outside its deterministic slice.
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

struct CheckFailures {
  int count = 0;
  void Expect(bool ok, const char* what) {
    if (ok) return;
    ++count;
    std::fprintf(stderr, "SELF-CHECK FAILED: %s\n", what);
  }
};

}  // namespace

int main(int argc, char** argv) {
  eos::FlagSet flags;
  int64_t* clients = flags.AddInt("clients", 64, "closed-loop client threads");
  int64_t* target = flags.AddInt(
      "target_requests", 600,
      "minimum completed requests before the script advances past phase 1");
  int64_t* image_size = flags.AddInt("image_size", 8, "image edge size");
  int64_t* seed = flags.AddInt("seed", 1, "rng seed");
  std::string* ckpt_prefix = flags.AddString(
      "ckpt", "/tmp/eos_fleet_chaos_ckpt", "scratch checkpoint prefix");
  std::string* out =
      flags.AddString("out", "BENCH_fleet_chaos.json", "JSON output path");
  eos::Status status = flags.Parse(argc, argv);
  if (!status.ok() || flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return status.ok() ? 0 : 2;
  }
  g_image_size = *image_size;
  FaultInjector::Global().DisarmAll();

  // Two weight sets: W1 boots the fleet (and, re-registered under a new id,
  // plays the "healthy but guardrail-tripped" canary, so its predictions
  // are verifiable against the same reference); W2 plays both the diverging
  // bad deploy and the final promoted version. W2's seed is searched so the
  // divergence probe provably fires (>0 on the reference batch) — the
  // search is deterministic, so the whole drill is.
  std::string path_w1 = *ckpt_prefix + "_w1.eosc";
  std::string path_w2 = *ckpt_prefix + "_w2.eosc";
  auto ref_w1 = WriteCheckpoint(path_w1, static_cast<uint64_t>(*seed) + 10);
  if (ref_w1 == nullptr) return 1;
  eos::Rng probe_rng(static_cast<uint64_t>(*seed) + 3);
  eos::Tensor reference_batch = eos::Tensor::Uniform(
      {32, 3, g_image_size, g_image_size}, -1.0f, 1.0f, probe_rng);
  std::shared_ptr<eos::serve::ModelSession> ref_w2;
  double offline_divergence = 0.0;
  for (uint64_t attempt = 0; attempt < 16; ++attempt) {
    ref_w2 = WriteCheckpoint(path_w2,
                             static_cast<uint64_t>(*seed) + 20 + attempt);
    if (ref_w2 == nullptr) return 1;
    offline_divergence =
        eos::serve::PredictionDivergence(*ref_w1, *ref_w2, reference_batch);
    if (offline_divergence > 0.0) break;
  }
  if (offline_divergence == 0.0) {
    std::fprintf(stderr, "could not find diverging weights in 16 tries\n");
    return 1;
  }

  // Offline per-version references for the bitwise self-check. Version ids
  // follow the script: 1 = W1 (boot), 2 = W2 (divergence-aborted, must
  // never serve), 3 = W1 (guardrail-aborted canary), 4 = W2 (promoted).
  eos::Rng image_rng(static_cast<uint64_t>(*seed) + 2);
  std::vector<eos::Tensor> pool;
  std::vector<eos::serve::Prediction> expected_w1, expected_w2;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(eos::Tensor::Uniform({3, g_image_size, g_image_size},
                                        -1.0f, 1.0f, image_rng));
    expected_w1.push_back(ref_w1->PredictOne(pool.back()));
    expected_w2.push_back(ref_w2->PredictOne(pool.back()));
  }
  std::map<int64_t, const std::vector<eos::serve::Prediction>*> expected = {
      {1, &expected_w1}, {3, &expected_w1}, {4, &expected_w2}};

  eos::serve::FleetOptions options;
  options.num_shards = 2;
  options.replicas_per_shard = 2;
  options.server.num_workers = 2;
  options.server.batcher.max_batch_size = 8;
  options.server.batcher.max_queue_delay_us = 200;
  options.server.health.breaker.cooldown_us = 5000;
  options.supervisor.enabled = true;
  options.supervisor.poll_interval_us = 1000;
  options.supervisor.unhealthy_polls = 1;
  options.supervisor.max_restarts = 3;
  auto fleet = eos::serve::Fleet::Create(FactoryNet, path_w1, options);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet create failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }

  // Closed-loop clients: retry transient refusals forever (the drill's
  // claim is that a patient client NEVER terminally fails), verify every
  // answer bitwise against the offline reference of its stamped version,
  // and log (key, version) evidence.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> terminal_failures{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> unknown_version{0};
  VersionLog log;
  const uint64_t num_keys = 256;
  std::vector<std::thread> client_threads;
  for (int64_t c = 0; c < *clients; ++c) {
    client_threads.emplace_back([&, c] {
      uint64_t n = static_cast<uint64_t>(c);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t key = n % num_keys;
        size_t image_index = static_cast<size_t>(n % pool.size());
        eos::Result<eos::serve::Prediction> served =
            eos::serve::RetryTransient([&] {
              return (*fleet)->Predict(key, pool[image_index].Clone());
            });
        if (!served.ok()) {
          if (served.status().code() == eos::StatusCode::kFailedPrecondition) {
            break;  // drained
          }
          terminal_failures.fetch_add(1);
          std::fprintf(stderr, "terminal failure: %s\n",
                       served.status().ToString().c_str());
          continue;
        }
        auto it = expected.find(served->version);
        if (it == expected.end()) {
          unknown_version.fetch_add(1);
        } else {
          const eos::serve::Prediction& want = (*it->second)[image_index];
          if (served->label != want.label ||
              served->confidence != want.confidence) {
            mismatches.fetch_add(1);
          }
        }
        log.Record(key, served->version);
        completed.fetch_add(1);
        n += static_cast<uint64_t>(*clients);
      }
    });
  }

  // --- Phase 1: steady load until the kill point (~15% of target) -------
  while (completed.load() < *target * 15 / 100) std::this_thread::yield();

  // --- Phase 2: kill. Poison exactly one replica session; the supervisor
  // must replace it. Recovery time = poison armed -> splice witnessed.
  std::printf("phase 2: poisoning one replica...\n");
  eos::Stopwatch recovery_watch;
  double recovery_ms = -1.0;
  bool healed = false;
  {
    auto poison = ScopedFault::Failure(eos::serve::kReplicaPoisonFault, 1);
    healed = (*fleet)->supervisor()->WaitFor(
        [](const eos::serve::SupervisorSnapshot& s) {
          return s.replicas_replaced >= 1;
        },
        /*timeout_us=*/30000000);
    if (healed) recovery_ms = recovery_watch.Seconds() * 1000.0;
  }
  std::printf("  healed=%d recovery_ms=%.2f\n", healed ? 1 : 0, recovery_ms);

  // --- Phase 3: stall burst. Slow workers are not dead workers: traffic
  // keeps completing, nothing trips terminally.
  std::printf("phase 3: worker stall burst...\n");
  {
    auto stall =
        ScopedFault::Stall(eos::serve::kWorkerStallFault, 2000, /*count=*/4);
    eos::Stopwatch deadline;
    while (stall.fire_count() < 4 && deadline.Seconds() < 10.0) {
      std::this_thread::yield();
    }
  }
  int64_t stall_fires =
      FaultInjector::Global().total_fires(eos::serve::kWorkerStallFault);
  std::printf("  stall fires=%lld\n", static_cast<long long>(stall_fires));

  // --- Phase 4: bad deploy A — diverging weights. The probe must abort it
  // before a single key is served by version 2.
  std::printf("phase 4: diverging canary (must abort pre-traffic)...\n");
  eos::Stopwatch probe_watch;
  eos::serve::CanaryOptions bad_canary;
  bad_canary.keyspace_fraction = 0.5;
  bad_canary.min_requests_per_window = 8;
  bad_canary.evaluation_windows = 1;
  bad_canary.window_timeout_us = 15000000;
  bad_canary.max_divergence = 0.0;
  bad_canary.reference_batch = reference_batch;
  auto probe_report = (*fleet)->CanaryDeploy(2, path_w2, bad_canary);
  double probe_abort_ms = probe_watch.Seconds() * 1000.0;
  if (!probe_report.ok()) {
    std::fprintf(stderr, "canary 2 failed to start: %s\n",
                 probe_report.status().ToString().c_str());
    return 1;
  }
  std::printf("  outcome=%s divergence=%.4f (%.2fms): %s\n",
              probe_report->outcome == eos::serve::CanaryOutcome::kAborted
                  ? "aborted"
                  : "PROMOTED?!",
              probe_report->divergence, probe_abort_ms,
              probe_report->reason.c_str());

  // --- Phase 5: bad deploy B — healthy weights, tripped guardrail. Serves
  // its slice for one window, then must auto-abort.
  std::printf("phase 5: guardrail-tripped canary (must abort)...\n");
  eos::Stopwatch trip_watch;
  double trip_abort_ms = -1.0;
  eos::serve::CanaryOptions tripped_canary;
  tripped_canary.keyspace_fraction = 0.5;
  tripped_canary.min_requests_per_window = 16;
  tripped_canary.evaluation_windows = 3;
  tripped_canary.window_timeout_us = 15000000;
  eos::Result<eos::serve::CanaryReport> trip_report =
      eos::Status::FailedPrecondition("not run");
  {
    auto trip = ScopedFault::Failure(eos::serve::kCanaryGuardrailTrip, 1);
    trip_report = (*fleet)->CanaryDeploy(3, path_w1, tripped_canary);
    trip_abort_ms = trip_watch.Seconds() * 1000.0;
  }
  if (!trip_report.ok()) {
    std::fprintf(stderr, "canary 3 failed to start: %s\n",
                 trip_report.status().ToString().c_str());
    return 1;
  }
  std::printf("  outcome=%s (%.2fms): %s\n",
              trip_report->outcome == eos::serve::CanaryOutcome::kAborted
                  ? "aborted"
                  : "PROMOTED?!",
              trip_abort_ms, trip_report->reason.c_str());

  // --- Phase 6: good deploy — healthy canary promotes to a full roll.
  std::printf("phase 6: healthy canary (must promote)...\n");
  eos::Stopwatch promote_watch;
  eos::serve::CanaryOptions good_canary;
  good_canary.keyspace_fraction = 0.5;
  good_canary.min_requests_per_window = 16;
  good_canary.evaluation_windows = 2;
  good_canary.window_timeout_us = 15000000;
  auto promote_report = (*fleet)->CanaryDeploy(4, path_w2, good_canary);
  double promote_ms = promote_watch.Seconds() * 1000.0;
  if (!promote_report.ok()) {
    std::fprintf(stderr, "canary 4 failed to start: %s\n",
                 promote_report.status().ToString().c_str());
    return 1;
  }
  std::printf("  outcome=%s (%.2fms): %s\n",
              promote_report->outcome == eos::serve::CanaryOutcome::kPromoted
                  ? "promoted"
                  : "ABORTED?!",
              promote_ms, promote_report->reason.c_str());

  // Short tail of post-promotion traffic so version 4 is provably serving
  // the whole keyspace, then drain.
  int64_t tail_until = completed.load() + *clients;
  eos::Stopwatch tail_watch;
  while (completed.load() < tail_until && tail_watch.Seconds() < 10.0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : client_threads) t.join();
  (*fleet)->Shutdown();
  eos::serve::FleetSnapshot stats = (*fleet)->Stats();

  // --- The self-check: every claim in the drill's contract. -------------
  CheckFailures check;
  check.Expect(terminal_failures.load() == 0,
               "a closed-loop client failed terminally");
  check.Expect(mismatches.load() == 0,
               "a served prediction diverged bitwise from its version's "
               "offline reference");
  check.Expect(unknown_version.load() == 0,
               "a request was served by a version that must never serve "
               "(the divergence-aborted canary, or garbage)");
  check.Expect(completed.load() >= *target,
               "the drill finished under its minimum load");
  check.Expect(healed, "supervisor never replaced the poisoned replica");
  check.Expect(stats.supervisor.replicas_replaced >= 1 &&
                   stats.totals.replicas_replaced >= 1,
               "replica replacement not witnessed in fleet stats");
  check.Expect(
      FaultInjector::Global().total_fires(eos::serve::kReplicaPoisonFault) ==
          1,
      "poison fault did not fire exactly once");
  check.Expect(stall_fires >= 1, "worker stall burst never fired");
  check.Expect(
      FaultInjector::Global().total_fires(
          eos::serve::kCanaryGuardrailTrip) == 1,
      "guardrail-trip fault did not fire exactly once");
  check.Expect(probe_report->outcome == eos::serve::CanaryOutcome::kAborted &&
                   probe_report->divergence > 0.0 &&
                   probe_report->windows.empty(),
               "diverging canary was not aborted by the pre-traffic probe");
  check.Expect(trip_report->outcome == eos::serve::CanaryOutcome::kAborted,
               "guardrail-tripped canary was not aborted");
  check.Expect(
      promote_report->outcome == eos::serve::CanaryOutcome::kPromoted,
      "healthy canary did not promote");
  check.Expect(stats.active_version == 4,
               "fleet did not end on the promoted version");
  for (int s = 0; s < options.num_shards; ++s) {
    check.Expect((*fleet)->shard(s).active_version() == 4,
                 "a shard was left behind by the promotion roll");
  }
  check.Expect(stats.totals.dropped_on_drain == 0,
               "requests were dropped on drain");

  // The un-mix evidence: version 3 (the guardrail-aborted canary) may only
  // ever have served keys inside its deterministic slice; version 2 must
  // never appear at all (also covered by unknown_version above).
  uint64_t cutoff =
      eos::serve::CanaryCutoff(tripped_canary.keyspace_fraction);
  int64_t canary3_outside_slice = 0;
  int64_t version2_sightings = 0;
  for (const auto& [key, versions] : log.Snapshot()) {
    if (versions.count(2) != 0) ++version2_sightings;
    if (versions.count(3) != 0 && !eos::serve::IsCanaryKey(key, cutoff)) {
      ++canary3_outside_slice;
    }
  }
  check.Expect(version2_sightings == 0,
               "the divergence-aborted version served a key");
  check.Expect(canary3_outside_slice == 0,
               "the guardrail-aborted canary served a non-canary key");

  std::FILE* f = std::fopen(out->c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out->c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\"bench\": \"fleet_chaos\", \"clients\": %lld, "
      "\"completed\": %lld, \"terminal_failures\": %lld, "
      "\"mismatches\": %lld, \"recovery_ms\": %.2f, "
      "\"probe_abort_ms\": %.2f, \"trip_abort_ms\": %.2f, "
      "\"promote_ms\": %.2f, \"offline_divergence\": %.4f, "
      "\"replicas_replaced\": %lld, \"dropped_on_drain\": %lld, "
      "\"final_version\": %lld, \"self_check_failures\": %d}\n",
      static_cast<long long>(*clients),
      static_cast<long long>(completed.load()),
      static_cast<long long>(terminal_failures.load()),
      static_cast<long long>(mismatches.load()), recovery_ms, probe_abort_ms,
      trip_abort_ms, promote_ms, offline_divergence,
      static_cast<long long>(stats.totals.replicas_replaced),
      static_cast<long long>(stats.totals.dropped_on_drain),
      static_cast<long long>(stats.active_version), check.count);
  std::fclose(f);
  std::printf("\nwrote %s\n", out->c_str());

  std::remove(path_w1.c_str());
  std::remove(path_w2.c_str());
  if (check.count != 0) {
    std::fprintf(stderr, "FAIL: %d self-checks failed\n", check.count);
    return 1;
  }
  std::printf("PASS: %lld requests, 0 failed, recovery %.1fms, "
              "abort %.1fms, promote %.1fms\n",
              static_cast<long long>(completed.load()), recovery_ms,
              trip_abort_ms, promote_ms);
  return 0;
}
