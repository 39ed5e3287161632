// serve_open_loop: Poisson arrivals at fixed absolute rates into
// serve::Fleet::Submit, serving the paper_pipeline architecture on a 1-shard
// fleet with 2 workers, 2 replicas and batch cap 16 (the serve_main
// defaults). One generator thread sends on schedule whether or not earlier
// requests finished (open loop); one collector thread polls the outstanding
// futures, so a slow request never delays the timing of those behind it.
// Each latency runs from the request's scheduled send time to the moment
// the collector sees its result.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "perfbench.h"
#include "serve/fleet.h"
#include "tensor/tensor_ops.h"

namespace eos::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Fleet shape: the serve_main defaults.
constexpr int kWorkers = 2;
constexpr int kReplicas = 2;
constexpr int64_t kMaxBatch = 16;
constexpr int64_t kQueueDelayUs = 1000;
constexpr int64_t kQueueDepth = 256;

/// Offered rates, fixed once on a 4-core host (see README.md): at kLowRps
/// most batches hold one or two requests; at kHighRps micro-batching has
/// engaged (mean batch ~4), at half the knee rate the host showed in its
/// slow periods (~8k rps; ~16k in fast ones).
constexpr double kLowRps = 1000;
constexpr double kHighRps = 4000;
/// serve_max_rps: the highest rung whose p99 meets kP99LimitUs without a
/// growing backlog. Climbing stops at the first rung that misses; the
/// ladder is climbed kLadderClimbs times and the median top rung reported.
constexpr double kLadderRps[] = {8000,  10000, 12000, 14000, 16000, 18000,
                                 20000, 22000, 24000, 26000, 28000, 32000};
constexpr double kP99LimitUs = 10000;
constexpr double kRungSeconds = 0.2;
constexpr int kLadderClimbs = 3;
/// Minimum requests per measured phase, so that p99 has >= 10 samples
/// beyond it.
constexpr int64_t kMinRequests = 1000;
constexpr int kSetupReps = 60;
constexpr int64_t kWarmupRequests = 64;
/// The served model: trained once per run from a fixed seed, so every
/// --seed serves the same weights; --seed draws the request images and
/// the arrival schedule.
constexpr uint64_t kModelSeed = 1;
constexpr int64_t kModelEpochs = 10;
/// Request pool: the test split of --seed's data at this many per class.
constexpr int64_t kPoolPerClass = 200;

struct Bench {
  ExperimentConfig config;
  std::string checkpoint;
  std::vector<Tensor> images;      // request pool, [C, H, W] each
  Tensor batch_images;             // the same images as [N, C, H, W]
  std::vector<int64_t> reference;  // offline core::Predict labels
  std::vector<int64_t> truth;      // ground-truth labels
};

serve::NetFactory Factory(const ExperimentConfig& config) {
  return [config] {
    Rng rng(config.seed, /*stream=*/101);
    return BuildNetwork(config, rng);
  };
}

/// Trains the paper_pipeline architecture (shortened), checkpoints it, and
/// computes the offline reference labels of the request pool (the test
/// split of --seed's data) from a network loaded back from the checkpoint.
bool PrepareBench(uint64_t seed, Bench* bench) {
  bench->config = PipelineConfig(kModelSeed);
  bench->config.phase1.epochs = kModelEpochs;
  ExperimentPipeline pipeline(bench->config);
  pipeline.Prepare();
  pipeline.TrainPhase1();
  bench->checkpoint = StrFormat("%s/serve-seed%llu.ckpt", ScratchDir().c_str(),
                                static_cast<unsigned long long>(seed));
  Status saved =
      SaveCheckpoint(TrainCheckpoint{}, pipeline.net(), bench->checkpoint);
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
    return false;
  }
  nn::ImageClassifier net = Factory(bench->config)();
  Status loaded = LoadCheckpointWeights(net, bench->checkpoint);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.ToString().c_str());
    return false;
  }
  // A pool of 2,000 test images, so that served accuracy does not swing
  // with a small draw.
  ExperimentConfig pool = PipelineConfig(seed);
  pool.test_per_class = kPoolPerClass;
  ExperimentPipeline requests(pool);
  requests.Prepare();
  const Dataset& test = requests.test();
  bench->batch_images = test.images;
  bench->reference = Predict(net, test.images);
  bench->truth = test.labels;
  for (int64_t i = 0; i < test.size(); ++i) {
    bench->images.push_back(GatherImages(test.images, {i}).Reshape(
        {test.images.size(1), test.images.size(2), test.images.size(3)}));
  }
  return true;
}

serve::FleetOptions Options() {
  serve::FleetOptions options;
  options.num_shards = 1;
  options.replicas_per_shard = kReplicas;
  options.server.num_workers = kWorkers;
  options.server.batcher.max_batch_size = kMaxBatch;
  options.server.batcher.max_queue_delay_us = kQueueDelayUs;
  options.server.batcher.max_queue_depth = kQueueDepth;
  return options;
}

/// Fleet::Create plus warm-up requests, all answered. The warm-up goes in
/// bursts of one full batch, so it never queues more than kMaxBatch
/// requests and cannot set the fleet's max_queue_depth above that.
std::unique_ptr<serve::Fleet> StartFleet(const Bench& bench) {
  auto fleet = serve::Fleet::Create(Factory(bench.config), bench.checkpoint,
                                    Options());
  if (!fleet.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", fleet.status().ToString().c_str());
    return nullptr;
  }
  for (int64_t first = 0; first < kWarmupRequests; first += kMaxBatch) {
    std::vector<std::future<Result<serve::Prediction>>> pending;
    for (int64_t i = first; i < first + kMaxBatch; ++i) {
      auto f = (*fleet)->Submit(static_cast<uint64_t>(i),
                                bench.images[static_cast<size_t>(i) %
                                             bench.images.size()]);
      if (f.ok()) pending.push_back(std::move(f).value());
    }
    for (auto& f : pending) (void)f.get();
  }
  return std::move(fleet).value();
}

/// Outcome of one open-loop phase at a fixed rate.
struct Phase {
  double rate = 0;
  /// Per request, scheduled send to observed completion; +inf when the
  /// request was refused or failed (it misses every latency limit).
  std::vector<double> latency_us;
  std::vector<double> late_us;    // actual send - scheduled send
  std::vector<double> submit_us;  // time inside Fleet::Submit
  int64_t refused = 0;
  int64_t errors = 0;
  int64_t mismatched = 0;  // served label != offline core::Predict
  int64_t correct = 0;     // served label == ground truth
  /// Requests still unanswered when the last one was sent.
  int64_t backlog_at_end = 0;

  double P(double p) const { return Percentile(latency_us, p); }
  bool MeetsLimit() const {
    double allowed_backlog = std::max(64.0, 2.0 * rate * kP99LimitUs * 1e-6);
    return P(99) <= kP99LimitUs &&
           static_cast<double>(backlog_at_end) <= allowed_backlog;
  }
};

/// Waits for `due` by yielding instead of sleeping. On a VM a halted vCPU
/// can take milliseconds to wake, which would show up as generator
/// lateness and as late completion timestamps; a yielding thread keeps its
/// vCPU awake while still giving way to every runnable server thread.
void WaitUntil(Clock::time_point due) {
  while (Clock::now() < due) std::this_thread::yield();
}

struct InFlight {
  int64_t id = 0;
  Clock::time_point due;
  std::future<Result<serve::Prediction>> future;
};

/// Sends `requests` Poisson arrivals at `rate` (schedule drawn from stream
/// `index` of `seed`), with request ids from `first_id` on.
Phase RunPhase(serve::Fleet& fleet, const Bench& bench, double rate,
               int64_t requests, uint64_t seed, uint64_t index,
               int64_t first_id, Tracer* tracer) {
  Phase phase;
  phase.rate = rate;
  phase.latency_us.reserve(static_cast<size_t>(requests));
  std::mutex mu;
  std::deque<InFlight> handoff;  // guarded by mu
  bool done_sending = false;     // guarded by mu
  std::atomic<int64_t> completed{0};

  std::thread generator([&] {
    Rng rng(seed, /*stream=*/61 + index);
    const size_t pool = bench.images.size();
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    double offset_s = 0;
    for (int64_t i = 0; i < requests; ++i) {
      offset_s += -std::log(1.0 - rng.UniformDouble()) / rate;
      Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s));
      WaitUntil(due);
      int64_t id = first_id + i;
      Clock::time_point sent = Clock::now();
      auto submitted = fleet.Submit(static_cast<uint64_t>(id),
                                    bench.images[static_cast<size_t>(id) %
                                                 pool]);
      Clock::time_point returned = Clock::now();
      phase.late_us.push_back(
          std::chrono::duration<double, std::micro>(sent - due).count());
      phase.submit_us.push_back(
          std::chrono::duration<double, std::micro>(returned - sent).count());
      if (tracer != nullptr) {
        tracer->AddComplete("serve.submit", sent, returned, -1, id);
      }
      if (!submitted.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++phase.refused;
        phase.latency_us.push_back(std::numeric_limits<double>::infinity());
        completed.fetch_add(1);
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back({id, due, std::move(submitted).value()});
    }
    std::lock_guard<std::mutex> lock(mu);
    phase.backlog_at_end = requests - completed.load();
    done_sending = true;
  });

  std::thread collector([&] {
    std::vector<InFlight> outstanding;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        while (!handoff.empty()) {
          outstanding.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (outstanding.empty() && done_sending) return;
      }
      // Sweep every outstanding future without blocking; yield between
      // sweeps (see WaitUntil for why the client never sleeps).
      std::this_thread::yield();
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        InFlight& r = outstanding[i];
        if (r.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (kept != i) outstanding[kept] = std::move(r);
          ++kept;
          continue;
        }
        Clock::time_point ended = Clock::now();
        Result<serve::Prediction> result = r.future.get();
        size_t image = static_cast<size_t>(r.id) % bench.images.size();
        std::lock_guard<std::mutex> lock(mu);
        if (!result.ok()) {
          ++phase.errors;
          phase.latency_us.push_back(std::numeric_limits<double>::infinity());
        } else {
          phase.latency_us.push_back(
              std::chrono::duration<double, std::micro>(ended - r.due)
                  .count());
          if (result->label != bench.reference[image]) ++phase.mismatched;
          if (result->label == bench.truth[image]) ++phase.correct;
        }
        completed.fetch_add(1);
        if (tracer != nullptr) {
          tracer->AddAsync("serve.request", r.due, ended, r.id);
        }
      }
      outstanding.resize(kept);
    }
  });
  generator.join();
  collector.join();
  return phase;
}

int64_t RequestsFor(double rate, double seconds) {
  return std::max<int64_t>(kMinRequests,
                           static_cast<int64_t>(std::llround(rate * seconds)));
}

/// One stderr line per phase, for reading a run by eye.
void LogPhase(const std::string& tag, const Phase& phase) {
  std::fprintf(stderr,
               "perfbench: %s %.0f rps: n %zu p50 %.0f us p99 %.0f us "
               "refused %lld backlog %lld late-p99 %.0f us\n",
               tag.c_str(), phase.rate, phase.latency_us.size(), phase.P(50),
               phase.P(99), static_cast<long long>(phase.refused),
               static_cast<long long>(phase.backlog_at_end),
               Percentile(phase.late_us, 99));
}

/// Output checks shared by every phase: every request was answered, and
/// every served label equals the offline prediction.
void CheckPhase(const Phase& phase, const std::string& tag,
                RunResult& result) {
  LogPhase(tag, phase);
  result.attempted += static_cast<int64_t>(phase.latency_us.size());
  result.failed += phase.refused + phase.errors;
  if (phase.refused + phase.errors > 0) {
    std::fprintf(stderr, "perfbench: %s: %lld refused, %lld failed\n",
                 tag.c_str(), static_cast<long long>(phase.refused),
                 static_cast<long long>(phase.errors));
  }
  result.Check(phase.mismatched == 0,
               StrFormat("%s: %lld served labels differ from core::Predict",
                         tag.c_str(),
                         static_cast<long long>(phase.mismatched)));
}

/// Mean PredictBatch time on an idle session over `batch` pool images.
double SessionBatchUs(serve::ModelSession& session, const Bench& bench,
                      int64_t batch, Tracer* tracer) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < batch; ++i) idx.push_back(i);
  Tensor images = GatherImages(bench.batch_images, idx);
  session.PredictBatch(images);  // warm the workspace
  constexpr int kReps = 200;
  Stopwatch watch;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan span(tracer, "serve.session_batch");
    session.PredictBatch(images);
  }
  return watch.Seconds() * 1e6 / kReps;
}

RunResult Untraced(const Args& args) {
  RunResult result;
  Bench bench;
  if (!PrepareBench(args.seed, &bench)) {
    result.Check(false, "serving model preparation failed");
    return result;
  }
  // peak_rss_mb covers serving only: training the served model above is
  // the benchmark's own preparation.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS; "
                         "peak_rss_mb includes model training\n");
  }
  std::vector<double> setup_s;
  std::unique_ptr<serve::Fleet> fleet;
  for (int i = 0; i < kSetupReps; ++i) {
    fleet.reset();
    Stopwatch watch;
    fleet = StartFleet(bench);
    setup_s.push_back(watch.Seconds());
    if (fleet == nullptr) {
      result.Check(false, "Fleet::Create failed");
      return result;
    }
  }

  // Request ids run on across phases; they pick the pool image and key.
  int64_t next_id = 0;
  uint64_t next_phase = 0;
  auto run = [&](double rate, int64_t requests) {
    Phase phase = RunPhase(*fleet, bench, rate, requests, args.seed,
                           next_phase++, next_id, nullptr);
    next_id += requests;
    return phase;
  };
  Phase low = run(kLowRps, RequestsFor(kLowRps, 0.2 * args.seconds));
  CheckPhase(low, "low rate", result);
  Phase high = run(kHighRps, RequestsFor(kHighRps, 0.4 * args.seconds));
  CheckPhase(high, "high rate", result);

  // The ladder probes past capacity on purpose, so its refusals are not
  // workload failures; requests that fail otherwise are, and its served
  // labels are still checked.
  std::vector<double> top_rungs;
  int64_t ladder_refused = 0;
  int64_t ladder_errors = 0;
  for (int climb = 0; climb < kLadderClimbs; ++climb) {
    double top = 0;
    for (double rate : kLadderRps) {
      Phase rung = run(rate, RequestsFor(rate, kRungSeconds));
      LogPhase("ladder", rung);
      ladder_refused += rung.refused;
      ladder_errors += rung.errors;
      result.failed += rung.errors;
      result.Check(rung.mismatched == 0,
                   StrFormat("ladder %.0f rps: %lld served labels differ",
                             rate, static_cast<long long>(rung.mismatched)));
      if (!rung.MeetsLimit()) break;
      top = rate;
    }
    top_rungs.push_back(top);
  }
  double max_rps = Median(top_rungs);
  fleet->Shutdown();
  std::remove(bench.checkpoint.c_str());

  double accuracy = static_cast<double>(high.correct) /
                    static_cast<double>(high.latency_us.size());
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  // The gated latency is the median: on a shared VM the p99 at this rate
  // swung 4-29 ms between runs (host hiccups), the median 1.6-2.1 ms.
  result.Add("time_ms", high.P(50) * 1e-3, "ms");
  result.Add("quality", accuracy, "frac");
  result.Print("serve_p50_us", high.P(50), "us");
  result.Print("serve_p99_us", high.P(99), "us");
  result.Print("serve_samples", static_cast<double>(high.latency_us.size()),
              "count");
  result.Print("serve_rate_rps", kHighRps, "1/s");
  result.Print("serve_low_p50_us", low.P(50), "us");
  result.Print("serve_low_p99_us", low.P(99), "us");
  result.Print("serve_low_samples", static_cast<double>(low.latency_us.size()),
              "count");
  result.Print("serve_low_rate_rps", kLowRps, "1/s");
  result.Print("serve_max_rps", max_rps, "1/s");
  result.Print("serve_p99_limit_us", kP99LimitUs, "us");
  result.Print("ladder_refused", static_cast<double>(ladder_refused), "count");
  result.Print("ladder_errors", static_cast<double>(ladder_errors), "count");
  result.Print("served_accuracy", accuracy, "frac");
  result.Print("gen_late_p99_us", Percentile(high.late_us, 99), "us");
  return result;
}

RunResult Traced(const Args& args, Tracer* tracer) {
  RunResult result;
  Bench bench;
  if (!PrepareBench(args.seed, &bench)) {
    result.Check(false, "serving model preparation failed");
    return result;
  }
  std::unique_ptr<serve::Fleet> fleet = StartFleet(bench);
  if (fleet == nullptr) {
    result.Check(false, "Fleet::Create failed");
    return result;
  }
  int64_t requests = RequestsFor(kHighRps, 0.4 * args.seconds);
  Phase untraced = RunPhase(*fleet, bench, kHighRps, requests, args.seed,
                            /*index=*/0, /*first_id=*/0, nullptr);
  CheckPhase(untraced, "untraced", result);
  // Fleet::Stats() is cumulative, so the traced phase's counters are the
  // differences across it. max_queue_depth is a high-water mark and cannot
  // be split: it covers the untraced phase (same rate) and the warm-up.
  serve::FleetSnapshot stats_before = fleet->Stats();
  const serve::StatsSnapshot& before = stats_before.per_shard[0];
  Phase traced = RunPhase(*fleet, bench, kHighRps, requests, args.seed,
                          /*index=*/1, /*first_id=*/requests, tracer);
  CheckPhase(traced, "traced", result);
  serve::FleetSnapshot stats = fleet->Stats();
  fleet->Shutdown();
  const serve::StatsSnapshot& after = stats.per_shard[0];
  int64_t batches = after.batches - before.batches;
  double mean_batch_size =
      batches > 0 ? static_cast<double>(after.completed - before.completed) /
                        static_cast<double>(batches)
                  : 0.0;

  // Batch compute on an idle session, at batch 1 and at the mean batch the
  // fleet formed, then the same mean batch on one runtime lane.
  nn::ImageClassifier net = Factory(bench.config)();
  auto session = serve::ModelSession::LoadFromCheckpoint(std::move(net),
                                                         bench.checkpoint);
  std::remove(bench.checkpoint.c_str());
  if (!session.ok()) {
    result.Check(false, session.status().ToString());
    return result;
  }
  int64_t mean_batch =
      std::clamp<int64_t>(std::llround(mean_batch_size), 1, kMaxBatch);
  double batch1_us = SessionBatchUs(**session, bench, 1, tracer);
  double batch_us = SessionBatchUs(**session, bench, mean_batch, tracer);
  double serial_us = AtOneLane(
      [&] { return SessionBatchUs(**session, bench, mean_batch, nullptr); });

  double mean_latency = 0;
  for (double l : traced.latency_us) mean_latency += l;
  mean_latency /= static_cast<double>(traced.latency_us.size());
  double submit_us = 0;
  for (double s : traced.submit_us) submit_us += s;
  submit_us /= static_cast<double>(traced.submit_us.size());
  double late_us = 0;
  for (double l : traced.late_us) late_us += l;
  late_us /= static_cast<double>(traced.late_us.size());

  result.Add("serve.submit_us", submit_us, "us");
  result.Add("serve.session_batch1_us", batch1_us, "us");
  result.Add("serve.session_batch_us", batch_us, "us");
  result.Add("serve.queue_wait_us", mean_latency - batch_us, "us");
  result.Add("serve.mean_batch_size", mean_batch_size, "count");
  result.Add("serve.batches", static_cast<double>(batches), "count");
  result.Add("serve.max_queue_depth",
             static_cast<double>(after.max_queue_depth), "count");
  result.Add("serve.rejected",
             static_cast<double>(after.rejected - before.rejected +
                                 stats.admission_rejected -
                                 stats_before.admission_rejected),
             "count");
  result.Add("serve.deadline_expired",
             static_cast<double>(after.deadline_expired -
                                 before.deadline_expired),
             "count");
  result.Add("serve.gen_late_us", late_us, "us");
  result.Add("runtime.speedup", serial_us / batch_us, "x");
  result.Add("trace.overhead_frac",
             (traced.P(50) - untraced.P(50)) / untraced.P(50), "frac");
  result.Print("serve_p50_us", traced.P(50), "us");
  result.Print("untraced_serve_p50_us", untraced.P(50), "us");
  result.Print("serve_mean_latency_us", mean_latency, "us");
  result.Print("session_batch_size", static_cast<double>(mean_batch), "count");
  return result;
}

}  // namespace

RunResult RunServeOpenLoop(const Args& args, Tracer* tracer) {
  return tracer != nullptr ? Traced(args, tracer) : Untraced(args);
}

}  // namespace eos::perfbench
