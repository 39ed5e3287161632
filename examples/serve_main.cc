// Serving quickstart: the deployment story for the three-phase framework.
// Trains a phase-1 model at laptop scale (or reuses an existing snapshot),
// loads it into serve::ModelSession replicas, and drives a micro-batching
// serve::Server with closed-loop synthetic clients. On exit it verifies
// every served label against the offline core::Predict reference — the
// serving determinism guarantee — and prints the latency/throughput stats.
//
// Run: ./build/examples/serve_main
//      ./build/examples/serve_main --clients=8 --requests=400 --workers=4

#include <cstdio>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "nn/serialize.h"
#include "serve/server.h"
#include "tensor/tensor_ops.h"

namespace {

eos::Tensor SampleImage(const eos::Tensor& images, int64_t i) {
  return eos::GatherImages(images, {i})
      .Reshape({images.size(1), images.size(2), images.size(3)});
}

}  // namespace

int main(int argc, char** argv) {
  eos::FlagSet flags;
  std::string* weights =
      flags.AddString("weights", "/tmp/eos_serve_model", "snapshot prefix");
  bool* retrain = flags.AddBool(
      "retrain", false, "retrain phase 1 even if the snapshot exists");
  int64_t* epochs = flags.AddInt("epochs", 6, "phase-1 epochs");
  int64_t* clients = flags.AddInt("clients", 4, "closed-loop client threads");
  int64_t* requests = flags.AddInt("requests", 200, "total requests to serve");
  int64_t* workers = flags.AddInt("workers", 2, "server worker loops");
  int64_t* replicas = flags.AddInt("replicas", 2, "model session replicas");
  int64_t* max_batch = flags.AddInt("max_batch", 16, "micro-batch size cap");
  int64_t* delay_us =
      flags.AddInt("delay_us", 1000, "max queue delay per request (us)");
  int64_t* depth = flags.AddInt("depth", 256, "queue depth (backpressure)");
  eos::Status status = flags.Parse(argc, argv);
  if (!status.ok() || flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return status.ok() ? 0 : 2;
  }

  eos::ExperimentConfig config;
  config.dataset = eos::DatasetKind::kCifar10Like;
  config.synth.image_size = 16;
  config.max_per_class = 100;
  config.imbalance_ratio = 50.0;
  config.test_per_class = 40;
  config.blocks_per_stage = 1;
  config.base_width = 8;
  config.phase1.epochs = *epochs;
  config.phase1.lr = 0.05;
  config.seed = 5;

  eos::ExperimentPipeline pipeline(config);
  pipeline.Prepare();

  // --- Obtain the snapshot: reuse if present, else train phase 1 once. ---
  {
    eos::Rng probe_rng(1);
    eos::nn::ImageClassifier probe = eos::BuildNetwork(config, probe_rng);
    if (*retrain || !eos::nn::LoadClassifier(probe, *weights).ok()) {
      std::printf("training phase-1 model (%lld epochs)...\n",
                  static_cast<long long>(*epochs));
      pipeline.TrainPhase1();
      eos::Status save_status =
          eos::nn::SaveClassifier(pipeline.net(), *weights);
      if (!save_status.ok()) {
        std::fprintf(stderr, "save failed: %s\n",
                     save_status.ToString().c_str());
        return 1;
      }
      std::printf("saved snapshot to %s.{extractor,head}\n",
                  weights->c_str());
    } else {
      std::printf("reusing snapshot %s.{extractor,head}\n", weights->c_str());
    }
  }

  // --- Offline reference: the served labels must match these bitwise. ---
  const eos::Tensor& images = pipeline.test().images;
  eos::Rng ref_rng(2);
  eos::nn::ImageClassifier reference_net = eos::BuildNetwork(config, ref_rng);
  if (eos::Status s = eos::nn::LoadClassifier(reference_net, *weights);
      !s.ok()) {
    std::fprintf(stderr, "reference load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<int64_t> reference = eos::Predict(reference_net, images);

  // --- Load session replicas and start the server. ---
  std::vector<std::shared_ptr<eos::serve::ModelSession>> sessions;
  for (int64_t r = 0; r < *replicas; ++r) {
    eos::Rng rng(100 + static_cast<uint64_t>(r));
    auto session = eos::serve::ModelSession::Load(
        eos::BuildNetwork(config, rng), *weights);
    if (!session.ok()) {
      std::fprintf(stderr, "session load failed: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    sessions.push_back(std::move(session).value());
  }
  eos::serve::ServerOptions options;
  options.num_workers = static_cast<int>(*workers);
  options.batcher.max_batch_size = *max_batch;
  options.batcher.max_queue_delay_us = *delay_us;
  options.batcher.max_queue_depth = *depth;
  eos::serve::Server server(sessions, options);
  std::printf(
      "serving %s (%lld classes) with %lld workers / %lld replicas, "
      "max_batch %lld, delay %lld us\n",
      sessions[0]->arch().c_str(),
      static_cast<long long>(sessions[0]->num_classes()),
      static_cast<long long>(*workers), static_cast<long long>(*replicas),
      static_cast<long long>(*max_batch), static_cast<long long>(*delay_us));

  // --- Closed-loop synthetic load: every client waits for its answer
  // before sending the next request, retrying on backpressure. ---
  int64_t total = *requests;
  int64_t n_images = images.size(0);
  std::vector<int64_t> served(static_cast<size_t>(total), -1);
  std::vector<std::thread> client_threads;
  for (int64_t c = 0; c < *clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (int64_t i = c; i < total; i += *clients) {
        eos::Tensor image = SampleImage(images, i % n_images);
        // With no faults armed and no deadline set, every answer is OK.
        eos::Result<eos::serve::Prediction> r = eos::serve::RetryTransient(
            [&] { return server.Predict(image); });
        if (r.ok()) {
          served[static_cast<size_t>(i)] = r->label;
        } else {
          std::fprintf(stderr, "request %lld failed: %s\n",
                       static_cast<long long>(i),
                       r.status().ToString().c_str());
        }
      }
    });
  }
  for (auto& t : client_threads) t.join();
  server.Shutdown();

  // --- Verify the serving determinism guarantee. ---
  int64_t mismatches = 0;
  for (int64_t i = 0; i < total; ++i) {
    if (served[static_cast<size_t>(i)] !=
        reference[static_cast<size_t>(i % n_images)]) {
      ++mismatches;
    }
  }

  eos::serve::StatsSnapshot stats = server.Stats();
  std::printf("\n%s\n\n", stats.ToJson().c_str());
  std::printf("served %lld requests at %.0f req/s  "
              "(p50 %.0f us, p95 %.0f us, p99 %.0f us, mean batch %.2f, "
              "%lld rejected by backpressure)\n",
              static_cast<long long>(stats.completed), stats.throughput_rps,
              stats.p50_us, stats.p95_us, stats.p99_us, stats.mean_batch_size,
              static_cast<long long>(stats.rejected));
  if (mismatches == 0) {
    std::printf("determinism check: all %lld served labels match offline "
                "core::Predict\n",
                static_cast<long long>(total));
  } else {
    std::fprintf(stderr,
                 "determinism check FAILED: %lld/%lld served labels differ "
                 "from offline core::Predict\n",
                 static_cast<long long>(mismatches),
                 static_cast<long long>(total));
    return 1;
  }
  return 0;
}
