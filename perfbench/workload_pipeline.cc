// paper_pipeline: the paper's three-phase EOS run at the benches' CIFAR10-like
// laptop configuration. Untraced, it times the public pipeline calls
// (TrainPhase1 + RunSampler(EOS)); traced, it replays phase 1 from its own
// loop with the public calls RunTrainEpoch makes, in the same order, so each
// nn module's forward/backward can be timed from outside.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "core/three_phase.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/transforms.h"
#include "losses/loss.h"
#include "ml/knn_index.h"
#include "nn/lr_schedule.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "perfbench.h"
#include "sampling/eos.h"
#include "tensor/matmul.h"
#include "tensor/tensor_ops.h"

namespace eos::perfbench {

ExperimentConfig PipelineConfig(uint64_t seed) {
  // bench::MakeConfig(kCifar10Like) with default flags, pinned here so the
  // workload does not drift when the table/figure harnesses change.
  ExperimentConfig config;
  config.dataset = DatasetKind::kCifar10Like;
  config.synth.image_size = 16;
  config.max_per_class = 150;
  config.imbalance_ratio = 50.0;
  config.test_per_class = 40;
  config.blocks_per_stage = 1;  // ResNet-8
  config.base_width = 8;
  config.phase1.epochs = 30;
  config.phase1.batch_size = 64;
  config.phase1.lr = 0.05;
  config.phase1.augment = true;
  config.phase1.crop_pad = 2;
  config.head.epochs = 10;
  config.seed = seed;
  return config;
}

uint32_t WeightCrc(nn::ImageClassifier& net) {
  std::vector<nn::Parameter*> params;
  net.extractor->CollectParameters(params);
  net.head->CollectParameters(params);
  std::vector<Tensor*> buffers;
  net.extractor->CollectBuffers(buffers);
  net.head->CollectBuffers(buffers);
  uint32_t crc = 0;
  for (nn::Parameter* p : params) {
    crc = Crc32(p->value.data(),
                static_cast<size_t>(p->value.numel()) * sizeof(float), crc);
  }
  for (Tensor* b : buffers) {
    crc = Crc32(b->data(), static_cast<size_t>(b->numel()) * sizeof(float),
                crc);
  }
  return crc;
}

namespace {

constexpr int64_t kEosK = 10;
/// Prepare calls timed before the measured runs (each also times one).
constexpr int kSetupReps = 60;
/// Epochs of the unmeasured warm-up run.
constexpr int64_t kWarmUpEpochs = 10;
constexpr uint64_t kSeedsPerRun = 4;

uint32_t ResultCrc(const EvalOutputs& out) {
  const double m[3] = {out.metrics.bac, out.metrics.gmean, out.metrics.f1};
  uint32_t crc = Crc32(m, sizeof(m));
  return Crc32(out.per_class_recall.data(),
               out.per_class_recall.size() * sizeof(double), crc);
}

/// True when EOS raised every class of `counts` to the majority count.
bool Balanced(const std::vector<int64_t>& counts,
              const ExpansiveOversampler::Stats& stats) {
  int64_t majority = 0;
  for (int64_t c : counts) majority = std::max(majority, c);
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] + stats.expanded[c] + stats.fallback[c] != majority) {
      return false;
    }
  }
  return true;
}

/// Unmeasured warm-up: starts the runtime pool and faults in the code and
/// allocator paths the timed runs use.
void WarmUp(const ExperimentConfig& config) {
  ExperimentConfig warm = config;
  warm.phase1.epochs = kWarmUpEpochs;
  ExperimentPipeline pipeline(warm);
  pipeline.Prepare();
  pipeline.TrainPhase1();
}

/// A convolution's per-image GEMM: weight [out, ckk] times the unfolded
/// input [ckk, plane].
struct ConvGemm {
  int64_t out = 0;
  int64_t ckk = 0;
  int64_t plane = 0;
};

/// Per-image GEMM shapes of every extractor convolution, with the FLOPs of
/// the BasicBlock ones.
struct ConvShapes {
  std::vector<ConvGemm> convs;
  /// FLOPs of one image through every BasicBlock convolution (forward plus
  /// both backward GEMMs), computed from tensor shapes.
  double block_flops_per_image = 0;
};

/// Conv shapes of `extractor`, given the output plane (H * W) of each child
/// on the first batch: every 2-D parameter of an extractor module is a conv
/// weight [out, ckk], and all convs of a child produce its output plane.
ConvShapes ShapesOf(nn::Sequential& extractor,
                    const std::vector<int64_t>& planes) {
  ConvShapes shapes;
  for (int64_t i = 0; i < extractor.size(); ++i) {
    int64_t plane = planes[static_cast<size_t>(i)];
    if (plane == 0) continue;
    nn::Module* child = extractor.child(i);
    std::vector<nn::Parameter*> params;
    child->CollectParameters(params);
    for (nn::Parameter* p : params) {
      if (p->value.dim() != 2) continue;
      ConvGemm g{p->value.size(0), p->value.size(1), plane};
      shapes.convs.push_back(g);
      if (child->name() == "BasicBlock") {
        shapes.block_flops_per_image +=
            3.0 * 2.0 * static_cast<double>(g.out * g.ckk * g.plane);
      }
    }
  }
  return shapes;
}

/// Phase 1 as TrainEndToEnd runs it, epoch for epoch, with the body of
/// RunTrainEpoch spelled out so every call can carry a span. Runs epochs
/// [0, epochs) of a schedule sized for options.epochs. When `shapes` is
/// non-null it receives the convolution shapes, taken after the loop from
/// the planes recorded on the first batch.
void ReplayPhase1(nn::ImageClassifier& net, Loss& loss, const Dataset& train,
                  const TrainerOptions& options, int64_t epochs, Rng& rng,
                  Tracer* tracer, int64_t parent, ConvShapes* shapes) {
  auto* extractor = dynamic_cast<nn::Sequential*>(net.extractor.get());
  EOS_CHECK(extractor != nullptr);
  std::vector<nn::Parameter*> params;
  net.extractor->CollectParameters(params);
  net.head->CollectParameters(params);
  nn::Sgd::Options sgd_options;
  sgd_options.lr = options.lr;
  sgd_options.momentum = options.momentum;
  sgd_options.weight_decay = options.weight_decay;
  sgd_options.nesterov = options.nesterov;
  nn::Sgd optimizer(params, sgd_options);
  nn::MultiStepLr schedule = nn::MultiStepLr::ForRun(options.lr,
                                                     options.epochs);

  std::vector<std::string> fwd_names, bwd_names;
  for (int64_t i = 0; i < extractor->size(); ++i) {
    std::string name = extractor->child(i)->name();
    fwd_names.push_back("nn." + name + ".fwd");
    bwd_names.push_back("nn." + name + ".bwd");
  }
  // Output plane of each child on the first batch (0 when not 4-D).
  std::vector<int64_t> planes(static_cast<size_t>(extractor->size()), 0);
  bool first_batch = true;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    ScopedSpan epoch_span(tracer, "core.epoch", parent);
    loss.OnEpochStart(epoch);
    optimizer.set_lr(schedule.LrAt(epoch));
    auto batches = MakeBatches(train.size(), options.batch_size, &rng);
    for (const auto& batch : batches) {
      ScopedSpan step(tracer, "core.train_step", epoch_span.id());
      Tensor images;
      std::vector<int64_t> targets(batch.size());
      {
        ScopedSpan s(tracer, "data.batch", step.id());
        images = GatherImages(train.images, batch);
        if (options.augment) {
          if (options.crop_pad > 0) RandomCrop(images, options.crop_pad, rng);
          RandomHorizontalFlip(images, rng);
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          targets[i] = train.labels[static_cast<size_t>(batch[i])];
        }
      }
      {
        ScopedSpan s(tracer, "nn.sgd_step", step.id());
        optimizer.ZeroGrad();
      }
      Tensor x = images;
      for (int64_t i = 0; i < extractor->size(); ++i) {
        nn::Module* child = extractor->child(i);
        {
          ScopedSpan s(tracer, fwd_names[static_cast<size_t>(i)], step.id());
          x = child->Forward(x, /*training=*/true);
        }
        if (first_batch && x.dim() == 4) {
          planes[static_cast<size_t>(i)] = x.size(2) * x.size(3);
        }
      }
      Tensor logits;
      {
        ScopedSpan s(tracer, "nn.head.fwd", step.id());
        logits = net.head->Forward(x, /*training=*/true);
      }
      Tensor grad;
      {
        ScopedSpan s(tracer, "losses.compute", step.id());
        loss.Compute(logits, targets, &grad);
      }
      {
        ScopedSpan s(tracer, "nn.head.bwd", step.id());
        grad = net.head->Backward(grad);
      }
      for (int64_t i = extractor->size() - 1; i >= 0; --i) {
        ScopedSpan s(tracer, bwd_names[static_cast<size_t>(i)], step.id());
        grad = extractor->child(i)->Backward(grad);
      }
      {
        ScopedSpan s(tracer, "nn.sgd_step", step.id());
        optimizer.Step();
      }
      first_batch = false;
    }
  }
  if (shapes != nullptr) *shapes = ShapesOf(*extractor, planes);
}

/// Times GemmNN / GemmTN / GemmNT on the per-image GEMM shapes the
/// convolutions produce (forward: NN; backward: NT for dW, TN for dX) and
/// reports each kernel's achieved GFLOP/s (FLOPs = 2mkn from the shapes).
void GemmMicrobench(const std::vector<ConvGemm>& convs, Tracer* tracer,
                    RunResult& result) {
  constexpr double kMinSeconds = 0.2;
  constexpr int kCallsPerShape = 64;
  struct Operands {
    Tensor w, col, dy, out;
  };
  Rng rng(11);
  std::vector<Operands> operands;
  for (const ConvGemm& g : convs) {
    int64_t rows = std::max(g.out, g.ckk);
    int64_t cols = std::max(g.plane, g.ckk);
    operands.push_back({Tensor::Uniform({g.out, g.ckk}, -1, 1, rng),
                        Tensor::Uniform({g.ckk, g.plane}, -1, 1, rng),
                        Tensor::Uniform({g.out, g.plane}, -1, 1, rng),
                        Tensor({rows, cols})});
  }
  for (const std::string kernel : {"nn", "tn", "nt"}) {
    double flops = 0;
    ScopedSpan span(tracer, "tensor.gemm_" + kernel);
    Stopwatch watch;
    while (watch.Seconds() < kMinSeconds) {
      for (size_t i = 0; i < convs.size(); ++i) {
        const ConvGemm& g = convs[i];
        Operands& o = operands[i];
        for (int r = 0; r < kCallsPerShape; ++r) {
          if (kernel == "nn") {
            GemmNN(o.w.data(), o.col.data(), o.out.data(), g.out, g.ckk,
                   g.plane);
          } else if (kernel == "tn") {
            GemmTN(o.w.data(), o.dy.data(), o.out.data(), g.ckk, g.out,
                   g.plane);
          } else {
            GemmNT(o.dy.data(), o.col.data(), o.out.data(), g.out, g.plane,
                   g.ckk);
          }
        }
        flops += kCallsPerShape * 2.0 *
                 static_cast<double>(g.out * g.ckk * g.plane);
      }
    }
    result.Add("tensor.gemm_" + kernel + ".gflops",
               flops / watch.Seconds() * 1e-9, "GFLOP/s");
  }
}

/// Wall time of `epochs` replayed epochs on a fresh network.
double TimeEpochs(const ExperimentPipeline& pipeline,
                  const ExperimentConfig& config, int64_t epochs) {
  Rng rng(config.seed, /*stream=*/17);
  nn::ImageClassifier net = BuildNetwork(config, rng);
  std::unique_ptr<Loss> loss =
      MakeLoss(config.loss, pipeline.train().ClassCounts());
  Stopwatch watch;
  ReplayPhase1(net, *loss, pipeline.train(), config.phase1, epochs, rng,
               nullptr, -1, nullptr);
  return watch.Seconds();
}

RunResult Untraced(const Args& args) {
  RunResult result;
  // A run cycles through kSeedsPerRun pipeline seeds derived from --seed:
  // eos_bac is their mean (one seed's BAC swings with its 420-image draw),
  // and every later run of a seed must reproduce its first run's CRCs.
  std::vector<ExperimentConfig> configs;
  for (uint64_t j = 0; j < kSeedsPerRun; ++j) {
    configs.push_back(PipelineConfig(args.seed * kSeedsPerRun + j));
  }
  WarmUp(configs[0]);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    ExperimentPipeline pipeline(configs[static_cast<size_t>(i) %
                                        configs.size()]);
    Stopwatch watch;
    pipeline.Prepare();
    setup_s.push_back(watch.Seconds());
  }

  std::vector<double> pipeline_s;
  std::vector<double> bac(configs.size());
  std::vector<uint32_t> weight_crc(configs.size()), result_crc(configs.size());
  int64_t train_size = 0;
  // After the minimum, a repetition starts only while more than half of
  // the last one's time is left, so a run overshoots --seconds by about
  // half a repetition at most.
  Stopwatch budget;
  for (size_t rep = 0;
       rep < configs.size() + 1 ||
       budget.Seconds() + 0.5 * pipeline_s.back() < args.seconds;
       ++rep) {
    size_t j = rep % configs.size();
    ExperimentPipeline pipeline(configs[j]);
    Stopwatch watch;
    pipeline.Prepare();
    setup_s.push_back(watch.Seconds());
    ExpansiveOversampler eos(kEosK);
    ++result.attempted;
    watch.Reset();
    pipeline.TrainPhase1();
    EvalOutputs out = pipeline.RunSampler(eos);
    pipeline_s.push_back(watch.Seconds());

    train_size = pipeline.train().size();
    uint32_t w = WeightCrc(pipeline.net());
    uint32_t r = ResultCrc(out);
    if (rep == j) {
      weight_crc[j] = w;
      result_crc[j] = r;
      bac[j] = out.metrics.bac;
    }
    std::string tag = StrFormat("run %zu (seed %llu)", rep,
                                static_cast<unsigned long long>(
                                    configs[j].seed));
    result.Check(w == weight_crc[j],
                 StrFormat("%s: weight CRC %08x != %08x", tag.c_str(), w,
                           weight_crc[j]));
    result.Check(r == result_crc[j],
                 StrFormat("%s: result CRC %08x != %08x", tag.c_str(), r,
                           result_crc[j]));
    result.Check(Balanced(pipeline.train_counts(), eos.last_stats()),
                 tag + ": EOS output is not balanced");
  }
  result.knn_backend = KnnModeName(ResolveKnnChoice(train_size).backend);

  double median_s = Median(pipeline_s);
  double mean_bac = 0;
  for (double b : bac) mean_bac += b / static_cast<double>(bac.size());
  double images_per_s = static_cast<double>(train_size) *
                        static_cast<double>(configs[0].phase1.epochs) /
                        median_s;
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("time_ms", median_s * 1e3, "ms");
  result.Add("quality", mean_bac, "frac");
  result.Print("pipeline_s", median_s, "s");
  result.Print("pipeline_runs", static_cast<double>(pipeline_s.size()),
              "count");
  result.Print("pipeline_min_s",
              *std::min_element(pipeline_s.begin(), pipeline_s.end()), "s");
  result.Print("pipeline_max_s",
              *std::max_element(pipeline_s.begin(), pipeline_s.end()), "s");
  result.Print("eos_bac", mean_bac, "frac");
  result.Print("phase1_images_per_s", images_per_s, "1/s");
  result.Print("weight_crc_first_seed", weight_crc[0], "crc32");
  return result;
}

RunResult Traced(const Args& args, Tracer* tracer) {
  RunResult result;
  ExperimentConfig config = PipelineConfig(args.seed);
  WarmUp(config);

  // The untraced program call the replay must reproduce bit for bit.
  ExperimentPipeline reference(config);
  reference.Prepare();
  Stopwatch watch;
  reference.TrainPhase1();
  double untraced_s = watch.Seconds();
  uint32_t want_crc = WeightCrc(reference.net());

  // TrainPhase1 draws two forks of the pipeline rng (network init, then
  // training) and builds the phase-1 loss from the train counts; the replay
  // does the same on a second pipeline of the same config.
  ExperimentPipeline pipeline(config);
  pipeline.Prepare();
  Rng& rng = pipeline.rng();
  Rng build_rng = rng.Fork();
  nn::ImageClassifier net = BuildNetwork(config, build_rng);
  std::unique_ptr<Loss> loss = MakeLoss(config.loss, pipeline.train_counts());
  Rng train_rng = rng.Fork();
  ConvShapes shapes;
  FeatureSet train_fe;
  ++result.attempted;
  watch.Reset();
  {
    ScopedSpan phase(tracer, "core.phase1");
    ReplayPhase1(net, *loss, pipeline.train(), config.phase1,
                 config.phase1.epochs, train_rng, tracer, phase.id(), &shapes);
    ScopedSpan embed(tracer, "core.embed", phase.id());
    train_fe = ExtractEmbeddings(net, pipeline.train());
    ExtractEmbeddings(net, pipeline.test());
  }
  double traced_s = watch.Seconds();
  uint32_t got_crc = WeightCrc(net);
  result.Check(got_crc == want_crc,
               StrFormat("replayed phase-1 weight CRC %08x != TrainPhase1 "
                         "%08x",
                         got_crc, want_crc));

  // Phases 2 and 3 in RunSampler's order: sampler fork, head fork.
  Rng sampler_rng = rng.Fork();
  ExpansiveOversampler eos(kEosK);
  FeatureSet balanced;
  {
    ScopedSpan s(tracer, "sampling.resample");
    balanced = eos.Resample(train_fe, sampler_rng);
  }
  result.Check(Balanced(pipeline.train_counts(), eos.last_stats()),
               "EOS output is not balanced");
  Rng head_rng = rng.Fork();
  {
    ScopedSpan s(tracer, "core.head_retrain");
    RetrainHead(net, balanced, config.head, head_rng);
  }
  ProbeKnnLayer(train_fe, kEosK, tracer, result);
  result.knn_backend =
      KnnModeName(ResolveKnnChoice(train_fe.size()).backend);

  GemmMicrobench(shapes.convs, tracer, result);

  // runtime.speedup: the same replayed epochs at one lane vs the default.
  double default_s = TimeEpochs(pipeline, config, 2);
  double serial_s =
      AtOneLane([&] { return TimeEpochs(pipeline, config, 2); });

  for (const char* module : {"Conv2d", "BatchNorm2d", "ReLU", "BasicBlock",
                             "GlobalAvgPool2d", "head"}) {
    for (const char* dir : {"fwd", "bwd"}) {
      result.Add(StrFormat("nn.%s.%s_s", module, dir),
                 tracer->TotalSeconds(StrFormat("nn.%s.%s", module, dir)),
                 "s");
    }
  }
  double block_s = tracer->TotalSeconds("nn.BasicBlock.fwd") +
                   tracer->TotalSeconds("nn.BasicBlock.bwd");
  // Every epoch passes each training image through the extractor once.
  double block_flops = shapes.block_flops_per_image *
                       static_cast<double>(config.phase1.epochs *
                                           pipeline.train().size());
  result.Add("nn.BasicBlock.gflops", block_flops / block_s * 1e-9,
             "GFLOP/s");
  result.Add("data.batch_s", tracer->TotalSeconds("data.batch"), "s");
  result.Add("losses.compute_s", tracer->TotalSeconds("losses.compute"), "s");
  result.Add("nn.sgd_step_s", tracer->TotalSeconds("nn.sgd_step"), "s");
  result.Add("core.step_self_s", tracer->SelfSeconds("core.train_step"), "s");
  result.Add("core.embed_s", tracer->TotalSeconds("core.embed"), "s");
  result.Add("core.head_retrain_s", tracer->TotalSeconds("core.head_retrain"),
             "s");
  double resample_s = tracer->TotalSeconds("sampling.resample");
  result.Add("sampling.resample_s", resample_s, "s");
  result.Add("sampling.self_s",
             resample_s - tracer->TotalSeconds("ml.knn_build") -
                 tracer->TotalSeconds("ml.knn_query"),
             "s");
  result.Add("sampling.synthetic_rows",
             static_cast<double>(balanced.size() - train_fe.size()), "count");
  result.Add("runtime.speedup", serial_s / default_s, "x");
  result.Add("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
             "frac");
  result.Print("untraced_phase1_s", untraced_s, "s");
  result.Print("traced_phase1_s", traced_s, "s");
  result.Print("replay_weight_crc", got_crc, "crc32");
  result.Print("trainphase1_weight_crc", want_crc, "crc32");
  result.Print("epoch_default_lanes_s", default_s / 2, "s");
  result.Print("epoch_one_lane_s", serial_s / 2, "s");
  return result;
}

}  // namespace

RunResult RunPaperPipeline(const Args& args, Tracer* tracer) {
  return tracer != nullptr ? Traced(args, tracer) : Untraced(args);
}

}  // namespace eos::perfbench
