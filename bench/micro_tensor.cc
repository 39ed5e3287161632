// Kernel microbenchmark with in-process ISA A/B: every case runs once under
// EOS_SIMD=scalar semantics (ScopedForceIsa) and once under avx2 (when the
// CPU has it), single-core (SetThreadCount(1)) so the numbers isolate the
// kernel speedup from runtime-pool scaling. Results — ns/iter, GFLOP/s, and
// the avx2-vs-scalar speedup per case — land in a JSON file (default
// BENCH_tensor.json) for the perf trajectory; the headline acceptance
// number is the gemm_nn speedup (target >= 4x). The conv_bwd_* rows record
// the training backward beside the forward.
//
// Run: ./build/bench/micro_tensor
//      ./build/bench/micro_tensor --min_seconds=1.0 --out=/tmp/t.json

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "runtime/thread_pool.h"
#include "tensor/matmul.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor_ops.h"

namespace {

struct CaseResult {
  std::string op;
  std::string isa;
  double ns_per_iter = 0;
  double gflops = 0;   // 0 when the case has no meaningful FLOP count
  double speedup = 0;  // avx2 rows only: scalar ns / avx2 ns
};

// Runs `fn` until `min_seconds` of wall clock accumulate (after a warmup
// pass that also grows any workspace lanes), returning seconds per call.
double Measure(const std::function<void()>& fn, double min_seconds) {
  fn();
  fn();
  int64_t iters = 0;
  eos::Stopwatch watch;
  do {
    fn();
    ++iters;
  } while (watch.Seconds() < min_seconds);
  return watch.Seconds() / static_cast<double>(iters);
}

struct Case {
  std::string op;
  double flops_per_iter;  // for GFLOP/s; 0 to skip
  std::function<void()> fn;
};

std::vector<Case> BuildCases() {
  std::vector<Case> cases;
  eos::Rng rng(7);

  for (int64_t n : {64, 128, 256}) {
    auto a = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({n, n}, -1.0f, 1.0f, rng));
    auto b = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({n, n}, -1.0f, 1.0f, rng));
    cases.push_back({eos::StrFormat("gemm_nn_%lld", static_cast<long long>(n)),
                     2.0 * n * n * n,
                     [a, b] { eos::Tensor out = eos::MatMul(*a, *b); }});
  }
  {
    int64_t n = 128;
    auto a = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({n, n}, -1.0f, 1.0f, rng));
    auto b = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({n, n}, -1.0f, 1.0f, rng));
    cases.push_back({"gemm_nt_128", 2.0 * n * n * n, [a, b] {
                       eos::Tensor out = eos::MatMulNT(*a, *b);
                     }});
    cases.push_back({"gemm_tn_128", 2.0 * n * n * n, [a, b] {
                       eos::Tensor out = eos::MatMulTN(*a, *b);
                     }});
  }
  {
    // ResNet-ish conv shape: 16 images, 16->16 channels, 16x16, 3x3.
    int64_t imgs = 16, ch = 16, hw = 16, kk = 3;
    eos::Rng conv_rng(8);
    auto conv = std::make_shared<eos::nn::Conv2d>(ch, ch, kk, 1, 1,
                                                  /*bias=*/true, conv_rng);
    auto x = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({imgs, ch, hw, hw}, -1.0f, 1.0f, conv_rng));
    double flops = 2.0 * imgs * ch * hw * hw * ch * kk * kk;
    cases.push_back({"conv2d_forward_16c", flops, [conv, x] {
                       eos::Tensor out = conv->Forward(*x, /*training=*/false);
                     }});
  }
  // Conv backward on the three ResNet-8 block shapes of the paper pipeline
  // (width 8, 16x16 images, batch 64): 3x3 same-pad, channels doubling as
  // the plane halves. Two GEMMs per image (dW and dcol), 2 FLOPs per MAC.
  struct BlockShape {
    int64_t channels;
    int64_t hw;
  };
  for (BlockShape b : {BlockShape{8, 16}, BlockShape{16, 8},
                       BlockShape{32, 4}}) {
    int64_t imgs = 64, kk = 3;
    eos::Rng bwd_rng(11);
    auto conv = std::make_shared<eos::nn::Conv2d>(
        b.channels, b.channels, kk, 1, 1, /*bias=*/false, bwd_rng);
    auto x = std::make_shared<eos::Tensor>(eos::Tensor::Uniform(
        {imgs, b.channels, b.hw, b.hw}, -1.0f, 1.0f, bwd_rng));
    auto dy = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform(x->shape(), -1.0f, 1.0f, bwd_rng));
    conv->Forward(*x, /*training=*/true);  // caches the input
    double flops = 4.0 * imgs * b.channels * b.channels * kk * kk * b.hw *
                   b.hw;
    cases.push_back(
        {eos::StrFormat("conv_bwd_%lldc_%lldx%lld",
                        static_cast<long long>(b.channels),
                        static_cast<long long>(b.hw),
                        static_cast<long long>(b.hw)),
         flops, [conv, dy] { eos::Tensor dx = conv->Backward(*dy); }});
  }
  {
    eos::Rng bn_rng(9);
    auto bn = std::make_shared<eos::nn::BatchNorm2d>(32);
    auto x = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({32, 32, 16, 16}, -1.0f, 1.0f, bn_rng));
    // Move the running stats once so eval mode sees realistic values.
    bn->Forward(*x, /*training=*/true);
    cases.push_back({"batchnorm_eval_32c", 0.0, [bn, x] {
                       eos::Tensor out = bn->Forward(*x, /*training=*/false);
                     }});
  }
  {
    eos::Rng sm_rng(10);
    auto logits = std::make_shared<eos::Tensor>(
        eos::Tensor::Uniform({256, 128}, -4.0f, 4.0f, sm_rng));
    cases.push_back({"softmax_rows_256x128", 0.0, [logits] {
                       eos::Tensor out = eos::SoftmaxRows(*logits);
                     }});
  }
  return cases;
}

std::string ResultJson(const CaseResult& r) {
  return eos::StrFormat(
      "{\"op\": \"%s\", \"isa\": \"%s\", \"ns_per_iter\": %.1f, "
      "\"gflops\": %.3f, \"speedup_vs_scalar\": %.3f}",
      r.op.c_str(), r.isa.c_str(), r.ns_per_iter, r.gflops, r.speedup);
}

}  // namespace

int main(int argc, char** argv) {
  eos::FlagSet flags;
  double* min_seconds = flags.AddDouble(
      "min_seconds", 0.3, "min measured wall time per case and ISA");
  std::string* out =
      flags.AddString("out", "BENCH_tensor.json", "JSON output path");
  eos::Status status = flags.Parse(argc, argv);
  if (!status.ok() || flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return status.ok() ? 0 : 2;
  }

  // Single core: the acceptance number is the per-kernel speedup, not pool
  // scaling. (ParallelFor grains make the kernels thread-count-invariant
  // bitwise, so this only changes wall time.)
  eos::runtime::SetThreadCount(1);

  bool have_avx2 = eos::simd::CpuSupportsAvx2();
  std::vector<eos::simd::Isa> isas = {eos::simd::Isa::kScalar};
  if (have_avx2) isas.push_back(eos::simd::Isa::kAvx2);

  std::vector<Case> cases = BuildCases();
  std::vector<CaseResult> results;
  std::printf("micro_tensor: single core, min %.2fs per case; avx2 %s\n\n",
              *min_seconds, have_avx2 ? "available" : "NOT available");
  std::printf("  %-22s %-8s %-14s %-10s %-8s\n", "op", "isa", "ns/iter",
              "gflops", "speedup");

  for (const Case& c : cases) {
    double scalar_ns = 0;
    for (eos::simd::Isa isa : isas) {
      eos::simd::ScopedForceIsa force(isa);
      double sec = Measure(c.fn, *min_seconds);
      CaseResult r;
      r.op = c.op;
      r.isa = eos::simd::IsaName(isa);
      r.ns_per_iter = sec * 1e9;
      r.gflops = c.flops_per_iter > 0 ? c.flops_per_iter / sec * 1e-9 : 0.0;
      if (isa == eos::simd::Isa::kScalar) {
        scalar_ns = r.ns_per_iter;
      } else {
        r.speedup = scalar_ns / r.ns_per_iter;
      }
      results.push_back(r);
      std::printf("  %-22s %-8s %-14.0f %-10.3f %-8.2f\n", r.op.c_str(),
                  r.isa.c_str(), r.ns_per_iter, r.gflops, r.speedup);
    }
  }

  std::FILE* f = std::fopen(out->c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out->c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\": \"micro_tensor\", \"threads\": 1, "
               "\"avx2_available\": %s, \"results\": [\n",
               have_avx2 ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f, "  %s%s\n", ResultJson(results[i]).c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows)\n", out->c_str(), results.size());
  return 0;
}
