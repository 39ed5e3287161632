#include "nn/batchnorm.h"

#include <cmath>

#include "common/check.h"
#include "runtime/parallel_for.h"
#include "tensor/simd/dispatch.h"

namespace eos::nn {
namespace {

// Training forward/backward parallelize over channels, one per chunk.
constexpr int64_t kChannelGrain = 1;

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::Full({channels}, 1.0f), /*decay=*/false),
      beta_("bn.beta", Tensor::Zeros({channels}), /*decay=*/false),
      running_mean_(Tensor::Zeros({channels})),
      running_var_(Tensor::Full({channels}, 1.0f)) {
  EOS_CHECK_GT(channels, 0);
}

Tensor BatchNorm2d::Forward(const Tensor& input, bool training) {
  EOS_CHECK_EQ(input.dim(), 4);
  EOS_CHECK_EQ(input.size(1), channels_);
  int64_t n = input.size(0);
  int64_t h = input.size(2);
  int64_t w = input.size(3);
  int64_t plane = h * w;
  int64_t count = n * plane;
  EOS_CHECK_GT(count, 0);

  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();

  if (training) {
    x_hat_ = Tensor(input.shape());
    invstd_.assign(static_cast<size_t>(channels_), 0.0f);
    float* xh = x_hat_.data();
    float* rm = running_mean_.data();
    float* rv = running_var_.data();
    // Channels are independent (disjoint x_hat/y slices, one invstd and
    // running-stat entry each), and each keeps its serial double-precision
    // accumulation chain, so the parallel split is bitwise-invariant.
    runtime::ParallelFor(0, channels_, kChannelGrain, [&](int64_t c0,
                                                          int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        double mean = 0.0;
        for (int64_t img = 0; img < n; ++img) {
          const float* src = x + (img * channels_ + c) * plane;
          for (int64_t i = 0; i < plane; ++i) mean += src[i];
        }
        mean /= static_cast<double>(count);
        double var = 0.0;
        for (int64_t img = 0; img < n; ++img) {
          const float* src = x + (img * channels_ + c) * plane;
          for (int64_t i = 0; i < plane; ++i) {
            double d = src[i] - mean;
            var += d * d;
          }
        }
        var /= static_cast<double>(count);  // biased, like the reference impl
        float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
        invstd_[static_cast<size_t>(c)] = inv;
        rm[c] = (1.0f - momentum_) * rm[c] +
                momentum_ * static_cast<float>(mean);
        // Running variance uses the unbiased estimate, matching torch.
        double unbiased =
            count > 1 ? var * count / static_cast<double>(count - 1) : var;
        rv[c] = (1.0f - momentum_) * rv[c] +
                momentum_ * static_cast<float>(unbiased);
        float g = gamma[c];
        float b = beta[c];
        float m = static_cast<float>(mean);
        for (int64_t img = 0; img < n; ++img) {
          const float* src = x + (img * channels_ + c) * plane;
          float* xhp = xh + (img * channels_ + c) * plane;
          float* dst = y + (img * channels_ + c) * plane;
          for (int64_t i = 0; i < plane; ++i) {
            float xn = (src[i] - m) * inv;
            xhp[i] = xn;
            dst[i] = g * xn + b;
          }
        }
      }
    });
  } else {
    // Dispatched eval-path kernel; replicates this loop's exact operation
    // order (sub, mul, mul, add — no FMA) so every ISA agrees bitwise.
    simd::Active().bn_eval(x, y, running_mean_.data(), running_var_.data(),
                           gamma, beta, eps_, n, channels_, plane);
  }
  return out;
}

Tensor BatchNorm2d::Backward(const Tensor& grad_output) {
  EOS_CHECK(x_hat_.numel() > 0);
  EOS_CHECK(SameShape(grad_output, x_hat_));
  int64_t n = grad_output.size(0);
  int64_t plane = grad_output.size(2) * grad_output.size(3);
  int64_t count = n * plane;

  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* xh = x_hat_.data();
  float* dx = grad_input.data();
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  const float* gamma = gamma_.value.data();

  // Per-channel like the forward: disjoint dx slices and dgamma/dbeta
  // entries, serial per-channel sums — bitwise-invariant at any split.
  runtime::ParallelFor(0, channels_, kChannelGrain, [&](int64_t c0,
                                                        int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      double sum_dy = 0.0;
      double sum_dy_xh = 0.0;
      for (int64_t img = 0; img < n; ++img) {
        const float* dyp = dy + (img * channels_ + c) * plane;
        const float* xhp = xh + (img * channels_ + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          sum_dy += dyp[i];
          sum_dy_xh += static_cast<double>(dyp[i]) * xhp[i];
        }
      }
      dgamma[c] += static_cast<float>(sum_dy_xh);
      dbeta[c] += static_cast<float>(sum_dy);
      // dx = gamma*invstd/count * (count*dy - sum(dy) - x_hat*sum(dy*x_hat))
      float scale = gamma[c] * invstd_[static_cast<size_t>(c)] /
                    static_cast<float>(count);
      float mean_dy = static_cast<float>(sum_dy);
      float mean_dy_xh = static_cast<float>(sum_dy_xh);
      for (int64_t img = 0; img < n; ++img) {
        const float* dyp = dy + (img * channels_ + c) * plane;
        const float* xhp = xh + (img * channels_ + c) * plane;
        float* dxp = dx + (img * channels_ + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          dxp[i] = scale * (static_cast<float>(count) * dyp[i] - mean_dy -
                            xhp[i] * mean_dy_xh);
        }
      }
    }
  });
  return grad_input;
}

void BatchNorm2d::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::CollectBuffers(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

}  // namespace eos::nn
