#include "nn/relu.h"

#include <cmath>

#include "common/check.h"
#include "runtime/parallel_for.h"
#include "tensor/simd/dispatch.h"

namespace eos::nn {

Tensor ReLU::Forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  if (training) {
    mask_ = Tensor(input.shape());
    float* m = mask_.data();
    // Element-wise with disjoint writes: bitwise-invariant at any split.
    runtime::ParallelFor(0, input.numel(), runtime::kElementGrain,
                         [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        bool pos = x[i] > 0.0f;
        m[i] = pos ? 1.0f : 0.0f;
        y[i] = pos ? x[i] : 0.0f;
      }
    });
  } else {
    // Dispatched eval-path kernel; max(x, 0) semantics match the scalar
    // ternary bitwise (including NaN -> 0) on every ISA.
    simd::Active().relu(x, y, input.numel());
  }
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  EOS_CHECK(mask_.numel() > 0);
  EOS_CHECK(SameShape(grad_output, mask_));
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* m = mask_.data();
  float* dx = grad_input.data();
  runtime::ParallelFor(0, grad_output.numel(), runtime::kElementGrain,
                       [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) dx[i] = dy[i] * m[i];
  });
  return grad_input;
}

Tensor LeakyReLU::Forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  if (training) {
    grad_mask_ = Tensor(input.shape());
    float* m = grad_mask_.data();
    for (int64_t i = 0; i < input.numel(); ++i) {
      bool pos = x[i] > 0.0f;
      m[i] = pos ? 1.0f : slope_;
      y[i] = pos ? x[i] : slope_ * x[i];
    }
  } else {
    for (int64_t i = 0; i < input.numel(); ++i) {
      y[i] = x[i] > 0.0f ? x[i] : slope_ * x[i];
    }
  }
  return out;
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  EOS_CHECK(grad_mask_.numel() > 0);
  EOS_CHECK(SameShape(grad_output, grad_mask_));
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* m = grad_mask_.data();
  float* dx = grad_input.data();
  for (int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * m[i];
  return grad_input;
}

Tensor Tanh::Forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  for (int64_t i = 0; i < input.numel(); ++i) y[i] = std::tanh(x[i]);
  if (training) output_ = out;
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  EOS_CHECK(output_.numel() > 0);
  EOS_CHECK(SameShape(grad_output, output_));
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* y = output_.data();
  float* dx = grad_input.data();
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  }
  return grad_input;
}

Tensor Sigmoid::Forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  for (int64_t i = 0; i < input.numel(); ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  if (training) output_ = out;
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  EOS_CHECK(output_.numel() > 0);
  EOS_CHECK(SameShape(grad_output, output_));
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* y = output_.data();
  float* dx = grad_input.data();
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = dy[i] * y[i] * (1.0f - y[i]);
  }
  return grad_input;
}

}  // namespace eos::nn
