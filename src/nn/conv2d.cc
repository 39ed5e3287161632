#include "nn/conv2d.h"

#include <vector>

#include "common/check.h"
#include "nn/init.h"
#include "tensor/im2col.h"
#include "tensor/simd/dispatch.h"

namespace eos::nn {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  EOS_CHECK_GT(in_channels, 0);
  EOS_CHECK_GT(out_channels, 0);
  EOS_CHECK_GT(kernel, 0);
  EOS_CHECK_GT(stride, 0);
  EOS_CHECK_GE(pad, 0);
  int64_t fan_out = out_channels * kernel * kernel;
  weight_ = Parameter(
      "conv.weight",
      Tensor::Zeros({out_channels, in_channels * kernel * kernel}));
  KaimingNormal(weight_.value, fan_out, rng);
  if (has_bias_) {
    bias_ = Parameter("conv.bias", Tensor::Zeros({out_channels}),
                      /*decay=*/false);
  }
}

simd::ConvShape Conv2d::Shape(const Tensor& input) const {
  EOS_CHECK_EQ(input.dim(), 4);
  EOS_CHECK_EQ(input.size(1), in_channels_);
  simd::ConvShape shape;
  shape.batch = input.size(0);
  shape.in_channels = in_channels_;
  shape.height = input.size(2);
  shape.width = input.size(3);
  shape.out_channels = out_channels_;
  shape.kernel_h = kernel_;
  shape.kernel_w = kernel_;
  shape.stride = stride_;
  shape.pad = pad_;
  shape.out_h = ConvOutSize(shape.height, kernel_, stride_, pad_);
  shape.out_w = ConvOutSize(shape.width, kernel_, stride_, pad_);
  EOS_CHECK_GT(shape.out_h, 0);
  EOS_CHECK_GT(shape.out_w, 0);
  return shape;
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  simd::ConvShape shape = Shape(input);
  if (training) cached_input_ = input;

  Tensor out({shape.batch, out_channels_, shape.out_h, shape.out_w});
  // Whole-batch im2col-fused forward via the dispatched SIMD layer:
  // batch-parallel with workspace-lane scratch (zero steady-state heap
  // allocation) and the bias fold in the GEMM tail. `out` is
  // zero-initialized, as the kernel's accumulate semantics require.
  simd::Active().conv2d_forward(
      input.data(), weight_.value.data(),
      has_bias_ ? bias_.value.data() : nullptr, out.data(), shape);
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EOS_CHECK(cached_input_.numel() > 0);
  simd::ConvShape shape = Shape(cached_input_);
  EOS_CHECK_EQ(grad_output.dim(), 4);
  EOS_CHECK_EQ(grad_output.size(0), shape.batch);
  EOS_CHECK_EQ(grad_output.size(1), out_channels_);
  EOS_CHECK_EQ(grad_output.size(2), shape.out_h);
  EOS_CHECK_EQ(grad_output.size(3), shape.out_w);

  Tensor grad_input(cached_input_.shape());  // zero-initialized
  // Batch-parallel NN-GEMM backward with chunk-ordered dW/db reduction
  // (bitwise-identical at any thread count) on workspace-lane scratch.
  simd::Active().conv2d_backward(
      cached_input_.data(), weight_.value.data(), grad_output.data(),
      grad_input.data(), weight_.grad.data(),
      has_bias_ ? bias_.grad.data() : nullptr, shape);
  return grad_input;
}

void Conv2d::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace eos::nn
