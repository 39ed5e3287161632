#ifndef EOS_NN_CONV2D_H_
#define EOS_NN_CONV2D_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/simd/dispatch.h"

namespace eos::nn {

/// 2-d convolution over NCHW inputs, implemented as im2col + GEMM.
///
/// The weight is stored GEMM-ready as [out_channels, in_channels*kh*kw].
/// Backward recomputes the im2col buffer from the cached input instead of
/// caching it, trading a little compute for a large activation-memory saving.
/// Forward and backward are one call each into the dispatched SIMD layer
/// (simd::KernelTable::conv2d_forward / conv2d_backward): batch-parallel
/// over the src/runtime/ pool with deterministic (chunk-ordered)
/// weight-gradient reduction, so results are bitwise-identical at any
/// EOS_THREADS.
class Conv2d : public Module {
 public:
  /// Creates a convolution with square `kernel`, the given `stride` and
  /// zero-`pad`, Kaiming-normal initialized (fan-out). ResNet-style nets set
  /// `bias` false because a BatchNorm follows.
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t pad, bool bias, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }

 private:
  /// Kernel geometry for an NCHW input batch (checks the channel count).
  simd::ConvShape Shape(const Tensor& input) const;

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t stride_;
  int64_t pad_;
  bool has_bias_;

  Parameter weight_;  // [out_channels, in_channels*k*k]
  Parameter bias_;    // [out_channels] (unused when !has_bias_)

  Tensor cached_input_;  // shared buffer, not a copy
};

}  // namespace eos::nn

#endif  // EOS_NN_CONV2D_H_
