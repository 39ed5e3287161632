// Bitwise-reproducibility of the parallelized hot paths: every kernel wired
// onto src/runtime/ must produce identical bytes at EOS_THREADS=1 and 8.
// This is the enforcement point of the determinism contract in DESIGN.md.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "ml/knn.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/relu.h"
#include "runtime/thread_pool.h"
#include "sampling/eos.h"
#include "sampling/smote.h"
#include "tensor/matmul.h"
#include "tensor/tensor_ops.h"

namespace eos {
namespace {

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(SameShape(a, b));
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::SetThreadCount(4); }

  // Runs `compute` at 1 thread and at 8 threads and hands both results to
  // the caller for a bitwise comparison.
  template <typename Fn>
  static auto AtOneAndEight(Fn compute) {
    runtime::SetThreadCount(1);
    auto serial = compute();
    runtime::SetThreadCount(8);
    auto parallel = compute();
    return std::make_pair(std::move(serial), std::move(parallel));
  }
};

TEST_F(DeterminismTest, GemmRowBandedPaths) {
  Rng rng(11);
  Tensor a = Tensor::Uniform({65, 33}, -1.0f, 1.0f, rng);
  Tensor b = Tensor::Uniform({33, 41}, -1.0f, 1.0f, rng);
  auto [s_nn, p_nn] = AtOneAndEight([&] { return MatMul(a, b); });
  ExpectBitwiseEqual(s_nn, p_nn);
  Tensor at = Transpose2D(a);
  auto [s_tn, p_tn] = AtOneAndEight([&] { return MatMulTN(at, b); });
  ExpectBitwiseEqual(s_tn, p_tn);
  Tensor bt = Transpose2D(b);
  auto [s_nt, p_nt] = AtOneAndEight([&] { return MatMulNT(a, bt); });
  ExpectBitwiseEqual(s_nt, p_nt);
}

TEST_F(DeterminismTest, GemmTNKPartitionedPath) {
  // Small m, deep k selects the k-partitioned tile path in GemmTN.
  Rng rng(12);
  Tensor a = Tensor::Uniform({700, 4}, -1.0f, 1.0f, rng);  // [k, m]
  Tensor b = Tensor::Uniform({700, 6}, -1.0f, 1.0f, rng);  // [k, n]
  auto [serial, parallel] = AtOneAndEight([&] { return MatMulTN(a, b); });
  ExpectBitwiseEqual(serial, parallel);
}

TEST_F(DeterminismTest, ConvForwardAndBackward) {
  auto run = [] {
    Rng rng(21);  // recreated per run: identical weights at both settings
    nn::Conv2d conv(/*in=*/3, /*out=*/8, /*kernel=*/3, /*stride=*/1,
                    /*pad=*/1, /*bias=*/true, rng);
    Tensor x = Tensor::Uniform({6, 3, 10, 10}, -1.0f, 1.0f, rng);
    Tensor y = conv.Forward(x, /*training=*/true);
    Tensor dy = Tensor::Uniform(y.shape(), -1.0f, 1.0f, rng);
    Tensor dx = conv.Backward(dy);
    std::vector<nn::Parameter*> params;
    conv.CollectParameters(params);
    std::vector<Tensor> result = {y, dx};
    for (nn::Parameter* p : params) result.push_back(p->grad);
    return result;
  };
  auto [serial, parallel] = AtOneAndEight(run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectBitwiseEqual(serial[i], parallel[i]);
  }
}

// The serial BatchNorm2d / ReLU training loops as they were before the
// layers went channel- / element-parallel, kept verbatim as the bitwise
// reference: the parallel split may reorder which thread runs a channel,
// never the arithmetic inside it.
struct SerialBnResult {
  Tensor y, dx, dgamma, dbeta, running_mean, running_var;
};

SerialBnResult SerialBatchNorm(const Tensor& input, const Tensor& dy_in,
                               const Tensor& gamma_t, const Tensor& beta_t,
                               float momentum, float eps) {
  int64_t n = input.size(0);
  int64_t channels = input.size(1);
  int64_t plane = input.size(2) * input.size(3);
  int64_t count = n * plane;
  SerialBnResult r;
  r.y = Tensor(input.shape());
  r.dx = Tensor(input.shape());
  r.dgamma = Tensor::Zeros({channels});
  r.dbeta = Tensor::Zeros({channels});
  r.running_mean = Tensor::Zeros({channels});
  r.running_var = Tensor::Full({channels}, 1.0f);
  Tensor x_hat(input.shape());
  std::vector<float> invstd(static_cast<size_t>(channels), 0.0f);
  const float* x = input.data();
  float* y = r.y.data();
  float* xh = x_hat.data();
  float* rm = r.running_mean.data();
  float* rv = r.running_var.data();
  const float* gamma = gamma_t.data();
  const float* beta = beta_t.data();
  for (int64_t c = 0; c < channels; ++c) {
    double mean = 0.0;
    for (int64_t img = 0; img < n; ++img) {
      const float* src = x + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) mean += src[i];
    }
    mean /= static_cast<double>(count);
    double var = 0.0;
    for (int64_t img = 0; img < n; ++img) {
      const float* src = x + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        double d = src[i] - mean;
        var += d * d;
      }
    }
    var /= static_cast<double>(count);
    float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    invstd[static_cast<size_t>(c)] = inv;
    rm[c] = (1.0f - momentum) * rm[c] + momentum * static_cast<float>(mean);
    double unbiased =
        count > 1 ? var * count / static_cast<double>(count - 1) : var;
    rv[c] = (1.0f - momentum) * rv[c] + momentum * static_cast<float>(unbiased);
    float g = gamma[c];
    float b = beta[c];
    float m = static_cast<float>(mean);
    for (int64_t img = 0; img < n; ++img) {
      const float* src = x + (img * channels + c) * plane;
      float* xhp = xh + (img * channels + c) * plane;
      float* dst = y + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        float xn = (src[i] - m) * inv;
        xhp[i] = xn;
        dst[i] = g * xn + b;
      }
    }
  }
  const float* dy = dy_in.data();
  float* dx = r.dx.data();
  float* dgamma = r.dgamma.data();
  float* dbeta = r.dbeta.data();
  for (int64_t c = 0; c < channels; ++c) {
    double sum_dy = 0.0;
    double sum_dy_xh = 0.0;
    for (int64_t img = 0; img < n; ++img) {
      const float* dyp = dy + (img * channels + c) * plane;
      const float* xhp = xh + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        sum_dy += dyp[i];
        sum_dy_xh += static_cast<double>(dyp[i]) * xhp[i];
      }
    }
    dgamma[c] += static_cast<float>(sum_dy_xh);
    dbeta[c] += static_cast<float>(sum_dy);
    float scale = gamma[c] * invstd[static_cast<size_t>(c)] /
                  static_cast<float>(count);
    float mean_dy = static_cast<float>(sum_dy);
    float mean_dy_xh = static_cast<float>(sum_dy_xh);
    for (int64_t img = 0; img < n; ++img) {
      const float* dyp = dy + (img * channels + c) * plane;
      const float* xhp = xh + (img * channels + c) * plane;
      float* dxp = dx + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        dxp[i] = scale * (static_cast<float>(count) * dyp[i] - mean_dy -
                          xhp[i] * mean_dy_xh);
      }
    }
  }
  return r;
}

std::vector<Tensor> SerialRelu(const Tensor& input, const Tensor& dy_in) {
  Tensor y(input.shape());
  Tensor mask(input.shape());
  Tensor dx(input.shape());
  const float* x = input.data();
  float* m = mask.data();
  for (int64_t i = 0; i < input.numel(); ++i) {
    bool pos = x[i] > 0.0f;
    m[i] = pos ? 1.0f : 0.0f;
    y.data()[i] = pos ? x[i] : 0.0f;
  }
  const float* dy = dy_in.data();
  for (int64_t i = 0; i < dy_in.numel(); ++i) dx.data()[i] = dy[i] * m[i];
  return {y, dx};
}

TEST_F(DeterminismTest, BatchNormTrainingMatchesSerialLoopsBitwise) {
  // 16 channels of 64 x 8x8: more channels than lanes, so the channel
  // split really spreads across the pool at 8 threads.
  Rng data_rng(41);
  Tensor x = Tensor::Uniform({64, 16, 8, 8}, -2.0f, 3.0f, data_rng);
  Tensor dy = Tensor::Uniform(x.shape(), -1.0f, 1.0f, data_rng);
  Tensor gamma = Tensor::Uniform({16}, 0.5f, 1.5f, data_rng);
  Tensor beta = Tensor::Uniform({16}, -0.5f, 0.5f, data_rng);
  auto run = [&] {
    nn::BatchNorm2d bn(16);
    std::vector<nn::Parameter*> params;
    bn.CollectParameters(params);  // gamma, beta
    params[0]->value = gamma.Clone();
    params[1]->value = beta.Clone();
    Tensor y = bn.Forward(x, /*training=*/true);
    Tensor dx = bn.Backward(dy);
    std::vector<Tensor*> buffers;
    bn.CollectBuffers(buffers);  // running mean, running variance
    return std::vector<Tensor>{y, dx, params[0]->grad, params[1]->grad,
                               *buffers[0], *buffers[1]};
  };
  auto [serial, parallel] = AtOneAndEight(run);
  SerialBnResult ref = SerialBatchNorm(x, dy, gamma, beta, 0.1f, 1e-5f);
  std::vector<Tensor> want = {ref.y,      ref.dx,           ref.dgamma,
                              ref.dbeta,  ref.running_mean, ref.running_var};
  ASSERT_EQ(serial.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectBitwiseEqual(serial[i], parallel[i]);
    ExpectBitwiseEqual(parallel[i], want[i]);
  }
}

TEST_F(DeterminismTest, ReluTrainingMatchesSerialLoopsBitwise) {
  // 3 x 2^16 elements: several element-grain chunks.
  Rng data_rng(42);
  Tensor x = Tensor::Uniform({3, 16, 64, 64}, -1.0f, 1.0f, data_rng);
  Tensor dy = Tensor::Uniform(x.shape(), -1.0f, 1.0f, data_rng);
  x.data()[5] = 0.0f;
  x.data()[6] = -0.0f;
  x.data()[7] = NAN;
  auto run = [&] {
    nn::ReLU relu;
    Tensor y = relu.Forward(x, /*training=*/true);
    Tensor dx = relu.Backward(dy);
    return std::vector<Tensor>{y, dx};
  };
  auto [serial, parallel] = AtOneAndEight(run);
  std::vector<Tensor> want = SerialRelu(x, dy);
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectBitwiseEqual(serial[i], parallel[i]);
    ExpectBitwiseEqual(parallel[i], want[i]);
  }
}

TEST_F(DeterminismTest, ElementwiseAndReductions) {
  Rng rng(31);
  Tensor a = Tensor::Uniform({100000}, -1.0f, 1.0f, rng);
  Tensor b = Tensor::Uniform({100000}, -1.0f, 1.0f, rng);
  auto [s_add, p_add] = AtOneAndEight([&] { return Add(a, b); });
  ExpectBitwiseEqual(s_add, p_add);
  auto [s_sum, p_sum] = AtOneAndEight([&] { return Sum(a); });
  EXPECT_EQ(s_sum, p_sum);
  auto [s_n2, p_n2] = AtOneAndEight([&] { return Norm2(a); });
  EXPECT_EQ(s_n2, p_n2);
  auto [s_sm, p_sm] = AtOneAndEight([&] {
    Tensor logits({500, 200});
    std::memcpy(logits.data(), a.data(),
                static_cast<size_t>(logits.numel()) * sizeof(float));
    return SoftmaxRows(logits);
  });
  ExpectBitwiseEqual(s_sm, p_sm);
}

TEST_F(DeterminismTest, KnnBatchedQueries) {
  Rng rng(41);
  Tensor points = Tensor::Uniform({300, 16}, -1.0f, 1.0f, rng);
  auto [serial, parallel] =
      AtOneAndEight([&] { return AllKNearestNeighbors(points, 7); });
  EXPECT_EQ(serial, parallel);
  KnnIndex index(points);
  std::vector<int64_t> rows = {0, 5, 17, 120, 299};
  auto [s_rows, p_rows] =
      AtOneAndEight([&] { return index.QueryRows(rows, 5); });
  EXPECT_EQ(s_rows, p_rows);
}

// Builds a 3-class imbalanced embedding set with overlapping class clouds so
// EOS finds borderline bases.
FeatureSet MakeImbalancedSet() {
  Rng rng(51);
  FeatureSet set;
  set.num_classes = 3;
  std::vector<int64_t> counts = {120, 40, 15};
  int64_t total = 175;
  set.features = Tensor({total, 8});
  int64_t row = 0;
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t i = 0; i < counts[static_cast<size_t>(c)]; ++i) {
      for (int64_t j = 0; j < 8; ++j) {
        set.features.at(row, j) =
            static_cast<float>(c) * 0.5f + rng.Normal(0.0f, 1.0f);
      }
      set.labels.push_back(c);
      ++row;
    }
  }
  return set;
}

TEST_F(DeterminismTest, EosOversamplingBitwise) {
  FeatureSet data = MakeImbalancedSet();
  auto run = [&] {
    Rng rng(61);  // recreated per run: same random draws at both settings
    ExpansiveOversampler eos_sampler(/*k_neighbors=*/5, EosMode::kConvex,
                                     /*max_step=*/0.5f);
    return eos_sampler.Resample(data, rng);
  };
  auto [serial, parallel] = AtOneAndEight(run);
  ExpectBitwiseEqual(serial.features, parallel.features);
  EXPECT_EQ(serial.labels, parallel.labels);
}

TEST_F(DeterminismTest, SmoteOversamplingBitwise) {
  FeatureSet data = MakeImbalancedSet();
  auto run = [&] {
    Rng rng(62);
    Smote smote(/*k_neighbors=*/5);
    return smote.Resample(data, rng);
  };
  auto [serial, parallel] = AtOneAndEight(run);
  ExpectBitwiseEqual(serial.features, parallel.features);
  EXPECT_EQ(serial.labels, parallel.labels);
}

}  // namespace
}  // namespace eos
