#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "tensor/im2col.h"
#include "tensor/simd/dispatch.h"

namespace eos::simd {
namespace {

std::vector<Isa> RunnableIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (CpuSupportsAvx2()) isas.push_back(Isa::kAvx2);
  return isas;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.Uniform(-1.0f, 1.0f);
  return v;
}

ConvShape MakeShape(int64_t batch, int64_t c_in, int64_t h, int64_t w,
                    int64_t c_out, int64_t k, int64_t stride, int64_t pad) {
  ConvShape s;
  s.batch = batch;
  s.in_channels = c_in;
  s.height = h;
  s.width = w;
  s.out_channels = c_out;
  s.kernel_h = k;
  s.kernel_w = k;
  s.stride = stride;
  s.pad = pad;
  s.out_h = ConvOutSize(h, k, stride, pad);
  s.out_w = ConvOutSize(w, k, stride, pad);
  return s;
}

/// Double-precision direct convolution: the slow, obviously-correct
/// reference both ISA paths are checked against (to tolerance).
std::vector<float> DirectConvBatch(const std::vector<float>& x,
                                   const std::vector<float>& weight,
                                   const std::vector<float>& bias,
                                   const ConvShape& s) {
  std::vector<float> y(
      static_cast<size_t>(s.batch * s.out_channels * s.out_h * s.out_w), 0.0f);
  for (int64_t img = 0; img < s.batch; ++img) {
    const float* image = x.data() + img * s.in_channels * s.height * s.width;
    float* out = y.data() + img * s.out_channels * s.out_h * s.out_w;
    for (int64_t oc = 0; oc < s.out_channels; ++oc) {
      for (int64_t oy = 0; oy < s.out_h; ++oy) {
        for (int64_t ox = 0; ox < s.out_w; ++ox) {
          double acc = bias.empty() ? 0.0 : bias[static_cast<size_t>(oc)];
          for (int64_t ic = 0; ic < s.in_channels; ++ic) {
            for (int64_t ky = 0; ky < s.kernel_h; ++ky) {
              for (int64_t kx = 0; kx < s.kernel_w; ++kx) {
                int64_t iy = oy * s.stride - s.pad + ky;
                int64_t ix = ox * s.stride - s.pad + kx;
                if (iy < 0 || iy >= s.height || ix < 0 || ix >= s.width) {
                  continue;
                }
                double pixel =
                    image[(ic * s.height + iy) * s.width + ix];
                double wv = weight[static_cast<size_t>(
                    ((oc * s.in_channels + ic) * s.kernel_h + ky) *
                        s.kernel_w +
                    kx)];
                acc += pixel * wv;
              }
            }
          }
          out[(oc * s.out_h + oy) * s.out_w + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// The fused kernel decomposed by hand with the SAME ISA's GEMM: per image,
/// im2col then gemm_nn then a bias broadcast. The fused path must match this
/// bitwise — fusion may save allocations, never change a rounding.
std::vector<float> ComposedConv(const KernelTable& table,
                                const std::vector<float>& x,
                                const std::vector<float>& weight,
                                const std::vector<float>& bias,
                                const ConvShape& s) {
  int64_t ckk = s.in_channels * s.kernel_h * s.kernel_w;
  int64_t plane = s.out_h * s.out_w;
  std::vector<float> col(static_cast<size_t>(ckk * plane));
  std::vector<float> y(static_cast<size_t>(s.batch * s.out_channels * plane),
                       0.0f);
  for (int64_t img = 0; img < s.batch; ++img) {
    const float* image = x.data() + img * s.in_channels * s.height * s.width;
    float* out = y.data() + img * s.out_channels * plane;
    Im2Col(image, s.in_channels, s.height, s.width, s.kernel_h, s.kernel_w,
           s.stride, s.pad, col.data());
    table.gemm_nn(weight.data(), col.data(), out, s.out_channels, ckk, plane);
    if (!bias.empty()) {
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        for (int64_t p = 0; p < plane; ++p) {
          out[oc * plane + p] += bias[static_cast<size_t>(oc)];
        }
      }
    }
  }
  return y;
}

/// (c_in, hw, c_out, k, stride, pad, batch, with_bias) — edge geometries:
/// 1x1 kernels, batch-1, stride tails that don't divide the spatial extent,
/// single-channel, and pad-0 shrinking convs.
class SimdConvTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, int, int, bool>> {};

TEST_P(SimdConvTest, FusedMatchesComposedBitwiseAndDirectToTolerance) {
  auto [c_in, hw, c_out, k, stride, pad, batch, with_bias] = GetParam();
  ConvShape s = MakeShape(batch, c_in, hw, hw, c_out, k, stride, pad);
  ASSERT_GT(s.out_h, 0);
  ASSERT_GT(s.out_w, 0);
  std::vector<float> x =
      RandomVec(s.batch * s.in_channels * s.height * s.width, 21);
  std::vector<float> weight = RandomVec(
      s.out_channels * s.in_channels * s.kernel_h * s.kernel_w, 22);
  std::vector<float> bias =
      with_bias ? RandomVec(s.out_channels, 23) : std::vector<float>{};

  std::vector<float> reference = DirectConvBatch(x, weight, bias, s);
  for (Isa isa : RunnableIsas()) {
    const KernelTable& table = Table(isa);
    std::vector<float> fused(reference.size(), 0.0f);
    table.conv2d_forward(x.data(), weight.data(),
                         bias.empty() ? nullptr : bias.data(), fused.data(),
                         s);

    std::vector<float> composed = ComposedConv(table, x, weight, bias, s);
    ASSERT_EQ(fused.size(), composed.size());
    EXPECT_EQ(std::memcmp(fused.data(), composed.data(),
                          fused.size() * sizeof(float)),
              0)
        << "fused != composed on " << IsaName(isa);

    for (size_t i = 0; i < fused.size(); ++i) {
      ASSERT_NEAR(fused[i], reference[i], 1e-4f)
          << "path " << IsaName(isa) << " flat index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, SimdConvTest,
    ::testing::Values(
        // 3x3 same-pad at a spatial size whose plane (49) has an awkward
        // tail for both the 16-wide and 8-wide column blocks.
        std::make_tuple(3, 7, 4, 3, 1, 1, 2, true),
        // 1x1 kernel: conv degenerates to a channel-mixing GEMM.
        std::make_tuple(4, 6, 3, 1, 1, 0, 2, true),
        std::make_tuple(2, 5, 2, 1, 2, 0, 1, false),
        // batch-1 (the PredictOne serving path).
        std::make_tuple(3, 8, 5, 3, 1, 1, 1, true),
        // stride 2 with an odd extent: last window truncates.
        std::make_tuple(2, 9, 3, 3, 2, 1, 3, true),
        // single input channel, shrinking pad-0 conv.
        std::make_tuple(1, 6, 2, 3, 1, 0, 2, false),
        // wide-ish channels so ckk exceeds one microkernel row band.
        std::make_tuple(8, 5, 7, 3, 1, 1, 2, true)));

TEST(SimdConvBatchTest, BatchCompositionIsBitwiseIrrelevantPerPath) {
  // Convolving a batch must equal convolving each image alone, bitwise,
  // on every path — the conv driver is per-image by construction and this
  // pins that contract against future blocking changes.
  ConvShape batched = MakeShape(/*batch=*/5, 3, 6, 6, 4, 3, 1, 1);
  ConvShape single = batched;
  single.batch = 1;
  int64_t image_numel = batched.in_channels * batched.height * batched.width;
  int64_t out_numel = batched.out_channels * batched.out_h * batched.out_w;
  std::vector<float> x = RandomVec(batched.batch * image_numel, 31);
  std::vector<float> weight = RandomVec(
      batched.out_channels * batched.in_channels * 3 * 3, 32);
  std::vector<float> bias = RandomVec(batched.out_channels, 33);

  for (Isa isa : RunnableIsas()) {
    const KernelTable& table = Table(isa);
    std::vector<float> full(static_cast<size_t>(batched.batch * out_numel),
                            0.0f);
    table.conv2d_forward(x.data(), weight.data(), bias.data(), full.data(),
                         batched);
    for (int64_t img = 0; img < batched.batch; ++img) {
      std::vector<float> one(static_cast<size_t>(out_numel), 0.0f);
      table.conv2d_forward(x.data() + img * image_numel, weight.data(),
                           bias.data(), one.data(), single);
      EXPECT_EQ(std::memcmp(one.data(), full.data() + img * out_numel,
                            static_cast<size_t>(out_numel) * sizeof(float)),
                0)
          << "image " << img << " on " << IsaName(isa);
    }
  }
}

// ---------------------------------------------------------------------------
// Conv backward (KernelTable::conv2d_backward).

/// Gradients of one backward call. `*_scale` hold, per element, the sum of
/// |terms| the double reference added up: the error budget of a float
/// accumulation scales with it, not with the (possibly cancelling) result.
struct ConvGrads {
  std::vector<float> dx;
  std::vector<float> dw;
  std::vector<float> db;
  std::vector<double> dx_scale;
  std::vector<double> dw_scale;
  std::vector<double> db_scale;
};

/// Double-precision direct backward: the obviously-correct reference.
ConvGrads DirectConvBackward(const std::vector<float>& x,
                             const std::vector<float>& weight,
                             const std::vector<float>& dy, const ConvShape& s,
                             bool with_bias) {
  int64_t ckk = s.in_channels * s.kernel_h * s.kernel_w;
  int64_t in_numel = s.in_channels * s.height * s.width;
  std::vector<double> dx(static_cast<size_t>(s.batch * in_numel), 0.0);
  std::vector<double> dw(static_cast<size_t>(s.out_channels * ckk), 0.0);
  std::vector<double> db(with_bias ? static_cast<size_t>(s.out_channels) : 0,
                         0.0);
  ConvGrads g;
  g.dx_scale.assign(dx.size(), 0.0);
  g.dw_scale.assign(dw.size(), 0.0);
  g.db_scale.assign(db.size(), 0.0);
  for (int64_t img = 0; img < s.batch; ++img) {
    for (int64_t oc = 0; oc < s.out_channels; ++oc) {
      for (int64_t oy = 0; oy < s.out_h; ++oy) {
        for (int64_t ox = 0; ox < s.out_w; ++ox) {
          double g_out = dy[static_cast<size_t>(
              ((img * s.out_channels + oc) * s.out_h + oy) * s.out_w + ox)];
          if (with_bias) {
            db[static_cast<size_t>(oc)] += g_out;
            g.db_scale[static_cast<size_t>(oc)] += std::fabs(g_out);
          }
          for (int64_t ic = 0; ic < s.in_channels; ++ic) {
            for (int64_t ky = 0; ky < s.kernel_h; ++ky) {
              for (int64_t kx = 0; kx < s.kernel_w; ++kx) {
                int64_t iy = oy * s.stride - s.pad + ky;
                int64_t ix = ox * s.stride - s.pad + kx;
                if (iy < 0 || iy >= s.height || ix < 0 || ix >= s.width) {
                  continue;
                }
                size_t xi = static_cast<size_t>(
                    img * in_numel + (ic * s.height + iy) * s.width + ix);
                size_t wi = static_cast<size_t>(
                    oc * ckk + (ic * s.kernel_h + ky) * s.kernel_w + kx);
                dx[xi] += g_out * weight[wi];
                g.dx_scale[xi] += std::fabs(g_out * weight[wi]);
                dw[wi] += g_out * x[xi];
                g.dw_scale[wi] += std::fabs(g_out * x[xi]);
              }
            }
          }
        }
      }
    }
  }
  g.dx.assign(dx.begin(), dx.end());
  g.dw.assign(dw.begin(), dw.end());
  g.db.assign(db.begin(), db.end());
  return g;
}

/// One table call on fresh buffers (dx, dw, db zero-initialized).
ConvGrads RunBackward(const KernelTable& table, const std::vector<float>& x,
                      const std::vector<float>& weight,
                      const std::vector<float>& dy, const ConvShape& s,
                      bool with_bias) {
  ConvGrads g;
  g.dx.assign(x.size(), 0.0f);
  g.dw.assign(weight.size(), 0.0f);
  g.db.assign(with_bias ? static_cast<size_t>(s.out_channels) : 0, 0.0f);
  table.conv2d_backward(x.data(), weight.data(), dy.data(), g.dx.data(),
                        g.dw.data(), with_bias ? g.db.data() : nullptr, s);
  return g;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// |got - want| within a float-accumulation budget relative to `scale`.
void ExpectNearScaled(const std::vector<float>& got,
                      const std::vector<float>& want,
                      const std::vector<double>& scale, const char* what,
                      const char* path) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    double tol = 2e-5 * scale[i] + 1e-5;
    ASSERT_NEAR(got[i], want[i], tol)
        << what << " on " << path << " flat index " << i;
  }
}

/// (c_in, hw, c_out, k, stride, pad, batch, with_bias). The ResNet-8 conv
/// shapes of the paper pipeline (width 8, 16x16 images) plus bias-on
/// variants; batches of 20+ so every chunk of the fixed 8-chunk split
/// holds several images.
class SimdConvBackwardTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, int, int, bool>> {
 protected:
  void TearDown() override { runtime::SetThreadCount(1); }

  ConvShape Shape() const {
    const auto& p = GetParam();
    return MakeShape(std::get<6>(p), std::get<0>(p), std::get<1>(p),
                     std::get<1>(p), std::get<2>(p), std::get<3>(p),
                     std::get<4>(p), std::get<5>(p));
  }
  bool WithBias() const { return std::get<7>(GetParam()); }
};

TEST_P(SimdConvBackwardTest, MatchesDirectReferenceAndPathsAgree) {
  ConvShape s = Shape();
  std::vector<float> x =
      RandomVec(s.batch * s.in_channels * s.height * s.width, 41);
  std::vector<float> weight = RandomVec(
      s.out_channels * s.in_channels * s.kernel_h * s.kernel_w, 42);
  std::vector<float> dy =
      RandomVec(s.batch * s.out_channels * s.out_h * s.out_w, 43);
  ConvGrads ref = DirectConvBackward(x, weight, dy, s, WithBias());

  std::vector<ConvGrads> per_path;
  for (Isa isa : RunnableIsas()) {
    ConvGrads got = RunBackward(Table(isa), x, weight, dy, s, WithBias());
    ExpectNearScaled(got.dx, ref.dx, ref.dx_scale, "dx", IsaName(isa));
    ExpectNearScaled(got.dw, ref.dw, ref.dw_scale, "dw", IsaName(isa));
    ExpectNearScaled(got.db, ref.db, ref.db_scale, "db", IsaName(isa));
    per_path.push_back(std::move(got));
  }
  // Scalar vs AVX2 (FMA rounds once where mul+add rounds twice): the same
  // budget, measured between the paths instead of against the reference.
  for (size_t p = 1; p < per_path.size(); ++p) {
    ExpectNearScaled(per_path[p].dx, per_path[0].dx, ref.dx_scale,
                     "dx scalar-vs-avx2", "both");
    ExpectNearScaled(per_path[p].dw, per_path[0].dw, ref.dw_scale,
                     "dw scalar-vs-avx2", "both");
    ExpectNearScaled(per_path[p].db, per_path[0].db, ref.db_scale,
                     "db scalar-vs-avx2", "both");
  }
}

TEST_P(SimdConvBackwardTest, EachPathIsBitwiseThreadCountInvariant) {
  ConvShape s = Shape();
  std::vector<float> x =
      RandomVec(s.batch * s.in_channels * s.height * s.width, 51);
  std::vector<float> weight = RandomVec(
      s.out_channels * s.in_channels * s.kernel_h * s.kernel_w, 52);
  std::vector<float> dy =
      RandomVec(s.batch * s.out_channels * s.out_h * s.out_w, 53);
  for (Isa isa : RunnableIsas()) {
    runtime::SetThreadCount(1);
    ConvGrads one = RunBackward(Table(isa), x, weight, dy, s, WithBias());
    runtime::SetThreadCount(4);
    ConvGrads four = RunBackward(Table(isa), x, weight, dy, s, WithBias());
    EXPECT_TRUE(BitwiseEqual(one.dx, four.dx)) << "dx on " << IsaName(isa);
    EXPECT_TRUE(BitwiseEqual(one.dw, four.dw)) << "dw on " << IsaName(isa);
    EXPECT_TRUE(BitwiseEqual(one.db, four.db)) << "db on " << IsaName(isa);
  }
}

TEST_P(SimdConvBackwardTest, InputGradientIsBitwiseBatchCompositionInvariant) {
  // dx of an image depends only on that image's dY and W, so it must not
  // change a bit when the image is processed alone or in a different
  // chunk (dW/db do depend on the chunking; that is the tile reduction).
  ConvShape s = Shape();
  ConvShape single = s;
  single.batch = 1;
  int64_t in_numel = s.in_channels * s.height * s.width;
  int64_t out_numel = s.out_channels * s.out_h * s.out_w;
  std::vector<float> x = RandomVec(s.batch * in_numel, 61);
  std::vector<float> weight = RandomVec(
      s.out_channels * s.in_channels * s.kernel_h * s.kernel_w, 62);
  std::vector<float> dy = RandomVec(s.batch * out_numel, 63);
  runtime::SetThreadCount(4);
  for (Isa isa : RunnableIsas()) {
    const KernelTable& table = Table(isa);
    ConvGrads full = RunBackward(table, x, weight, dy, s, WithBias());
    for (int64_t img = 0; img < s.batch; ++img) {
      std::vector<float> xi(x.begin() + img * in_numel,
                            x.begin() + (img + 1) * in_numel);
      std::vector<float> dyi(dy.begin() + img * out_numel,
                             dy.begin() + (img + 1) * out_numel);
      ConvGrads one = RunBackward(table, xi, weight, dyi, single, WithBias());
      EXPECT_EQ(std::memcmp(one.dx.data(), full.dx.data() + img * in_numel,
                            static_cast<size_t>(in_numel) * sizeof(float)),
                0)
          << "image " << img << " on " << IsaName(isa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ResNet8Shapes, SimdConvBackwardTest,
    ::testing::Values(
        // stem 3->8 and stage-1 8->8 at 16x16.
        std::make_tuple(3, 16, 8, 3, 1, 1, 20, false),
        std::make_tuple(8, 16, 8, 3, 1, 1, 24, false),
        // stage 2: stride-2 3x3, 16->16 at 8x8, 1x1 pad-0 projection.
        std::make_tuple(8, 16, 16, 3, 2, 1, 20, false),
        std::make_tuple(16, 8, 16, 3, 1, 1, 24, false),
        std::make_tuple(8, 16, 16, 1, 2, 0, 20, false),
        // stage 3: stride-2 3x3, 32->32 at 4x4, 1x1 pad-0 projection.
        std::make_tuple(16, 8, 32, 3, 2, 1, 20, false),
        std::make_tuple(32, 4, 32, 3, 1, 1, 24, false),
        std::make_tuple(16, 8, 32, 1, 2, 0, 21, false),
        // bias on: 3x3 and 1x1, odd extents, stride 2.
        std::make_tuple(8, 8, 16, 3, 1, 1, 20, true),
        std::make_tuple(4, 9, 8, 1, 1, 0, 22, true),
        std::make_tuple(6, 9, 8, 3, 2, 1, 23, true)));

TEST(SimdConvBackwardNanTest, ZeroOperandsStillPropagateInfAsNan) {
  // No zero-operand skip anywhere: 0 * Inf must reach the gradients as NaN.
  ConvShape s = MakeShape(/*batch=*/20, 4, 6, 6, 5, 3, 1, 1);
  int64_t in_numel = s.in_channels * s.height * s.width;
  int64_t ckk = s.in_channels * 9;
  for (Isa isa : RunnableIsas()) {
    const KernelTable& table = Table(isa);
    {
      // dx = col2im(W^T dY) with W == 0 and one Inf in dY: every dcol
      // entry of that output position is 0 * Inf = NaN, so the input
      // pixel (c, 0, 0) of image 0, which that position reads for every
      // c, must come back NaN.
      std::vector<float> x = RandomVec(s.batch * in_numel, 71);
      std::vector<float> weight(static_cast<size_t>(s.out_channels * ckk),
                                0.0f);
      std::vector<float> dy(
          static_cast<size_t>(s.batch * s.out_channels * s.out_h * s.out_w),
          0.0f);
      dy[0] = INFINITY;
      ConvGrads g = RunBackward(table, x, weight, dy, s, /*with_bias=*/false);
      for (int64_t c = 0; c < s.in_channels; ++c) {
        EXPECT_TRUE(std::isnan(g.dx[static_cast<size_t>(c * 36)]))
            << "dx channel " << c << " on " << IsaName(isa);
      }
    }
    {
      // dW = sum dY * im2col(x) with dY == 0 and one Inf pixel in x: the
      // weight taps that read the pixel see 0 * Inf = NaN, for every
      // output channel.
      std::vector<float> x = RandomVec(s.batch * in_numel, 72);
      x[0] = INFINITY;
      std::vector<float> weight = RandomVec(s.out_channels * ckk, 73);
      std::vector<float> dy(
          static_cast<size_t>(s.batch * s.out_channels * s.out_h * s.out_w),
          0.0f);
      ConvGrads g = RunBackward(table, x, weight, dy, s, /*with_bias=*/false);
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        // Tap (c=0, ky=1, kx=1) reads pixel (0, 0) at output (0, 0).
        EXPECT_TRUE(std::isnan(g.dw[static_cast<size_t>(oc * ckk + 4)]))
            << "dw row " << oc << " on " << IsaName(isa);
      }
    }
  }
}

}  // namespace
}  // namespace eos::simd
