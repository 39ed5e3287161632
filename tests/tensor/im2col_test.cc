#include "tensor/im2col.h"

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace eos {
namespace {

// Direct convolution of one image, reference for the im2col+GEMM path.
std::vector<float> DirectConv(const std::vector<float>& image,
                              const std::vector<float>& weight, int64_t c_in,
                              int64_t h, int64_t w, int64_t c_out, int64_t k,
                              int64_t stride, int64_t pad) {
  int64_t oh = ConvOutSize(h, k, stride, pad);
  int64_t ow = ConvOutSize(w, k, stride, pad);
  std::vector<float> out(static_cast<size_t>(c_out * oh * ow), 0.0f);
  for (int64_t oc = 0; oc < c_out; ++oc) {
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (int64_t ic = 0; ic < c_in; ++ic) {
          for (int64_t ky = 0; ky < k; ++ky) {
            for (int64_t kx = 0; kx < k; ++kx) {
              int64_t iy = oy * stride - pad + ky;
              int64_t ix = ox * stride - pad + kx;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              float pixel = image[static_cast<size_t>((ic * h + iy) * w + ix)];
              float wv = weight[static_cast<size_t>(
                  ((oc * c_in + ic) * k + ky) * k + kx)];
              acc += static_cast<double>(pixel) * wv;
            }
          }
        }
        out[static_cast<size_t>((oc * oh + oy) * ow + ox)] =
            static_cast<float>(acc);
      }
    }
  }
  return out;
}

class Im2ColConvTest : public ::testing::TestWithParam<
                           std::tuple<int, int, int, int, int, int>> {};

TEST_P(Im2ColConvTest, MatchesDirectConvolution) {
  auto [c_in, hw, c_out, k, stride, pad] = GetParam();
  int64_t h = hw;
  int64_t w = hw;
  Rng rng(c_in + hw + c_out + k + stride + pad);
  std::vector<float> image(static_cast<size_t>(c_in * h * w));
  for (auto& v : image) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> weight(static_cast<size_t>(c_out * c_in * k * k));
  for (auto& v : weight) v = rng.Uniform(-1.0f, 1.0f);

  int64_t oh = ConvOutSize(h, k, stride, pad);
  int64_t ow = ConvOutSize(w, k, stride, pad);
  ASSERT_GT(oh, 0);
  int64_t ckk = c_in * k * k;
  std::vector<float> col(static_cast<size_t>(ckk * oh * ow));
  Im2Col(image.data(), c_in, h, w, k, k, stride, pad, col.data());

  // GEMM: out[oc, p] = sum_r weight[oc, r] col[r, p].
  std::vector<float> out(static_cast<size_t>(c_out * oh * ow), 0.0f);
  for (int64_t oc = 0; oc < c_out; ++oc) {
    for (int64_t r = 0; r < ckk; ++r) {
      float wv = weight[static_cast<size_t>(oc * ckk + r)];
      for (int64_t p = 0; p < oh * ow; ++p) {
        out[static_cast<size_t>(oc * oh * ow + p)] +=
            wv * col[static_cast<size_t>(r * oh * ow + p)];
      }
    }
  }

  std::vector<float> expected =
      DirectConv(image, weight, c_in, h, w, c_out, k, stride, pad);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], expected[i], 1e-4f) << "flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Im2ColConvTest,
    ::testing::Values(std::make_tuple(1, 5, 1, 3, 1, 1),
                      std::make_tuple(3, 8, 4, 3, 1, 1),
                      std::make_tuple(2, 8, 3, 3, 2, 1),
                      std::make_tuple(3, 7, 2, 1, 1, 0),
                      std::make_tuple(2, 6, 2, 1, 2, 0),
                      std::make_tuple(1, 4, 1, 3, 1, 0)));

TEST(Col2ImTest, IsAdjointOfIm2Col) {
  // <Col2Im(g), x> must equal <g, Im2Col(x)> for random g, x — the defining
  // property of a correct backward pass.
  int64_t c = 2, h = 6, w = 6, k = 3, stride = 2, pad = 1;
  int64_t oh = ConvOutSize(h, k, stride, pad);
  int64_t ow = ConvOutSize(w, k, stride, pad);
  int64_t col_size = c * k * k * oh * ow;
  Rng rng(99);
  std::vector<float> x(static_cast<size_t>(c * h * w));
  for (auto& v : x) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> g(static_cast<size_t>(col_size));
  for (auto& v : g) v = rng.Uniform(-1.0f, 1.0f);

  std::vector<float> col(static_cast<size_t>(col_size));
  Im2Col(x.data(), c, h, w, k, k, stride, pad, col.data());
  std::vector<float> back(static_cast<size_t>(c * h * w), 0.0f);
  Col2Im(g.data(), c, h, w, k, k, stride, pad, back.data());

  double lhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) lhs += double(back[i]) * x[i];
  double rhs = 0.0;
  for (size_t i = 0; i < g.size(); ++i) rhs += double(g[i]) * col[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  // A 1x1 image with 3x3 kernel and pad 1: all but the center entry zero.
  std::vector<float> image = {5.0f};
  std::vector<float> col(9, -1.0f);
  Im2Col(image.data(), 1, 1, 1, 3, 3, 1, 1, col.data());
  for (int i = 0; i < 9; ++i) {
    if (i == 4) {
      EXPECT_EQ(col[static_cast<size_t>(i)], 5.0f);
    } else {
      EXPECT_EQ(col[static_cast<size_t>(i)], 0.0f);
    }
  }
}

// The straightforward per-element bounds-tested loops. Im2Col/Col2Im hoist
// the bounds out of the inner loop, which must not change a single bit:
// the same values are copied, and each image-gradient element receives its
// adds in the same order.
void ReferenceIm2Col(const float* image, int64_t channels, int64_t height,
                     int64_t width, int64_t kh, int64_t kw, int64_t stride,
                     int64_t pad, float* col) {
  int64_t out_h = ConvOutSize(height, kh, stride, pad);
  int64_t out_w = ConvOutSize(width, kw, stride, pad);
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        float* row = col + ((c * kh + i) * kw + j) * out_h * out_w;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          for (int64_t ox = 0; ox < out_w; ++ox) {
            int64_t iy = oy * stride - pad + i;
            int64_t ix = ox * stride - pad + j;
            bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
            row[oy * out_w + ox] =
                inside ? image[(c * height + iy) * width + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void ReferenceCol2Im(const float* col, int64_t channels, int64_t height,
                     int64_t width, int64_t kh, int64_t kw, int64_t stride,
                     int64_t pad, float* image_grad) {
  int64_t out_h = ConvOutSize(height, kh, stride, pad);
  int64_t out_w = ConvOutSize(width, kw, stride, pad);
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        const float* row = col + ((c * kh + i) * kw + j) * out_h * out_w;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          for (int64_t ox = 0; ox < out_w; ++ox) {
            int64_t iy = oy * stride - pad + i;
            int64_t ix = ox * stride - pad + j;
            if (iy >= 0 && iy < height && ix >= 0 && ix < width) {
              image_grad[(c * height + iy) * width + ix] +=
                  row[oy * out_w + ox];
            }
          }
        }
      }
    }
  }
}

TEST(Im2ColTest, HoistedBoundsMatchPerElementLoopsBitwise) {
  // Grid over kernel, stride, pad and (non-square, tiny) extents, including
  // kernels wider than the unpadded image and strides that skip columns.
  const int64_t channels = 3;
  int configs = 0;
  for (int64_t k : {1, 2, 3, 5}) {
    for (int64_t stride : {1, 2, 3}) {
      for (int64_t pad : {0, 1, 2}) {
        for (int64_t h : {1, 3, 4, 8}) {
          for (int64_t w : {1, 2, 5, 7, 16}) {
            int64_t oh = ConvOutSize(h, k, stride, pad);
            int64_t ow = ConvOutSize(w, k, stride, pad);
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            ASSERT_GT(oh, 0);
            ASSERT_GT(ow, 0);
            ++configs;
            Rng rng(static_cast<uint64_t>(k * 1000 + stride * 100 +
                                          pad * 10 + h * w));
            std::vector<float> image(static_cast<size_t>(channels * h * w));
            for (auto& v : image) v = rng.Uniform(-1.0f, 1.0f);
            image[0] = -0.0f;  // copied, never re-materialized as +0
            if (image.size() > 1) image[1] = NAN;
            size_t col_size = static_cast<size_t>(channels * k * k * oh * ow);
            std::vector<float> got(col_size, 7.0f);
            std::vector<float> want(col_size, -7.0f);
            Im2Col(image.data(), channels, h, w, k, k, stride, pad,
                   got.data());
            ReferenceIm2Col(image.data(), channels, h, w, k, k, stride, pad,
                            want.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  col_size * sizeof(float)),
                      0)
                << "im2col k=" << k << " stride=" << stride << " pad=" << pad
                << " h=" << h << " w=" << w;

            std::vector<float> grad(col_size);
            for (auto& v : grad) v = rng.Uniform(-1.0f, 1.0f);
            // Pre-filled accumulators: Col2Im adds onto existing values.
            std::vector<float> got_img(image.size());
            for (auto& v : got_img) v = rng.Uniform(-1.0f, 1.0f);
            std::vector<float> want_img = got_img;
            Col2Im(grad.data(), channels, h, w, k, k, stride, pad,
                   got_img.data());
            ReferenceCol2Im(grad.data(), channels, h, w, k, k, stride, pad,
                            want_img.data());
            ASSERT_EQ(std::memcmp(got_img.data(), want_img.data(),
                                  got_img.size() * sizeof(float)),
                      0)
                << "col2im k=" << k << " stride=" << stride << " pad=" << pad
                << " h=" << h << " w=" << w;
          }
        }
      }
    }
  }
  EXPECT_GT(configs, 300);
}

TEST(ConvOutSizeTest, StandardCases) {
  EXPECT_EQ(ConvOutSize(32, 3, 1, 1), 32);
  EXPECT_EQ(ConvOutSize(32, 3, 2, 1), 16);
  EXPECT_EQ(ConvOutSize(32, 1, 1, 0), 32);
  EXPECT_EQ(ConvOutSize(5, 3, 1, 0), 3);
}

}  // namespace
}  // namespace eos
