#include "tensor/im2col.h"

#include <algorithm>

namespace eos {
namespace {

/// The output columns [lo, hi) whose kernel tap at column offset `j` lands
/// inside the image row, i.e. 0 <= ox*stride - pad + j < width. Computed
/// once per tap so the per-element loops carry no bounds test.
struct ValidColumns {
  int64_t lo;
  int64_t hi;
};

ValidColumns TapColumns(int64_t width, int64_t out_w, int64_t j,
                        int64_t stride, int64_t pad) {
  int64_t lo = pad > j ? (pad - j + stride - 1) / stride : 0;
  int64_t last = width - 1 + pad - j;  // largest valid ox*stride
  int64_t hi = last < 0 ? 0 : std::min(out_w, last / stride + 1);
  lo = std::min(lo, out_w);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kh, int64_t kw, int64_t stride, int64_t pad,
            float* col) {
  int64_t out_h = ConvOutSize(height, kh, stride, pad);
  int64_t out_w = ConvOutSize(width, kw, stride, pad);
  int64_t out_plane = out_h * out_w;
  // Row r of the column matrix corresponds to (c, i, j) within the kernel.
  for (int64_t c = 0; c < channels; ++c) {
    const float* plane = image + c * height * width;
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        float* row = col + ((c * kh + i) * kw + j) * out_plane;
        ValidColumns cols = TapColumns(width, out_w, j, stride, pad);
        for (int64_t oy = 0; oy < out_h; ++oy) {
          int64_t iy = oy * stride - pad + i;
          float* dst = row + oy * out_w;
          if (iy < 0 || iy >= height) {
            for (int64_t ox = 0; ox < out_w; ++ox) dst[ox] = 0.0f;
            continue;
          }
          // src[ox * stride + shift] is the tap's pixel for column ox.
          const float* src = plane + iy * width;
          int64_t shift = j - pad;
          int64_t ox = 0;
          for (; ox < cols.lo; ++ox) dst[ox] = 0.0f;
          if (stride == 1) {
            for (; ox < cols.hi; ++ox) dst[ox] = src[ox + shift];
          } else {
            for (; ox < cols.hi; ++ox) dst[ox] = src[ox * stride + shift];
          }
          for (; ox < out_w; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad,
            float* image_grad) {
  int64_t out_h = ConvOutSize(height, kh, stride, pad);
  int64_t out_w = ConvOutSize(width, kw, stride, pad);
  int64_t out_plane = out_h * out_w;
  for (int64_t c = 0; c < channels; ++c) {
    float* plane = image_grad + c * height * width;
    for (int64_t i = 0; i < kh; ++i) {
      for (int64_t j = 0; j < kw; ++j) {
        const float* row = col + ((c * kh + i) * kw + j) * out_plane;
        // Each destination still receives its adds in the same
        // (c, i, j, oy, ox) order as a per-element bounds-tested loop.
        ValidColumns cols = TapColumns(width, out_w, j, stride, pad);
        for (int64_t oy = 0; oy < out_h; ++oy) {
          int64_t iy = oy * stride - pad + i;
          if (iy < 0 || iy >= height) continue;
          float* dst = plane + iy * width;
          const float* src = row + oy * out_w;
          int64_t shift = j - pad;
          if (stride == 1) {
            for (int64_t ox = cols.lo; ox < cols.hi; ++ox) {
              dst[ox + shift] += src[ox];
            }
          } else {
            for (int64_t ox = cols.lo; ox < cols.hi; ++ox) {
              dst[ox * stride + shift] += src[ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace eos
