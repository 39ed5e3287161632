#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/parallel_for.h"
#include "tensor/im2col.h"
#include "tensor/simd/kernels.h"
#include "tensor/simd/workspace.h"

/// \file
/// The scalar kernel path. The GEMM bodies are the historical cache-blocked
/// loops moved verbatim from tensor/matmul.cc, and the epilogues are the
/// historical loops from nn/linear.cc, nn/relu.cc, nn/batchnorm.cc, and
/// tensor/tensor_ops.cc, so `EOS_SIMD=scalar` reproduces the pre-SIMD tree
/// bitwise — except conv backward, whose products are now NN GEMMs. The
/// shared conv drivers (both paths) live here too. This file must be
/// compiled with the default (portable) flags —
/// no -mavx2/-mfma — or the compiler could contract mul+add into FMA and
/// silently change the scalar path's results.

namespace eos::simd::internal {
namespace {

// Output rows per ParallelFor chunk. Rows are fully independent, so the
// row-banded kernels are bitwise-identical to the serial loops at any
// thread count. Note: no `av == 0` skip anywhere — it would suppress IEEE
// NaN/Inf propagation from the other operand (0 * Inf must yield NaN).
constexpr int64_t kRowGrain = 8;

// GemmTN's k-partitioned path: fixed chunking derived from k alone, so the
// tile count (and the ordered reduction) never depends on the thread count.
constexpr int64_t kMinKGrain = 128;
constexpr int64_t kMaxKChunks = 8;
// Below this m the row-banded GemmTN has too few bands to scale and the
// k dimension carries the parallelism instead.
constexpr int64_t kSmallM = 16;

// Conv backward splits the batch into at most this many chunks, each with
// its own dW/db tile. A constant (not the thread count) bounds tile memory
// and fixes the chunk-ordered tile reduction.
constexpr int64_t kMaxBatchChunks = 8;

// Rounds a float count up to a whole 64-byte line, so buffers carved out of
// one workspace lane each start cache-line aligned.
int64_t PadFloats(int64_t count) { return (count + 15) / 16 * 16; }

// dst[cols, rows] = src[rows, cols]^T.
void Transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* srow = src + r * cols;
    for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = srow[c];
  }
}

}  // namespace

// Plain ikj kernel per output row band: streams rows of b while accumulating
// a row of out. The inner loop vectorizes under -O3 without intrinsics.
void GemmNNScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, kRowGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (int64_t p = 0; p < k; ++p) {
        float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

// out[m,n] += a[k,m]^T b[k,n].
//
// Two deterministic parallel decompositions:
//  * m >= kSmallM (conv input-gradient: m = C*kh*kw): row bands. Each chunk
//    owns rows [i0, i1) and accumulates them in the same p-ascending order
//    as the serial kernel, so the result is bitwise serial-identical.
//  * small m, deep k (classifier-head weight gradients: m = #classes,
//    k = batch): partition k into at most kMaxKChunks chunks, give each its
//    own zero-initialized [m, n] tile, and reduce the tiles into `out` in
//    ascending chunk order after the join. Chunking depends only on k, so
//    the summation tree — and therefore the float result — is identical at
//    every thread count.
void GemmTNScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) {
  if (m >= kSmallM || k < 2 * kMinKGrain) {
    runtime::ParallelFor(0, m, kRowGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t p = 0; p < k; ++p) {
        const float* arow = a + p * m;
        const float* brow = b + p * n;
        for (int64_t i = i0; i < i1; ++i) {
          float av = arow[i];
          float* orow = out + i * n;
          for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
    });
    return;
  }
  int64_t grain = std::max(kMinKGrain, (k + kMaxKChunks - 1) / kMaxKChunks);
  int64_t chunks = runtime::NumChunks(k, grain);
  std::vector<float> tiles(static_cast<size_t>(chunks * m * n), 0.0f);
  runtime::ParallelForChunks(chunks, [&](int64_t c) {
    int64_t p0 = c * grain;
    int64_t p1 = std::min(k, p0 + grain);
    float* tile = tiles.data() + c * m * n;
    for (int64_t p = p0; p < p1; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        float av = arow[i];
        float* trow = tile + i * n;
        for (int64_t j = 0; j < n; ++j) trow[j] += av * brow[j];
      }
    }
  });
  for (int64_t c = 0; c < chunks; ++c) {
    const float* tile = tiles.data() + c * m * n;
    for (int64_t i = 0; i < m * n; ++i) out[i] += tile[i];
  }
}

// out[m,n] += a[m,k] b[n,k]^T: pure dot products per output row band, both
// operands row-major.
void GemmNTScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, kRowGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        orow[j] += acc;
      }
    }
  });
}

void ConvBiasScalar(float* y, const float* bias, int64_t channels,
                    int64_t plane) {
  for (int64_t c = 0; c < channels; ++c) {
    float* dst = y + c * plane;
    float bc = bias[c];
    for (int64_t i = 0; i < plane; ++i) dst[i] += bc;
  }
}

void Conv2dForwardDriver(const float* x, const float* weight,
                         const float* bias, float* y, const ConvShape& shape,
                         void (*gemm)(const float*, const float*, float*,
                                      int64_t, int64_t, int64_t),
                         void (*conv_bias)(float*, const float*, int64_t,
                                           int64_t)) {
  int64_t ckk = shape.in_channels * shape.kernel_h * shape.kernel_w;
  int64_t plane = shape.out_h * shape.out_w;
  int64_t in_stride = shape.in_channels * shape.height * shape.width;
  int64_t out_stride = shape.out_channels * plane;
  // Resolve the workspace on the calling thread: pool workers never see the
  // caller's thread_local ScopedBind, so the pointer is captured here.
  Workspace* ws = Workspace::Current();
  // Batch-parallel: every image owns a disjoint output slice, so the result
  // is bitwise-identical at any thread count. The im2col scratch is a
  // chunk-held workspace lane; the GEMM inside detects the enclosing
  // parallel region and runs serially.
  runtime::ParallelFor(0, shape.batch, /*grain=*/1,
                       [&](int64_t img0, int64_t img1) {
    LaneGuard guard = ws->AcquireLane(ckk * plane);
    float* col = guard.lane().Floats(ckk * plane);
    for (int64_t img = img0; img < img1; ++img) {
      Im2Col(x + img * in_stride, shape.in_channels, shape.height,
             shape.width, shape.kernel_h, shape.kernel_w, shape.stride,
             shape.pad, col);
      // y_img[O, plane] += W[O, ckk] * col[ckk, plane]; y is zero-initialized.
      gemm(weight, col, y + img * out_stride, shape.out_channels, ckk, plane);
      if (bias != nullptr) {
        conv_bias(y + img * out_stride, bias, shape.out_channels, plane);
      }
    }
  });
}

void Conv2dForwardScalar(const float* x, const float* weight,
                         const float* bias, float* y, const ConvShape& shape) {
  Conv2dForwardDriver(x, weight, bias, y, shape, GemmNNScalar,
                      ConvBiasScalar);
}

void Conv2dBackwardDriver(const float* x, const float* weight,
                          const float* dy, float* dx, float* dw, float* db,
                          const ConvShape& shape,
                          void (*gemm)(const float*, const float*, float*,
                                       int64_t, int64_t, int64_t)) {
  int64_t out_ch = shape.out_channels;
  int64_t ckk = shape.in_channels * shape.kernel_h * shape.kernel_w;
  int64_t plane = shape.out_h * shape.out_w;
  int64_t in_stride = shape.in_channels * shape.height * shape.width;
  int64_t out_stride = out_ch * plane;
  int64_t wsize = out_ch * ckk;
  // dW/db sum over the whole batch: each chunk fills its own zeroed tile
  // ([ckk, O] dW^T, then [O] db) and the tiles are folded in ascending
  // chunk order after the join. The chunk cap is a constant, so the
  // summation tree never depends on the thread count.
  int64_t grain = std::max<int64_t>(
      1, (shape.batch + kMaxBatchChunks - 1) / kMaxBatchChunks);
  int64_t chunks = runtime::NumChunks(shape.batch, grain);
  int64_t tile_stride = PadFloats(wsize + (db != nullptr ? out_ch : 0));
  int64_t wt_size = PadFloats(wsize);
  int64_t col_size = PadFloats(ckk * plane);

  // Resolve the workspace before the parallel region (see the forward).
  Workspace* ws = Workspace::Current();
  int64_t shared_size = wt_size + chunks * tile_stride;
  LaneGuard shared = ws->AcquireLane(shared_size);
  float* wt = shared.lane().Floats(shared_size);
  float* tiles = wt + wt_size;
  Transpose(weight, out_ch, ckk, wt);
  std::fill(tiles, tiles + chunks * tile_stride, 0.0f);

  runtime::ParallelForChunks(chunks, [&](int64_t chunk) {
    LaneGuard guard = ws->AcquireLane(col_size + plane * out_ch);
    float* col = guard.lane().Floats(col_size + plane * out_ch);
    float* dyt = col + col_size;
    float* dwt_tile = tiles + chunk * tile_stride;
    float* db_tile = db != nullptr ? dwt_tile + wsize : nullptr;
    int64_t img1 = std::min(shape.batch, (chunk + 1) * grain);
    for (int64_t img = chunk * grain; img < img1; ++img) {
      const float* dy_img = dy + img * out_stride;
      Im2Col(x + img * in_stride, shape.in_channels, shape.height,
             shape.width, shape.kernel_h, shape.kernel_w, shape.stride,
             shape.pad, col);
      Transpose(dy_img, out_ch, plane, dyt);
      gemm(col, dyt, dwt_tile, ckk, plane, out_ch);
      // col is spent: reuse its storage for dcol.
      float* dcol = col;
      std::fill(dcol, dcol + ckk * plane, 0.0f);
      gemm(wt, dy_img, dcol, ckk, out_ch, plane);
      Col2Im(dcol, shape.in_channels, shape.height, shape.width,
             shape.kernel_h, shape.kernel_w, shape.stride, shape.pad,
             dx + img * in_stride);
      if (db_tile != nullptr) {
        for (int64_t c = 0; c < out_ch; ++c) {
          const float* src = dy_img + c * plane;
          float acc = 0.0f;
          for (int64_t i = 0; i < plane; ++i) acc += src[i];
          db_tile[c] += acc;
        }
      }
    }
  });

  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    const float* tile = tiles + chunk * tile_stride;
    for (int64_t o = 0; o < out_ch; ++o) {
      float* dw_row = dw + o * ckk;
      for (int64_t r = 0; r < ckk; ++r) dw_row[r] += tile[r * out_ch + o];
    }
    if (db != nullptr) {
      for (int64_t o = 0; o < out_ch; ++o) db[o] += tile[wsize + o];
    }
  }
}

void Conv2dBackwardScalar(const float* x, const float* weight,
                          const float* dy, float* dx, float* dw, float* db,
                          const ConvShape& shape) {
  Conv2dBackwardDriver(x, weight, dy, dx, dw, db, shape, GemmNNScalar);
}

void AddBiasRowsScalar(float* x, const float* bias, int64_t rows, int64_t n) {
  for (int64_t i = 0; i < rows; ++i) {
    float* row = x + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void ReluScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void BnEvalScalar(const float* x, float* y, const float* mean,
                  const float* var, const float* gamma, const float* beta,
                  float eps, int64_t images, int64_t channels,
                  int64_t plane) {
  for (int64_t c = 0; c < channels; ++c) {
    float inv = 1.0f / std::sqrt(var[c] + eps);
    float g = gamma[c];
    float b = beta[c];
    float m = mean[c];
    for (int64_t img = 0; img < images; ++img) {
      const float* src = x + (img * channels + c) * plane;
      float* dst = y + (img * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        dst[i] = g * ((src[i] - m) * inv) + b;
      }
    }
  }
}

void SoftmaxRowsScalar(const float* x, float* y, int64_t rows, int64_t n) {
  runtime::ParallelFor(0, rows, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = x + i * n;
      float* orow = y + i * n;
      float mx = row[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < n; ++j) orow[j] *= inv;
    }
  });
}

}  // namespace eos::simd::internal
