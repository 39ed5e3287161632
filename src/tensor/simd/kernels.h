#ifndef EOS_TENSOR_SIMD_KERNELS_H_
#define EOS_TENSOR_SIMD_KERNELS_H_

#include <cstdint>

#include "tensor/simd/dispatch.h"

/// \file
/// Internal per-ISA kernel entry points wired into the dispatch tables in
/// dispatch.cc. Nothing outside src/tensor/simd/ should include this header
/// — callers go through `simd::Active()` / `simd::Table(isa)`.
///
/// The *Scalar functions are the historical cache-blocked loops moved here
/// verbatim from tensor/matmul.cc, nn/conv2d.cc, nn/linear.cc, nn/relu.cc,
/// nn/batchnorm.cc, and tensor/tensor_ops.cc, so the scalar path stays
/// bitwise-identical to the pre-SIMD tree. The one exception is conv
/// backward, whose NT/TN products became NN products (Conv2dBackwardDriver).
///
/// The *Avx2 functions live in kernels_avx2.cc, the only translation unit
/// built with -mavx2 -mfma; they must never be called without a prior
/// CpuSupportsAvx2() check (dispatch.cc guarantees this).

namespace eos::simd::internal {

void GemmNNScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n);
void GemmTNScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n);
void GemmNTScalar(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n);
void Conv2dForwardScalar(const float* x, const float* weight,
                         const float* bias, float* y, const ConvShape& shape);
void Conv2dBackwardScalar(const float* x, const float* weight,
                          const float* dy, float* dx, float* dw, float* db,
                          const ConvShape& shape);
void AddBiasRowsScalar(float* x, const float* bias, int64_t rows, int64_t n);
void ReluScalar(const float* x, float* y, int64_t n);
void BnEvalScalar(const float* x, float* y, const float* mean,
                  const float* var, const float* gamma, const float* beta,
                  float eps, int64_t images, int64_t channels, int64_t plane);
void SoftmaxRowsScalar(const float* x, float* y, int64_t rows, int64_t n);
/// y[c, 0..plane) += bias[c] over one [channels, plane] output image.
void ConvBiasScalar(float* y, const float* bias, int64_t channels,
                    int64_t plane);

void GemmNNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n);
void GemmTNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n);
void GemmNTAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n);
void Conv2dForwardAvx2(const float* x, const float* weight, const float* bias,
                       float* y, const ConvShape& shape);
void Conv2dBackwardAvx2(const float* x, const float* weight, const float* dy,
                        float* dx, float* dw, float* db,
                        const ConvShape& shape);
void AddBiasRowsAvx2(float* x, const float* bias, int64_t rows, int64_t n);
void ReluAvx2(const float* x, float* y, int64_t n);
void BnEvalAvx2(const float* x, float* y, const float* mean,
                const float* var, const float* gamma, const float* beta,
                float eps, int64_t images, int64_t channels, int64_t plane);
void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t n);
void ConvBiasAvx2(float* y, const float* bias, int64_t channels,
                  int64_t plane);

/// Shared conv-forward driver: batch-parallel im2col + per-image GEMM with
/// fused bias, using Workspace lane scratch for the column buffer. `gemm`
/// and `conv_bias` (adds bias[c] across each [channels, plane] output
/// image; pure adds, bitwise-identical across paths) select the
/// ISA-specific inner kernels so both paths share one data-movement
/// skeleton. The Workspace is resolved before the parallel region so pool
/// threads see the caller's binding.
void Conv2dForwardDriver(const float* x, const float* weight,
                         const float* bias, float* y, const ConvShape& shape,
                         void (*gemm)(const float*, const float*, float*,
                                      int64_t, int64_t, int64_t),
                         void (*conv_bias)(float*, const float*, int64_t,
                                           int64_t));

/// Shared conv-backward driver. The batch splits into at most
/// kMaxBatchChunks fixed chunks; per image, both products run on the
/// path's `gemm` (NN):
///   dW^T[ckk, O] += col[ckk, P] * dY^T[P, O]  (into the chunk's tile),
///   dcol[ckk, P]  = W^T[ckk, O] * dY[O, P],   then col2im into dx.
/// W^T is transposed once per call and dY^T once per image. The dW/db
/// tiles are folded into dw/db in ascending chunk order after the join.
/// The tiles and W^T live in one lane held by the calling thread; col
/// (reused as dcol once dW is done) and dY^T in one lane per running chunk.
void Conv2dBackwardDriver(const float* x, const float* weight,
                          const float* dy, float* dx, float* dw, float* db,
                          const ConvShape& shape,
                          void (*gemm)(const float*, const float*, float*,
                                       int64_t, int64_t, int64_t));

}  // namespace eos::simd::internal

#endif  // EOS_TENSOR_SIMD_KERNELS_H_
