#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/parallel_for.h"
#include "tensor/simd/kernels.h"

/// \file
/// The AVX2/FMA kernel path. This is the only translation unit compiled
/// with -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot
/// implicitly contract the remaining scalar mul+add expressions into FMA —
/// every fused multiply-add in this file is spelled explicitly, as an
/// intrinsic or std::fma).
///
/// Determinism: each GEMM output element is produced by one k-ascending
/// FMA chain (vector lanes and scalar std::fma tails run the exact same
/// chain), so results are independent of the row/column blocking, the
/// thread count, and the batch size — they depend only on k, as the
/// bitwise contract requires. There is no zero-operand skip anywhere
/// (0 * Inf must still produce NaN), and tails use std::fma / masked
/// full-chain loops, never early exits.
///
/// The epilogues (bias add, ReLU, BatchNorm eval, softmax scale) use no
/// FMA and replicate the scalar operation order exactly, so they are
/// bitwise-identical to the scalar path — only the GEMM family diverges
/// across ISAs (FMA rounds once where mul+add rounds twice).

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace eos::simd::internal {
namespace {

constexpr int64_t kRowGrain = 8;

// GemmNN microkernel geometry: 6 output rows x 16 columns = 12 ymm
// accumulators, leaving registers for the broadcast and two b-row loads.
// Row chunks are a multiple of 6 so full blocks dominate.
constexpr int64_t kRowGrainNN = 24;

// Same shape thresholds as the scalar GemmTN (kernels_scalar.cc) so both
// paths pick the same decomposition for a given problem.
constexpr int64_t kMinKGrain = 128;
constexpr int64_t kMaxKChunks = 8;
constexpr int64_t kSmallM = 16;

// Fixed-pattern horizontal sum: ((lo+hi) pairwise) — the same reduction
// tree for every call site, part of the deterministic chain of GemmNT.
inline float Hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(s);
  __m128 sums = _mm_add_ps(s, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

// One ROWS x (8*COLS8) block of GemmNN: accumulators live in registers over
// the full k extent (no k-blocking), then a single add folds them into out.
// Each output element's FP chain is acc = fma(a, b, acc) over ascending p —
// identical to the scalar std::fma tail chain below.
template <int ROWS, int COLS8>
inline void MicroNN(const float* a, const float* b, float* out, int64_t k,
                    int64_t n, int64_t i, int64_t j) {
  __m256 acc[ROWS][COLS8];
  for (int r = 0; r < ROWS; ++r) {
    for (int c = 0; c < COLS8; ++c) acc[r][c] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * n + j;
    __m256 bv[COLS8];
    for (int c = 0; c < COLS8; ++c) bv[c] = _mm256_loadu_ps(bp + 8 * c);
    for (int r = 0; r < ROWS; ++r) {
      __m256 av = _mm256_broadcast_ss(a + (i + r) * k + p);
      for (int c = 0; c < COLS8; ++c) {
        acc[r][c] = _mm256_fmadd_ps(av, bv[c], acc[r][c]);
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float* orow = out + (i + r) * n + j;
    for (int c = 0; c < COLS8; ++c) {
      _mm256_storeu_ps(orow + 8 * c, _mm256_add_ps(
          _mm256_loadu_ps(orow + 8 * c), acc[r][c]));
    }
  }
}

// ROWS output rows across the full width n: 16-wide blocks, one 8-wide
// block, then a scalar std::fma tail running the same per-element chain.
template <int ROWS>
void RowBandNN(const float* a, const float* b, float* out, int64_t k,
               int64_t n, int64_t i) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) MicroNN<ROWS, 2>(a, b, out, k, n, i, j);
  if (j + 8 <= n) {
    MicroNN<ROWS, 1>(a, b, out, k, n, i, j);
    j += 8;
  }
  for (; j < n; ++j) {
    for (int r = 0; r < ROWS; ++r) {
      const float* arow = a + (i + r) * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc = std::fma(arow[p], b[p * n + j], acc);
      out[(i + r) * n + j] += acc;
    }
  }
}

}  // namespace

void GemmNNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, kRowGrainNN, [&](int64_t i0, int64_t i1) {
    int64_t i = i0;
    for (; i + 6 <= i1; i += 6) RowBandNN<6>(a, b, out, k, n, i);
    switch (i1 - i) {
      case 5:
        RowBandNN<5>(a, b, out, k, n, i);
        break;
      case 4:
        RowBandNN<4>(a, b, out, k, n, i);
        break;
      case 3:
        RowBandNN<3>(a, b, out, k, n, i);
        break;
      case 2:
        RowBandNN<2>(a, b, out, k, n, i);
        break;
      case 1:
        RowBandNN<1>(a, b, out, k, n, i);
        break;
      default:
        break;
    }
  });
}

// out[m,n] += a[k,m]^T b[k,n]: same two deterministic decompositions (and
// the same thresholds) as the scalar kernel; the unit-stride j loop carries
// the vectorization. Within this path every out element sees one
// p-ascending fma chain, so both branches stay thread-count-invariant.
void GemmTNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  if (m >= kSmallM || k < 2 * kMinKGrain) {
    runtime::ParallelFor(0, m, kRowGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t p = 0; p < k; ++p) {
        const float* arow = a + p * m;
        const float* brow = b + p * n;
        for (int64_t i = i0; i < i1; ++i) {
          float av = arow[i];
          __m256 av8 = _mm256_broadcast_ss(&arow[i]);
          float* orow = out + i * n;
          int64_t j = 0;
          for (; j + 8 <= n; j += 8) {
            __m256 o = _mm256_loadu_ps(orow + j);
            o = _mm256_fmadd_ps(av8, _mm256_loadu_ps(brow + j), o);
            _mm256_storeu_ps(orow + j, o);
          }
          for (; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
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
        __m256 av8 = _mm256_broadcast_ss(&arow[i]);
        float* trow = tile + i * n;
        int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256 t = _mm256_loadu_ps(trow + j);
          t = _mm256_fmadd_ps(av8, _mm256_loadu_ps(brow + j), t);
          _mm256_storeu_ps(trow + j, t);
        }
        for (; j < n; ++j) trow[j] = std::fma(av, brow[j], trow[j]);
      }
    }
  });
  // Ascending-chunk tile reduction, exactly like the scalar kernel (pure
  // adds, so vectorizing it keeps the same per-element sums).
  for (int64_t c = 0; c < chunks; ++c) {
    const float* tile = tiles.data() + c * m * n;
    int64_t total = m * n;
    int64_t i = 0;
    for (; i + 8 <= total; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i),
                                              _mm256_loadu_ps(tile + i)));
    }
    for (; i < total; ++i) out[i] += tile[i];
  }
}

// out[m,n] += a[m,k] b[n,k]^T: four k-strided accumulators reduced through
// a fixed tree, then a fixed-pattern horizontal sum and a std::fma scalar
// tail — one deterministic chain per (i, j) for a given k.
void GemmNTAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  runtime::ParallelFor(0, m, kRowGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        __m256 acc2 = _mm256_setzero_ps();
        __m256 acc3 = _mm256_setzero_ps();
        int64_t p = 0;
        for (; p + 32 <= k; p += 32) {
          acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                                 _mm256_loadu_ps(brow + p), acc0);
          acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 8),
                                 _mm256_loadu_ps(brow + p + 8), acc1);
          acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 16),
                                 _mm256_loadu_ps(brow + p + 16), acc2);
          acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p + 24),
                                 _mm256_loadu_ps(brow + p + 24), acc3);
        }
        for (; p + 8 <= k; p += 8) {
          acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                                 _mm256_loadu_ps(brow + p), acc0);
        }
        __m256 sum = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3));
        float total = Hsum(sum);
        for (; p < k; ++p) total = std::fma(arow[p], brow[p], total);
        orow[j] += total;
      }
    }
  });
}

void ConvBiasAvx2(float* y, const float* bias, int64_t channels,
                  int64_t plane) {
  for (int64_t c = 0; c < channels; ++c) {
    float* dst = y + c * plane;
    float bc = bias[c];
    __m256 b8 = _mm256_broadcast_ss(&bc);
    int64_t i = 0;
    for (; i + 8 <= plane; i += 8) {
      _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), b8));
    }
    for (; i < plane; ++i) dst[i] += bc;
  }
}

void Conv2dForwardAvx2(const float* x, const float* weight, const float* bias,
                       float* y, const ConvShape& shape) {
  Conv2dForwardDriver(x, weight, bias, y, shape, GemmNNAvx2, ConvBiasAvx2);
}

void Conv2dBackwardAvx2(const float* x, const float* weight, const float* dy,
                        float* dx, float* dw, float* db,
                        const ConvShape& shape) {
  Conv2dBackwardDriver(x, weight, dy, dx, dw, db, shape, GemmNNAvx2);
}

void AddBiasRowsAvx2(float* x, const float* bias, int64_t rows, int64_t n) {
  for (int64_t i = 0; i < rows; ++i) {
    float* row = x + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j),
                                              _mm256_loadu_ps(bias + j)));
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
}

void ReluAvx2(const float* x, float* y, int64_t n) {
  // maxps returns the SECOND operand when either input is NaN, so
  // max(x, 0) maps NaN (and -0) to +0 — exactly the scalar
  // `x > 0 ? x : 0` semantics.
  __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void BnEvalAvx2(const float* x, float* y, const float* mean, const float* var,
                const float* gamma, const float* beta, float eps,
                int64_t images, int64_t channels, int64_t plane) {
  for (int64_t c = 0; c < channels; ++c) {
    float inv = 1.0f / std::sqrt(var[c] + eps);
    float g = gamma[c];
    float b = beta[c];
    float m = mean[c];
    __m256 inv8 = _mm256_broadcast_ss(&inv);
    __m256 g8 = _mm256_broadcast_ss(&g);
    __m256 b8 = _mm256_broadcast_ss(&b);
    __m256 m8 = _mm256_broadcast_ss(&m);
    for (int64_t img = 0; img < images; ++img) {
      const float* src = x + (img * channels + c) * plane;
      float* dst = y + (img * channels + c) * plane;
      int64_t i = 0;
      // sub, mul, mul, add — the scalar order, no FMA, bitwise-identical.
      for (; i + 8 <= plane; i += 8) {
        __m256 v = _mm256_sub_ps(_mm256_loadu_ps(src + i), m8);
        v = _mm256_mul_ps(v, inv8);
        v = _mm256_mul_ps(g8, v);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(v, b8));
      }
      for (; i < plane; ++i) {
        dst[i] = g * ((src[i] - m) * inv) + b;
      }
    }
  }
}

void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t n) {
  // The max scan, exp(), and double-precision denominator must match the
  // scalar kernel bitwise, so they stay scalar; only the final per-element
  // scale (one float multiply, identical in vector lanes) vectorizes.
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
      __m256 inv8 = _mm256_broadcast_ss(&inv);
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(orow + j,
                         _mm256_mul_ps(_mm256_loadu_ps(orow + j), inv8));
      }
      for (; j < n; ++j) orow[j] *= inv;
    }
  });
}

}  // namespace eos::simd::internal

#else  // !(__AVX2__ && __FMA__)

// Built without AVX2 target support (non-x86 or stripped flags): the Avx2
// entry points delegate to the scalar kernels. dispatch.cc never selects
// the avx2 table on such hardware anyway (CPUID clamp), so this keeps the
// symbols defined without any ISA risk.
namespace eos::simd::internal {

void GemmNNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  GemmNNScalar(a, b, out, m, k, n);
}
void GemmTNAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  GemmTNScalar(a, b, out, m, k, n);
}
void GemmNTAvx2(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  GemmNTScalar(a, b, out, m, k, n);
}
void Conv2dForwardAvx2(const float* x, const float* weight, const float* bias,
                       float* y, const ConvShape& shape) {
  Conv2dForwardScalar(x, weight, bias, y, shape);
}
void Conv2dBackwardAvx2(const float* x, const float* weight, const float* dy,
                        float* dx, float* dw, float* db,
                        const ConvShape& shape) {
  Conv2dBackwardScalar(x, weight, dy, dx, dw, db, shape);
}
void AddBiasRowsAvx2(float* x, const float* bias, int64_t rows, int64_t n) {
  AddBiasRowsScalar(x, bias, rows, n);
}
void ReluAvx2(const float* x, float* y, int64_t n) { ReluScalar(x, y, n); }
void BnEvalAvx2(const float* x, float* y, const float* mean, const float* var,
                const float* gamma, const float* beta, float eps,
                int64_t images, int64_t channels, int64_t plane) {
  BnEvalScalar(x, y, mean, var, gamma, beta, eps, images, channels, plane);
}
void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t n) {
  SoftmaxRowsScalar(x, y, rows, n);
}
void ConvBiasAvx2(float* y, const float* bias, int64_t channels,
                  int64_t plane) {
  ConvBiasScalar(y, bias, channels, plane);
}

}  // namespace eos::simd::internal

#endif  // __AVX2__ && __FMA__
