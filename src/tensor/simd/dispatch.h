#ifndef EOS_TENSOR_SIMD_DISPATCH_H_
#define EOS_TENSOR_SIMD_DISPATCH_H_

#include <cstdint>

/// \file
/// Runtime-dispatched SIMD kernel layer. Every dense hot loop in the tree
/// (GEMM, im2col conv forward and backward, and the
/// bias/ReLU/BatchNorm/softmax epilogues) funnels through one `KernelTable`
/// of function pointers,
/// selected once per process from the CPU's capabilities:
///
///   * `Isa::kScalar` — portable kernels that are bitwise-identical to the
///     pre-SIMD tree (the historical cache-blocked loops, moved verbatim
///     into kernels_scalar.cc), except conv backward, whose two GEMMs were
///     reformulated as NN products. Always available; the reference for
///     every equivalence test.
///   * `Isa::kAvx2`   — AVX2/FMA microkernels (kernels_avx2.cc, compiled
///     with -mavx2 -mfma and only ever *called* after a CPUID check).
///
/// Determinism contract (see DESIGN.md "SIMD kernel dispatch"): within one
/// ISA path, every kernel is bitwise-reproducible at any thread count and —
/// for the inference kernels — independent of how samples are batched. The
/// two paths differ numerically (FMA keeps one rounding where mul+add keeps
/// two), which is why the contract is per-path: a given machine+override
/// always reproduces itself, and the scalar path reproduces the seed tree
/// everywhere but conv backward.
/// Epilogues deliberately avoid FMA so they are bitwise-identical across
/// BOTH paths; only the GEMM-family kernels diverge.
///
/// Selection order: ForceIsa (tests/benches) > the EOS_SIMD environment
/// variable (`scalar` | `avx2` | `auto`/unset) > CPUID. Requesting avx2 on
/// hardware without it warns once on stderr and falls back to scalar, so a
/// forced-ISA CI lane degrades loudly instead of crashing.

namespace eos::simd {

/// Instruction-set paths the dispatcher can select.
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Stable lowercase name ("scalar", "avx2") for logs and BENCH JSON.
const char* IsaName(Isa isa);

/// True when the running CPU supports AVX2 and FMA (checked via CPUID, not
/// compile flags — the binary may be built on different hardware).
bool CpuSupportsAvx2();

/// The path every dispatched kernel currently runs. Resolved once (force >
/// EOS_SIMD > CPUID) and cached; ForceIsa / ClearForcedIsa re-resolve.
Isa ActiveIsa();

/// Process-wide override, visible to all threads (server workers included).
/// Forcing kAvx2 on hardware without it falls back to kScalar with a
/// one-time warning, mirroring EOS_SIMD=avx2. Prefer ScopedForceIsa.
void ForceIsa(Isa isa);

/// Drops the ForceIsa override; ActiveIsa re-reads EOS_SIMD / CPUID.
void ClearForcedIsa();

/// RAII override for A/B tests and benches:
///   { ScopedForceIsa force(Isa::kScalar);  ... baseline ... }
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(Isa isa) { ForceIsa(isa); }
  ~ScopedForceIsa() { ClearForcedIsa(); }
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;
};

/// Geometry of one im2col-lowered convolution forward over an NCHW batch.
struct ConvShape {
  int64_t batch = 0;
  int64_t in_channels = 0;
  int64_t height = 0;
  int64_t width = 0;
  int64_t out_channels = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 0;
  int64_t pad = 0;
  int64_t out_h = 0;
  int64_t out_w = 0;
};

/// One ISA path's kernel set. All GEMM kernels use accumulate semantics
/// (`out += ...`) over row-major buffers and parallelize internally on the
/// runtime pool with shape-derived (thread-count-independent) chunking.
struct KernelTable {
  Isa isa = Isa::kScalar;

  /// out[m,n] += a[m,k] * b[k,n].
  void (*gemm_nn)(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) = nullptr;
  /// out[m,n] += a[k,m]^T * b[k,n].
  void (*gemm_tn)(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) = nullptr;
  /// out[m,n] += a[m,k] * b[n,k]^T.
  void (*gemm_nt)(const float* a, const float* b, float* out, int64_t m,
                  int64_t k, int64_t n) = nullptr;

  /// Whole-batch im2col-fused conv forward: y[N,O,oh,ow] = W * im2col(x)
  /// (+ bias, folded into the GEMM tail when non-null). `y` must be
  /// zero-initialized. Scratch comes from the current simd::Workspace; in
  /// steady state the call performs no heap allocation.
  void (*conv2d_forward)(const float* x, const float* weight,
                         const float* bias, float* y,
                         const ConvShape& shape) = nullptr;

  /// Whole-batch conv backward given the forward input `x` and the output
  /// gradient `dy`: dx = col2im(W^T * dY) (`dx` must be zero-initialized),
  /// dw[O, ckk] += sum over images of dY * im2col(x)^T, and db[O] += the
  /// per-channel sum of dY (skipped when `db` is null). Both products run
  /// on the path's gemm_nn; dw/db reduce per-chunk tiles in ascending chunk
  /// order, so the result is bitwise-identical at any thread count.
  /// Scratch comes from the current simd::Workspace.
  void (*conv2d_backward)(const float* x, const float* weight,
                          const float* dy, float* dx, float* dw, float* db,
                          const ConvShape& shape) = nullptr;

  /// x[rows,n] += bias[n] broadcast down the rows (Linear epilogue).
  /// Bitwise-identical across ISA paths (pure adds, no FMA).
  void (*add_bias_rows)(float* x, const float* bias, int64_t rows,
                        int64_t n) = nullptr;

  /// y[i] = max(x[i], 0) with scalar NaN semantics (NaN -> 0), so both
  /// paths agree bitwise. In-place allowed (y == x).
  void (*relu)(const float* x, float* y, int64_t n) = nullptr;

  /// Eval-mode BatchNorm over [images, channels, plane]:
  /// y = gamma*((x - mean)*invstd) + beta with invstd = 1/sqrt(var + eps)
  /// computed per channel inside the kernel (identically on every path).
  /// The operation order matches the historical scalar loop exactly and
  /// uses no FMA, so both paths agree bitwise.
  void (*bn_eval)(const float* x, float* y, const float* mean,
                  const float* var, const float* gamma, const float* beta,
                  float eps, int64_t images, int64_t channels,
                  int64_t plane) = nullptr;

  /// Numerically-stable row softmax [rows, n] -> [rows, n]. exp() and the
  /// double-precision denominator stay scalar on every path (they dominate
  /// and must not drift); the AVX2 path vectorizes only the bitwise-safe
  /// max scan and the final scale, so both paths agree bitwise.
  void (*softmax_rows)(const float* x, float* y, int64_t rows,
                       int64_t n) = nullptr;
};

/// Table for the active path — the only call sites outside tests/benches
/// should look like `simd::Active().gemm_nn(...)`.
const KernelTable& Active();

/// Table for a specific path (equivalence tests, in-process A/B benches).
/// Requesting kAvx2 on hardware without it returns the scalar table.
const KernelTable& Table(Isa isa);

}  // namespace eos::simd

#endif  // EOS_TENSOR_SIMD_DISPATCH_H_
