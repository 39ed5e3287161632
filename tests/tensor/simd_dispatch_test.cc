#include "tensor/simd/dispatch.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "tensor/matmul.h"
#include "tensor/simd/workspace.h"
#include "tensor/tensor.h"

namespace eos::simd {
namespace {

/// ISA paths actually runnable on this machine. Scalar always; AVX2 when the
/// CPU has it. Equivalence tests iterate this so the suite is meaningful on
/// both AVX2 and pre-AVX2 hardware (where it degrades to scalar-vs-scalar).
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

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SimdDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ForceIsaOverridesEverything) {
  {
    ScopedForceIsa force(Isa::kScalar);
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
    EXPECT_EQ(Active().isa, Isa::kScalar);
  }
  if (CpuSupportsAvx2()) {
    ScopedForceIsa force(Isa::kAvx2);
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
    EXPECT_EQ(Active().isa, Isa::kAvx2);
  }
}

TEST(SimdDispatchTest, ForcingAvx2WithoutHardwareClampsToScalar) {
  // On AVX2 hardware this asserts the force sticks; without it, the clamp.
  ScopedForceIsa force(Isa::kAvx2);
  if (CpuSupportsAvx2()) {
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
  } else {
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
    EXPECT_EQ(Table(Isa::kAvx2).isa, Isa::kScalar);
  }
}

TEST(SimdDispatchTest, ClearForcedIsaRestoresAutoResolution) {
  ForceIsa(Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  ClearForcedIsa();
  // Auto resolution honors EOS_SIMD when the harness sets it, else CPUID —
  // either way the result must be a runnable path.
  Isa resolved = ActiveIsa();
  if (resolved == Isa::kAvx2) {
    EXPECT_TRUE(CpuSupportsAvx2());
  }
}

TEST(SimdDispatchTest, TableSelectsRequestedPath) {
  EXPECT_EQ(Table(Isa::kScalar).isa, Isa::kScalar);
  ASSERT_NE(Table(Isa::kScalar).gemm_nn, nullptr);
  ASSERT_NE(Table(Isa::kScalar).conv2d_forward, nullptr);
  if (CpuSupportsAvx2()) {
    EXPECT_EQ(Table(Isa::kAvx2).isa, Isa::kAvx2);
    EXPECT_NE(Table(Isa::kAvx2).gemm_nn, Table(Isa::kScalar).gemm_nn);
  }
}

/// The AVX2 GEMM keeps one rounding per multiply-add (FMA) where scalar
/// keeps two, so cross-path results agree only to tolerance — this bounds
/// the drift without demanding bitwise equality across paths.
TEST(SimdDispatchTest, GemmFamilyAgreesAcrossPathsWithinTolerance) {
  // Deliberately awkward shapes: m not a multiple of the 6-row microkernel,
  // n not a multiple of 8 or 16, odd k.
  const int64_t m = 13, k = 37, n = 23;
  std::vector<float> a = RandomVec(m * k, 1);
  std::vector<float> b = RandomVec(k * n, 2);
  using GemmFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t);
  struct Case {
    const char* name;
    GemmFn KernelTable::* fn;
  };
  const Case kCases[] = {{"gemm_nn", &KernelTable::gemm_nn},
                         {"gemm_tn", &KernelTable::gemm_tn},
                         {"gemm_nt", &KernelTable::gemm_nt}};
  for (const Case& c : kCases) {
    std::vector<float> ref(static_cast<size_t>(m * n), 0.0f);
    (Table(Isa::kScalar).*c.fn)(a.data(), b.data(), ref.data(), m, k, n);
    for (Isa isa : RunnableIsas()) {
      std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
      (Table(isa).*c.fn)(a.data(), b.data(), out.data(), m, k, n);
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_NEAR(out[i], ref[i], 1e-4f)
            << c.name << " [" << IsaName(isa) << "] flat index " << i;
      }
    }
  }
}

/// Within one ISA path, thread count must never change a bit: the chunking
/// is shape-derived and each output element's accumulation chain is fixed.
TEST(SimdDispatchTest, EachPathIsBitwiseThreadCountInvariant) {
  const int64_t m = 29, k = 31, n = 27;
  Rng rng(3);
  Tensor a = Tensor::Uniform({m, k}, -1.0f, 1.0f, rng);
  Tensor b = Tensor::Uniform({k, n}, -1.0f, 1.0f, rng);
  for (Isa isa : RunnableIsas()) {
    ScopedForceIsa force(isa);
    runtime::SetThreadCount(1);
    Tensor single = MatMul(a, b);
    runtime::SetThreadCount(4);
    Tensor multi = MatMul(a, b);
    runtime::SetThreadCount(1);
    ASSERT_EQ(single.numel(), multi.numel());
    EXPECT_EQ(std::memcmp(single.data(), multi.data(),
                          static_cast<size_t>(single.numel()) * sizeof(float)),
              0)
        << "path " << IsaName(isa);
  }
}

/// Each output row depends only on its own input row, so computing rows
/// one at a time must reproduce the full-matrix result bitwise (this is
/// what makes served batch composition irrelevant per path).
TEST(SimdDispatchTest, GemmRowsAreBatchCompositionInvariantPerPath) {
  const int64_t m = 11, k = 19, n = 17;
  std::vector<float> a = RandomVec(m * k, 4);
  std::vector<float> b = RandomVec(k * n, 5);
  for (Isa isa : RunnableIsas()) {
    const KernelTable& table = Table(isa);
    std::vector<float> full(static_cast<size_t>(m * n), 0.0f);
    table.gemm_nn(a.data(), b.data(), full.data(), m, k, n);
    for (int64_t row = 0; row < m; ++row) {
      std::vector<float> one(static_cast<size_t>(n), 0.0f);
      table.gemm_nn(a.data() + row * k, b.data(), one.data(), 1, k, n);
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(one[static_cast<size_t>(j)],
                  full[static_cast<size_t>(row * n + j)])
            << "path " << IsaName(isa) << " row " << row << " col " << j;
      }
    }
  }
}

/// There is deliberately no zero-operand skip in any path: 0 * Inf must
/// produce NaN per IEEE 754 on scalar and AVX2 alike.
TEST(SimdDispatchTest, NanAndInfPropagateThroughEveryPath) {
  const int64_t m = 1, k = 8, n = 9;
  std::vector<float> a(static_cast<size_t>(k), 0.0f);  // all-zero row
  std::vector<float> b = RandomVec(k * n, 6);
  b[0] = std::numeric_limits<float>::infinity();   // hits out column 0
  b[static_cast<size_t>(n + 1)] = std::nanf("");   // hits out column 1
  for (Isa isa : RunnableIsas()) {
    std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
    Table(isa).gemm_nn(a.data(), b.data(), out.data(), m, k, n);
    EXPECT_TRUE(std::isnan(out[0])) << "0*Inf swallowed on " << IsaName(isa);
    EXPECT_TRUE(std::isnan(out[1])) << "0*NaN swallowed on " << IsaName(isa);
    for (int64_t j = 2; j < n; ++j) {
      EXPECT_FALSE(std::isnan(out[static_cast<size_t>(j)]))
          << "NaN leaked to column " << j << " on " << IsaName(isa);
    }
  }
}

/// The epilogues avoid FMA by design, so they are bitwise-identical across
/// BOTH paths — not just within each — including tail lanes and NaN inputs.
TEST(SimdDispatchTest, EpiloguesAreBitwiseIdenticalAcrossPaths) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "single path on this hardware";
  const KernelTable& scalar = Table(Isa::kScalar);
  const KernelTable& avx2 = Table(Isa::kAvx2);
  const int64_t rows = 7, n = 21;  // non-multiple-of-8 columns: tail lanes

  std::vector<float> x = RandomVec(rows * n, 7);
  x[3] = std::nanf("");
  x[4] = -0.0f;
  std::vector<float> bias = RandomVec(n, 8);

  std::vector<float> a = x, b = x;
  scalar.add_bias_rows(a.data(), bias.data(), rows, n);
  avx2.add_bias_rows(b.data(), bias.data(), rows, n);
  EXPECT_TRUE(BitwiseEqual(a, b)) << "add_bias_rows diverged";

  std::vector<float> ra(x.size()), rb(x.size());
  scalar.relu(x.data(), ra.data(), static_cast<int64_t>(x.size()));
  avx2.relu(x.data(), rb.data(), static_cast<int64_t>(x.size()));
  EXPECT_TRUE(BitwiseEqual(ra, rb)) << "relu diverged";
  EXPECT_EQ(ra[3], 0.0f);  // NaN -> 0, the historical scalar semantics

  const int64_t images = 2, channels = 3, plane = 11;
  std::vector<float> bn_x = RandomVec(images * channels * plane, 9);
  std::vector<float> mean = RandomVec(channels, 10);
  std::vector<float> var(static_cast<size_t>(channels), 0.5f);
  std::vector<float> gamma = RandomVec(channels, 11);
  std::vector<float> beta = RandomVec(channels, 12);
  std::vector<float> ya(bn_x.size()), yb(bn_x.size());
  scalar.bn_eval(bn_x.data(), ya.data(), mean.data(), var.data(), gamma.data(),
                 beta.data(), 1e-5f, images, channels, plane);
  avx2.bn_eval(bn_x.data(), yb.data(), mean.data(), var.data(), gamma.data(),
               beta.data(), 1e-5f, images, channels, plane);
  EXPECT_TRUE(BitwiseEqual(ya, yb)) << "bn_eval diverged";

  std::vector<float> logits = RandomVec(rows * n, 13);
  std::vector<float> sa(logits.size()), sb(logits.size());
  scalar.softmax_rows(logits.data(), sa.data(), rows, n);
  avx2.softmax_rows(logits.data(), sb.data(), rows, n);
  EXPECT_TRUE(BitwiseEqual(sa, sb)) << "softmax_rows diverged";
}

/// A lane request takes the best-fitting free lane, so a rare large
/// request (conv backward's tile lane) does not grow the small lanes: once
/// one small and one large lane exist, requests of both sizes in either
/// acquisition order reuse them without growing anything.
TEST(WorkspaceTest, LaneRequestsTakeTheBestFittingFreeLane) {
  const int64_t small_floats = 1000;
  const int64_t large_floats = 100000;
  Workspace ws;
  {
    LaneGuard small = ws.AcquireLane(small_floats);
    small.lane().Floats(small_floats);
    LaneGuard large = ws.AcquireLane(large_floats);
    large.lane().Floats(large_floats);
  }
  const int64_t settled = ws.TotalCapacityBytes();
  for (int round = 0; round < 3; ++round) {
    {
      LaneGuard large = ws.AcquireLane(large_floats);
      LaneGuard small = ws.AcquireLane(small_floats);
      large.lane().Floats(large_floats);
      small.lane().Floats(small_floats);
    }
    {
      LaneGuard small = ws.AcquireLane(small_floats);
      LaneGuard large = ws.AcquireLane(large_floats);
      small.lane().Floats(small_floats);
      large.lane().Floats(large_floats);
    }
  }
  EXPECT_EQ(ws.TotalCapacityBytes(), settled);
  EXPECT_EQ(ws.LaneCount(), 2);
}

}  // namespace
}  // namespace eos::simd
