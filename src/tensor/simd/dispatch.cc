#include "tensor/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "tensor/simd/kernels.h"

namespace eos::simd {
namespace {

// -1 = no override; otherwise the int value of a forced Isa. Process-wide so
// server worker threads and the pool see the same path as the forcing thread.
std::atomic<int> g_forced_isa{-1};

void WarnAvx2UnavailableOnce() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    std::fprintf(stderr,
                 "eos/simd: avx2 requested but CPU lacks AVX2+FMA; "
                 "falling back to scalar kernels\n");
  });
}

// EOS_SIMD parse result: kScalar / kAvx2, or -1 for auto (unset, empty, or
// "auto"). Unrecognized values warn once and mean auto.
int EnvRequestedIsa() {
  const char* env = std::getenv("EOS_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0) {
    return -1;
  }
  if (std::strcmp(env, "scalar") == 0) return static_cast<int>(Isa::kScalar);
  if (std::strcmp(env, "avx2") == 0) return static_cast<int>(Isa::kAvx2);
  static std::once_flag flag;
  std::call_once(flag, [env] {
    std::fprintf(stderr,
                 "eos/simd: unrecognized EOS_SIMD=%s (want scalar|avx2|auto); "
                 "using auto\n",
                 env);
  });
  return -1;
}

// Clamps a requested path to what the hardware supports, warning once on
// the avx2 -> scalar downgrade so a forced CI lane fails loudly, not quietly.
Isa ClampToHardware(Isa requested) {
  if (requested == Isa::kAvx2 && !CpuSupportsAvx2()) {
    WarnAvx2UnavailableOnce();
    return Isa::kScalar;
  }
  return requested;
}

Isa ResolveIsa() {
  int forced = g_forced_isa.load(std::memory_order_acquire);
  if (forced >= 0) return ClampToHardware(static_cast<Isa>(forced));
  int env = EnvRequestedIsa();
  if (env >= 0) return ClampToHardware(static_cast<Isa>(env));
  return CpuSupportsAvx2() ? Isa::kAvx2 : Isa::kScalar;
}

KernelTable MakeScalarTable() {
  KernelTable t;
  t.isa = Isa::kScalar;
  t.gemm_nn = internal::GemmNNScalar;
  t.gemm_tn = internal::GemmTNScalar;
  t.gemm_nt = internal::GemmNTScalar;
  t.conv2d_forward = internal::Conv2dForwardScalar;
  t.conv2d_backward = internal::Conv2dBackwardScalar;
  t.add_bias_rows = internal::AddBiasRowsScalar;
  t.relu = internal::ReluScalar;
  t.bn_eval = internal::BnEvalScalar;
  t.softmax_rows = internal::SoftmaxRowsScalar;
  return t;
}

KernelTable MakeAvx2Table() {
  KernelTable t;
  t.isa = Isa::kAvx2;
  t.gemm_nn = internal::GemmNNAvx2;
  t.gemm_tn = internal::GemmTNAvx2;
  t.gemm_nt = internal::GemmNTAvx2;
  t.conv2d_forward = internal::Conv2dForwardAvx2;
  t.conv2d_backward = internal::Conv2dBackwardAvx2;
  t.add_bias_rows = internal::AddBiasRowsAvx2;
  t.relu = internal::ReluAvx2;
  t.bn_eval = internal::BnEvalAvx2;
  t.softmax_rows = internal::SoftmaxRowsAvx2;
  return t;
}

const KernelTable& ScalarTable() {
  static const KernelTable table = MakeScalarTable();
  return table;
}

const KernelTable& Avx2Table() {
  static const KernelTable table = MakeAvx2Table();
  return table;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool CpuSupportsAvx2() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
}

Isa ActiveIsa() { return ResolveIsa(); }

void ForceIsa(Isa isa) {
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_release);
}

void ClearForcedIsa() { g_forced_isa.store(-1, std::memory_order_release); }

const KernelTable& Active() { return Table(ActiveIsa()); }

const KernelTable& Table(Isa isa) {
  if (ClampToHardware(isa) == Isa::kAvx2) return Avx2Table();
  return ScalarTable();
}

}  // namespace eos::simd
