#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/string_util.h"
#include "perfbench.h"
#include "runtime/thread_pool.h"
#include "tensor/simd/dispatch.h"

#ifndef EOS_PERFBENCH_BUILD_TYPE
#define EOS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace eos::perfbench {
namespace {

/// The CPU brand string from CPUID leaves 0x80000002..4.
std::string CpuModel() {
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string model = StrTrim(brand);
  return model.empty() ? "unknown" : model;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  ++checks_failed;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  // VmHWM honours ResetPeakRss; ru_maxrss is the fallback where /proc is
  // not mounted.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;  // KiB -> MiB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double AtOneLane(const std::function<double()>& timed) {
  const int lanes = runtime::ThreadCount();
  runtime::SetThreadCount(1);
  double seconds = timed();
  runtime::SetThreadCount(lanes);
  return seconds;
}

std::string ScratchDir() {
  const std::string dir = ".bench_build/run";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string EnvironmentJson(const std::string& knn_backend) {
  return StrFormat(
      "{\"cpu\": \"%s\", \"nproc\": %u, \"isa\": \"%s\", "
      "\"eos_threads\": \"%s\", \"pool_lanes\": %d, \"knn_backend\": \"%s\", "
      "\"build_type\": \"%s\", \"git_rev\": \"%s\"}",
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      simd::IsaName(simd::ActiveIsa()),
      JsonEscape(EnvOr("EOS_THREADS", "unset")).c_str(),
      runtime::ThreadCount(), knn_backend.c_str(), EOS_PERFBENCH_BUILD_TYPE,
      JsonEscape(EnvOr("EOS_PERFBENCH_GIT_REV", "unknown")).c_str());
}

}  // namespace eos::perfbench
