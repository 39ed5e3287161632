#ifndef EOS_PERFBENCH_PERFBENCH_H_
#define EOS_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "trace.h"

/// \file
/// Shared types of the benchmark program. Each workload runs in one of two
/// modes: untraced (end-to-end metrics, no spans recorded) or traced (the
/// per-layer metrics, derived from spans recorded around public calls into
/// each module). See README.md in this directory for the rationale.

namespace eos::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `attempted` counts the workload's operations
/// (pipeline runs, Resample calls, requests); `failed` counts operations
/// that failed or were refused plus every failed output check.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed output checks alone: a run is correct when there are none.
  int64_t checks_failed = 0;
  /// The metrics of the final JSON line (end-to-end slots when untraced,
  /// per-layer metrics when traced).
  std::vector<Metric> metrics;
  /// The workload's own end-to-end names (pipeline_s, serve_p99_us, ...),
  /// printed one per line ahead of the JSON.
  std::vector<Metric> named;
  /// KNN backend the workload's searcher resolved ("brute", "index", ...),
  /// or "none" when the workload runs no KNN.
  std::string knn_backend = "none";

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Print(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  /// Records an output check; a failed check is printed to stderr and
  /// counted in `failed` and `checks_failed`.
  void Check(bool ok, const std::string& what);
};

RunResult RunPaperPipeline(const Args& args, Tracer* tracer);
RunResult RunFeResample(const Args& args, Tracer* tracer);
RunResult RunServeOpenLoop(const Args& args, Tracer* tracer);

/// The benches' CIFAR10-like laptop configuration: ResNet-8 of width 8 on
/// 16x16 images, 420 imbalanced training images, 30 phase-1 epochs.
ExperimentConfig PipelineConfig(uint64_t seed);
/// CRC-32 of a network's parameters and buffers, extractor then head.
uint32_t WeightCrc(nn::ImageClassifier& net);

/// Times the KNN calls EOS makes on `data` (searcher construction, then one
/// batched leave-one-out query per class that needs synthetic rows) under
/// spans ml.knn_build / ml.knn_query, and samples per-query traversal
/// counters. Adds the ml.* per-layer metrics to `result`.
void ProbeKnnLayer(const FeatureSet& data, int64_t k, Tracer* tracer,
                   RunResult& result);

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100]. 0 for an empty list.
double Percentile(std::vector<double> values, double p);
/// Peak resident set size of this process (VmHWM) since it started or since
/// the last ResetPeakRss, in MiB.
double PeakRssMb();
/// Resets the peak resident set size to the current one (writes 5 to
/// /proc/self/clear_refs); false when the kernel refuses.
bool ResetPeakRss();

/// One-line JSON object describing the host and build: CPU model, nproc,
/// active SIMD ISA, EOS_THREADS, the resolved KNN backend, build type and
/// source revision.
std::string EnvironmentJson(const std::string& knn_backend);

/// Directory (relative to the working directory) for files the benchmark
/// writes: serving checkpoints and trace files. Created on demand.
std::string ScratchDir();

/// Runs `timed` with the runtime pool at one lane, then restores the lane
/// count; returns what `timed` returns (its measured seconds).
double AtOneLane(const std::function<double()>& timed);

}  // namespace eos::perfbench

#endif  // EOS_PERFBENCH_PERFBENCH_H_
