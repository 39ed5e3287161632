// The repository benchmark program. One invocation runs one workload:
//
//   eos_perfbench --workload <paper_pipeline|fe_resample|serve_open_loop>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics with no spans recorded;
// with --trace 1 it records spans around public calls into each module and
// reports the per-layer metrics, writing the spans as Chrome trace-event
// JSON under .bench_build/run/. Either way it checks the program's outputs,
// prints the workload's named metrics and an environment block, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}. It
// exits 1 when any output check fails. perfbench/run.py builds and runs it.

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/string_util.h"
#include "perfbench.h"

namespace eos::perfbench {
namespace {

/// End-to-end slot metrics reported by every untraced run, in order.
const std::vector<Metric>& EndToEndTemplate() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},
      {"time_ms", 0, "ms"},
      {"quality", 0, "frac"},
  };
  return kMetrics;
}

/// Per-layer metrics reported by every traced run, in order. A workload
/// reports 0 for a layer its path never calls.
const std::vector<Metric>& PerLayerTemplate() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m = {{"data.batch_s", 0, "s"}};
    for (const char* module : {"Conv2d", "BatchNorm2d", "ReLU", "BasicBlock",
                               "GlobalAvgPool2d", "head"}) {
      m.push_back({StrFormat("nn.%s.fwd_s", module), 0, "s"});
      m.push_back({StrFormat("nn.%s.bwd_s", module), 0, "s"});
    }
    std::vector<Metric> rest = {
        {"nn.BasicBlock.gflops", 0, "GFLOP/s"},
        {"losses.compute_s", 0, "s"},
        {"nn.sgd_step_s", 0, "s"},
        {"core.step_self_s", 0, "s"},
        {"core.embed_s", 0, "s"},
        {"core.head_retrain_s", 0, "s"},
        {"tensor.gemm_nn.gflops", 0, "GFLOP/s"},
        {"tensor.gemm_tn.gflops", 0, "GFLOP/s"},
        {"tensor.gemm_nt.gflops", 0, "GFLOP/s"},
        {"runtime.speedup", 0, "x"},
        {"ml.knn_build_s", 0, "s"},
        {"ml.knn_query_s", 0, "s"},
        {"ml.knn_points_per_query", 0, "count"},
        {"ml.knn_scan_yield", 0, "frac"},
        {"sampling.resample_s", 0, "s"},
        {"sampling.self_s", 0, "s"},
        {"sampling.synthetic_rows", 0, "count"},
        {"serve.submit_us", 0, "us"},
        {"serve.session_batch1_us", 0, "us"},
        {"serve.session_batch_us", 0, "us"},
        {"serve.queue_wait_us", 0, "us"},
        {"serve.mean_batch_size", 0, "count"},
        {"serve.batches", 0, "count"},
        {"serve.max_queue_depth", 0, "count"},
        {"serve.rejected", 0, "count"},
        {"serve.deadline_expired", 0, "count"},
        {"serve.gen_late_us", 0, "us"},
        {"trace.overhead_frac", 0, "frac"},
        {"trace.spans", 0, "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

/// Orders the workload's metrics as the template lists them. Per-layer
/// metrics a workload never touches read 0; a missing end-to-end metric, a
/// unit mismatch or an unknown name is a bug in this program.
bool Arrange(const RunResult& result, bool traced, std::vector<Metric>* out) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = &m;
  const std::vector<Metric>& tmpl =
      traced ? PerLayerTemplate() : EndToEndTemplate();
  bool ok = true;
  for (const Metric& t : tmpl) {
    auto it = by_name.find(t.name);
    if (it == by_name.end()) {
      if (!traced) {
        std::fprintf(stderr, "perfbench: metric %s missing\n",
                     t.name.c_str());
        ok = false;
      }
      out->push_back(t);
      continue;
    }
    if (it->second->unit != t.unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, want %s\n",
                   t.name.c_str(), it->second->unit.c_str(), t.unit.c_str());
      ok = false;
    }
    out->push_back(*it->second);
    by_name.erase(it);
  }
  for (const auto& [name, metric] : by_name) {
    std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                 name.c_str());
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  FlagSet flags;
  std::string* workload = flags.AddString(
      "workload", "", "paper_pipeline | fe_resample | serve_open_loop");
  int64_t* seed = flags.AddInt("seed", 1, "seed of the generated inputs");
  double* seconds = flags.AddDouble("seconds", 10, "measured seconds");
  int64_t* trace = flags.AddInt("trace", 0, "1 = traced per-layer run");
  Status status = flags.Parse(argc, argv);
  if (!status.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (*seconds <= 0 || *seed < 0 || (*trace != 0 && *trace != 1)) {
    std::fprintf(stderr, "perfbench: bad --seconds, --seed or --trace\n");
    return 2;
  }
  Args args;
  args.workload = *workload;
  args.seed = static_cast<uint64_t>(*seed);
  args.seconds = *seconds;
  args.trace = *trace == 1;

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  RunResult result;
  if (args.workload == "paper_pipeline") {
    result = RunPaperPipeline(args, tracer.get());
  } else if (args.workload == "fe_resample") {
    result = RunFeResample(args, tracer.get());
  } else if (args.workload == "serve_open_loop") {
    result = RunServeOpenLoop(args, tracer.get());
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  if (tracer != nullptr) {
    result.Add("trace.spans", static_cast<double>(tracer->size()), "count");
    std::string path =
        StrFormat("%s/trace-%s-seed%llu.json", ScratchDir().c_str(),
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed));
    if (tracer->WriteChromeJson(path)) {
      std::printf("trace %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::vector<Metric> metrics;
  if (!Arrange(result, args.trace, &metrics)) return 1;
  result.Print("failed_frac",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 1.0,
              "frac");
  for (const Metric& m : result.named) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("env %s\n", EnvironmentJson(result.knn_backend).c_str());
  // Correct means every output check passed. Refused or failed requests
  // are operations that failed, not wrong outputs: they count in `failed`.
  bool correct = result.checks_failed == 0 && result.attempted > 0;
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity: a p99 over refused requests is reported as the
    // largest double (a latency over refused or failed requests, which are
    // counted in `failed`).
    if (!std::isfinite(metrics[i].value)) metrics[i].value = DBL_MAX;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace eos::perfbench

int main(int argc, char** argv) { return eos::perfbench::Main(argc, argv); }
