// fe_resample: one ExpansiveOversampler::Resample (K=10) over a large
// generated embedding set, so the KD-tree KNN path (ml) and EOS synthesis
// (sampling) do all the work and no network runs.
//
// The rows are 32-d (ResNet-8's feature_dim) and lie near a 5-d linear
// subspace: each class is a Gaussian blob in a 5-d latent space, mapped to
// 32-d by one random matrix plus isotropic noise. Ten classes follow an
// exponential 100:1 imbalance, and the class blobs overlap, so minority
// classes have borderline members with enemy neighbours. The latent
// dimension, the noise and the centre spread were fitted to the embeddings
// paper_pipeline's trained ResNet-8 produces for 49,638 generated images at
// the same imbalance (README.md, "Embedding geometry"). The geometry
// (matrix and class centres) is fixed; --seed draws the rows, so seeds vary
// the sample but not the difficulty of the search.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/imbalance.h"
#include "ml/knn.h"
#include "ml/knn_index.h"
#include "perfbench.h"
#include "sampling/eos.h"

namespace eos::perfbench {
namespace {

constexpr int64_t kDim = 32;
constexpr int64_t kIntrinsicDim = 5;
/// Standard deviation of the class centres in the latent space (the rows
/// around a centre have unit deviation) and of the isotropic 32-d noise.
constexpr float kCenterSpread = 2.2f;
constexpr float kNoise = 0.17f;
constexpr int64_t kClasses = 10;
constexpr int64_t kMaxPerClass = 20000;
constexpr double kImbalanceRatio = 100.0;
constexpr int64_t kEosK = 10;
constexpr int kSetupReps = 60;
/// Sampled queries for the traversal counters and the brute-force check.
constexpr int64_t kSampledQueries = 256;

/// The generated rows, kept outside the program's types so that building
/// the FeatureSet (and the KNN index over it) is the program-side set-up.
struct Embeddings {
  std::vector<float> rows;
  std::vector<int64_t> labels;
};

Embeddings Generate(uint64_t seed) {
  Rng geometry(/*seed=*/20230403, /*stream=*/41);
  std::vector<float> basis(static_cast<size_t>(kDim * kIntrinsicDim));
  for (float& b : basis) {
    b = geometry.Normal(0.0f, 1.0f / std::sqrt(static_cast<float>(
                                         kIntrinsicDim)));
  }
  std::vector<float> centers(static_cast<size_t>(kClasses * kIntrinsicDim));
  for (float& c : centers) c = geometry.Normal(0.0f, kCenterSpread);
  Rng rng(seed, /*stream=*/42);
  std::vector<int64_t> counts = ImbalancedCounts(
      kClasses, kMaxPerClass, kImbalanceRatio, ImbalanceType::kExponential);
  Embeddings out;
  std::vector<float> z(static_cast<size_t>(kIntrinsicDim));
  for (int64_t c = 0; c < kClasses; ++c) {
    for (int64_t i = 0; i < counts[static_cast<size_t>(c)]; ++i) {
      for (int64_t j = 0; j < kIntrinsicDim; ++j) {
        z[static_cast<size_t>(j)] =
            centers[static_cast<size_t>(c * kIntrinsicDim + j)] +
            rng.Normal();
      }
      for (int64_t d = 0; d < kDim; ++d) {
        float x = rng.Normal(0.0f, kNoise);
        for (int64_t j = 0; j < kIntrinsicDim; ++j) {
          x += basis[static_cast<size_t>(d * kIntrinsicDim + j)] *
               z[static_cast<size_t>(j)];
        }
        out.rows.push_back(x);
      }
      out.labels.push_back(c);
    }
  }
  return out;
}

FeatureSet ToFeatureSet(const Embeddings& e) {
  FeatureSet set;
  int64_t n = static_cast<int64_t>(e.labels.size());
  set.features = Tensor({n, kDim});
  std::copy(e.rows.begin(), e.rows.end(), set.features.data());
  set.labels = e.labels;
  set.num_classes = kClasses;
  return set;
}

uint32_t OutputCrc(const FeatureSet& set) {
  uint32_t crc = Crc32(set.features.data(),
                       static_cast<size_t>(set.features.numel()) *
                           sizeof(float));
  return Crc32(set.labels.data(), set.labels.size() * sizeof(int64_t), crc);
}

/// Rows of the classes EOS over-samples (every class below the majority).
std::vector<int64_t> MinorityRows(const FeatureSet& data) {
  std::vector<int64_t> counts = data.ClassCounts();
  int64_t majority = *std::max_element(counts.begin(), counts.end());
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < data.size(); ++i) {
    int64_t c = data.labels[static_cast<size_t>(i)];
    if (counts[static_cast<size_t>(c)] < majority) rows.push_back(i);
  }
  return rows;
}

/// Every kSampledQueries-th share of `rows`, deterministically.
std::vector<int64_t> Sample(const std::vector<int64_t>& rows) {
  std::vector<int64_t> out;
  int64_t n = static_cast<int64_t>(rows.size());
  int64_t step = std::max<int64_t>(1, n / kSampledQueries);
  for (int64_t i = 0; i < n && static_cast<int64_t>(out.size()) <
                                   kSampledQueries;
       i += step) {
    out.push_back(rows[static_cast<size_t>(i)]);
  }
  return out;
}

/// Checks the balance contract of one Resample output.
void CheckOutput(const FeatureSet& data, const FeatureSet& out,
                 const std::string& tag, RunResult& result) {
  std::vector<int64_t> counts = data.ClassCounts();
  int64_t majority = *std::max_element(counts.begin(), counts.end());
  int64_t want_synthetic = 0;
  for (int64_t c : counts) want_synthetic += majority - c;
  bool balanced = true;
  for (int64_t c : out.ClassCounts()) balanced = balanced && c == majority;
  result.Check(balanced, tag + ": a class misses the majority count");
  result.Check(out.size() - data.size() == want_synthetic,
               StrFormat("%s: %lld synthetic rows, want %lld", tag.c_str(),
                         static_cast<long long>(out.size() - data.size()),
                         static_cast<long long>(want_synthetic)));
}

/// The policy-selected searcher must return brute force's neighbour lists.
void CheckAgainstBrute(const FeatureSet& data, RunResult& result) {
  KnnSearcher searcher(data.features);
  KnnIndex brute(data.features);
  int64_t mismatched = 0;
  for (int64_t row : Sample(MinorityRows(data))) {
    if (searcher.QueryRow(row, kEosK) != brute.QueryRow(row, kEosK)) {
      ++mismatched;
    }
  }
  result.Check(mismatched == 0,
               StrFormat("%lld sampled %s neighbour lists differ from brute "
                         "force",
                         static_cast<long long>(mismatched),
                         KnnModeName(searcher.choice().backend)));
}

double BorderlineShare(const FeatureSet& data,
                       const ExpansiveOversampler::Stats& stats) {
  std::vector<int64_t> counts = data.ClassCounts();
  int64_t majority = *std::max_element(counts.begin(), counts.end());
  double bases = 0, members = 0;
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] == majority) continue;
    bases += static_cast<double>(stats.borderline_bases[c]);
    members += static_cast<double>(counts[c]);
  }
  return bases / members;
}

double TimeResample(const FeatureSet& data, uint64_t seed,
                    FeatureSet* out = nullptr) {
  ExpansiveOversampler eos(kEosK);
  Rng rng(seed, /*stream=*/43);
  Stopwatch watch;
  FeatureSet balanced = eos.Resample(data, rng);
  double seconds = watch.Seconds();
  if (out != nullptr) *out = std::move(balanced);
  return seconds;
}

RunResult Untraced(const Args& args) {
  RunResult result;
  Embeddings embeddings = Generate(args.seed);
  std::vector<double> setup_s;
  FeatureSet data;
  for (int i = 0; i < kSetupReps; ++i) {
    Stopwatch watch;
    data = ToFeatureSet(embeddings);
    KnnSearcher searcher(data.features);
    setup_s.push_back(watch.Seconds());
  }
  result.knn_backend = KnnModeName(ResolveKnnChoice(data.size()).backend);
  TimeResample(data, args.seed);  // warm-up: runtime pool, allocator

  std::vector<double> resample_s;
  double borderline = 0;
  uint32_t first_crc = 0;
  Stopwatch budget;
  for (int rep = 0; rep < 2 || budget.Seconds() < args.seconds; ++rep) {
    ExpansiveOversampler eos(kEosK);
    Rng rng(args.seed, /*stream=*/43);
    ++result.attempted;
    Stopwatch watch;
    FeatureSet out = eos.Resample(data, rng);
    resample_s.push_back(watch.Seconds());
    std::string tag = StrFormat("rep %d", rep);
    CheckOutput(data, out, tag, result);
    uint32_t crc = OutputCrc(out);
    if (rep == 0) {
      first_crc = crc;
      borderline = BorderlineShare(data, eos.last_stats());
    }
    result.Check(crc == first_crc, StrFormat("%s: output CRC %08x != %08x",
                                             tag.c_str(), crc, first_crc));
  }
  CheckAgainstBrute(data, result);

  double median_s = Median(resample_s);
  double rows_per_s = static_cast<double>(data.size()) / median_s;
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("time_ms", median_s * 1e3, "ms");
  result.Add("quality", borderline, "frac");
  result.Print("resample_rows_per_s", rows_per_s, "1/s");
  result.Print("resample_s", median_s, "s");
  result.Print("resample_runs", static_cast<double>(resample_s.size()),
              "count");
  result.Print("input_rows", static_cast<double>(data.size()), "count");
  result.Print("dim", kDim, "count");
  result.Print("intrinsic_dim", kIntrinsicDim, "count");
  result.Print("borderline_share", borderline, "frac");
  result.Print("output_crc", first_crc, "crc32");
  return result;
}

RunResult Traced(const Args& args, Tracer* tracer) {
  RunResult result;
  FeatureSet data = ToFeatureSet(Generate(args.seed));
  result.knn_backend = KnnModeName(ResolveKnnChoice(data.size()).backend);
  TimeResample(data, args.seed);  // warm-up
  double untraced_s = TimeResample(data, args.seed);

  ++result.attempted;
  FeatureSet out;
  {
    ScopedSpan span(tracer, "sampling.resample");
    TimeResample(data, args.seed, &out);
  }
  double resample_s = tracer->TotalSeconds("sampling.resample");
  CheckOutput(data, out, "traced", result);
  ProbeKnnLayer(data, kEosK, tracer, result);

  double serial_s = AtOneLane([&] { return TimeResample(data, args.seed); });

  result.Add("sampling.resample_s", resample_s, "s");
  result.Add("sampling.self_s",
             resample_s - tracer->TotalSeconds("ml.knn_build") -
                 tracer->TotalSeconds("ml.knn_query"),
             "s");
  result.Add("sampling.synthetic_rows",
             static_cast<double>(out.size() - data.size()), "count");
  result.Add("runtime.speedup", serial_s / untraced_s, "x");
  result.Add("trace.overhead_frac", (resample_s - untraced_s) / untraced_s,
             "frac");
  result.Print("untraced_resample_s", untraced_s, "s");
  result.Print("one_lane_resample_s", serial_s, "s");
  result.Print("input_rows", static_cast<double>(data.size()), "count");
  result.Print("intrinsic_dim", kIntrinsicDim, "count");
  return result;
}

}  // namespace

void ProbeKnnLayer(const FeatureSet& data, int64_t k, Tracer* tracer,
                   RunResult& result) {
  std::vector<int64_t> counts = data.ClassCounts();
  int64_t majority = *std::max_element(counts.begin(), counts.end());
  int64_t kk = std::min<int64_t>(k, data.size() - 1);
  std::unique_ptr<KnnSearcher> searcher;
  {
    ScopedSpan span(tracer, "ml.knn_build");
    searcher = std::make_unique<KnnSearcher>(data.features);
  }
  {
    ScopedSpan span(tracer, "ml.knn_query");
    for (int64_t c = 0; c < data.num_classes; ++c) {
      int64_t count = counts[static_cast<size_t>(c)];
      if (count == 0 || count == majority) continue;
      searcher->QueryRows(data.ClassIndices(c), kk);
    }
  }
  // Traversal counters: the tree reports points scanned per query; brute
  // force scans every other point by construction.
  double points_per_query = static_cast<double>(data.size() - 1);
  if (searcher->choice().backend != KnnMode::kBrute) {
    KdTreeIndex tree(data.features);
    std::vector<int64_t> sample = Sample(MinorityRows(data));
    double scanned = 0;
    for (int64_t row : sample) {
      KnnQueryStats stats;
      tree.QueryWithStats(data.features.data() + row * data.dim(), kk, row,
                          &stats);
      scanned += static_cast<double>(stats.points_scanned);
    }
    points_per_query = scanned / static_cast<double>(sample.size());
  }
  result.Add("ml.knn_build_s", tracer->TotalSeconds("ml.knn_build"), "s");
  result.Add("ml.knn_query_s", tracer->TotalSeconds("ml.knn_query"), "s");
  result.Add("ml.knn_points_per_query", points_per_query, "count");
  result.Add("ml.knn_scan_yield",
             static_cast<double>(kk) / points_per_query, "frac");
}

RunResult RunFeResample(const Args& args, Tracer* tracer) {
  return tracer != nullptr ? Traced(args, tracer) : Untraced(args);
}

}  // namespace eos::perfbench
