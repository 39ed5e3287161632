#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "runtime/parallel_for.h"
#include "tensor/simd/dispatch.h"

namespace eos {
namespace {

// The runtime's element-wise grain (see runtime/parallel_for.h).
constexpr int64_t kElemGrain = runtime::kElementGrain;
// Row-wise ops (softmax, argmax) do real work per row; smaller grain.
constexpr int64_t kRowGrain = 16;
// Reductions accumulate per-chunk partials (fixed chunking from the element
// count alone) and combine them in ascending chunk order.
constexpr int64_t kReduceGrain = 1 << 15;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  EOS_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + pb[i];
  });
  return out;
}

void AddInPlace(Tensor& a, const Tensor& b) {
  EOS_CHECK(SameShape(a, b));
  float* pa = a.data();
  const float* pb = b.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void Axpy(float alpha, const Tensor& b, Tensor& a) {
  EOS_CHECK(SameShape(a, b));
  float* pa = a.data();
  const float* pb = b.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += alpha * pb[i];
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  EOS_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] - pb[i];
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  EOS_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] * pb[i];
  });
  return out;
}

Tensor Scale(const Tensor& a, float scalar) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] * scalar;
  });
  return out;
}

void ScaleInPlace(Tensor& a, float scalar) {
  float* pa = a.data();
  runtime::ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] *= scalar;
  });
}

double Sum(const Tensor& a) {
  const float* pa = a.data();
  int64_t total = a.numel();
  int64_t chunks = runtime::NumChunks(total, kReduceGrain);
  if (chunks <= 1) {
    double s = 0.0;
    for (int64_t i = 0; i < total; ++i) s += pa[i];
    return s;
  }
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  runtime::ParallelForChunks(chunks, [&](int64_t c) {
    int64_t lo = c * kReduceGrain;
    int64_t hi = std::min(total, lo + kReduceGrain);
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += pa[i];
    partial[static_cast<size_t>(c)] = s;
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return s;
}

double Mean(const Tensor& a) {
  if (a.numel() == 0) return 0.0;
  return Sum(a) / static_cast<double>(a.numel());
}

float MaxAbs(const Tensor& a) {
  float m = 0.0f;
  const float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(pa[i]));
  return m;
}

double Norm2(const Tensor& a) {
  const float* pa = a.data();
  int64_t total = a.numel();
  int64_t chunks = runtime::NumChunks(total, kReduceGrain);
  if (chunks <= 1) {
    double s = 0.0;
    for (int64_t i = 0; i < total; ++i) {
      s += static_cast<double>(pa[i]) * pa[i];
    }
    return std::sqrt(s);
  }
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  runtime::ParallelForChunks(chunks, [&](int64_t c) {
    int64_t lo = c * kReduceGrain;
    int64_t hi = std::min(total, lo + kReduceGrain);
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      s += static_cast<double>(pa[i]) * pa[i];
    }
    partial[static_cast<size_t>(c)] = s;
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return std::sqrt(s);
}

Tensor Transpose2D(const Tensor& a) {
  EOS_CHECK_EQ(a.dim(), 2);
  int64_t rows = a.size(0);
  int64_t cols = a.size(1);
  Tensor out({cols, rows});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      po[j * rows + i] = pa[i * cols + j];
    }
  }
  return out;
}

std::vector<int64_t> ArgMaxRows(const Tensor& logits) {
  EOS_CHECK_EQ(logits.dim(), 2);
  int64_t n = logits.size(0);
  int64_t d = logits.size(1);
  EOS_CHECK_GT(d, 0);
  std::vector<int64_t> out(static_cast<size_t>(n));
  const float* p = logits.data();
  runtime::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = p + i * d;
      int64_t best = 0;
      for (int64_t j = 1; j < d; ++j) {
        if (row[j] > row[best]) best = j;
      }
      out[static_cast<size_t>(i)] = best;
    }
  });
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  EOS_CHECK_EQ(logits.dim(), 2);
  int64_t n = logits.size(0);
  int64_t d = logits.size(1);
  Tensor out({n, d});
  // Dispatched kernel (row-parallel inside); the exp/denominator math is
  // shared scalar code on every ISA, so results are bitwise path-identical.
  simd::Active().softmax_rows(logits.data(), out.data(), n, d);
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  EOS_CHECK_EQ(logits.dim(), 2);
  int64_t n = logits.size(0);
  int64_t d = logits.size(1);
  Tensor out({n, d});
  const float* p = logits.data();
  float* po = out.data();
  runtime::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = p + i * d;
      float* orow = po + i * d;
      float mx = row[0];
      for (int64_t j = 1; j < d; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (int64_t j = 0; j < d; ++j) denom += std::exp(row[j] - mx);
      float log_denom = static_cast<float>(std::log(denom)) + mx;
      for (int64_t j = 0; j < d; ++j) orow[j] = row[j] - log_denom;
    }
  });
  return out;
}

void CopyRow(const Tensor& src, int64_t src_row, Tensor& dst,
             int64_t dst_row) {
  EOS_CHECK_EQ(src.dim(), 2);
  EOS_CHECK_EQ(dst.dim(), 2);
  EOS_CHECK_EQ(src.size(1), dst.size(1));
  EOS_CHECK(src_row >= 0 && src_row < src.size(0));
  EOS_CHECK(dst_row >= 0 && dst_row < dst.size(0));
  int64_t d = src.size(1);
  std::memcpy(dst.data() + dst_row * d, src.data() + src_row * d,
              static_cast<size_t>(d) * sizeof(float));
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  EOS_CHECK_EQ(a.dim(), 2);
  int64_t d = a.size(1);
  Tensor out({static_cast<int64_t>(indices.size()), d});
  runtime::ParallelFor(
      0, static_cast<int64_t>(indices.size()), kRowGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          CopyRow(a, indices[static_cast<size_t>(i)], out, i);
        }
      });
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  EOS_CHECK(!parts.empty());
  int64_t d = parts[0].size(1);
  int64_t total = 0;
  for (const Tensor& t : parts) {
    EOS_CHECK_EQ(t.dim(), 2);
    EOS_CHECK_EQ(t.size(1), d);
    total += t.size(0);
  }
  Tensor out({total, d});
  int64_t row = 0;
  for (const Tensor& t : parts) {
    std::memcpy(out.data() + row * d, t.data(),
                static_cast<size_t>(t.numel()) * sizeof(float));
    row += t.size(0);
  }
  return out;
}

Tensor GatherImages(const Tensor& a, const std::vector<int64_t>& indices) {
  EOS_CHECK_EQ(a.dim(), 4);
  int64_t c = a.size(1);
  int64_t h = a.size(2);
  int64_t w = a.size(3);
  int64_t stride = c * h * w;
  Tensor out({static_cast<int64_t>(indices.size()), c, h, w});
  // Per-sample image copies are disjoint; this is the trainer's batch-gather
  // hot path.
  runtime::ParallelFor(
      0, static_cast<int64_t>(indices.size()), /*grain=*/4,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          int64_t idx = indices[static_cast<size_t>(i)];
          EOS_CHECK(idx >= 0 && idx < a.size(0));
          std::memcpy(out.data() + i * stride, a.data() + idx * stride,
                      static_cast<size_t>(stride) * sizeof(float));
        }
      });
  return out;
}

}  // namespace eos
