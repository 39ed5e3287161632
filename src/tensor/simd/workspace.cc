#include "tensor/simd/workspace.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace eos::simd {
namespace {

constexpr int64_t kAlignment = 64;  // cache line; covers 32-byte AVX loads

thread_local Workspace* t_bound_workspace = nullptr;

// Bytes a lane needs for `count` floats. aligned_alloc requires the size to
// be a multiple of the alignment.
int64_t AlignedBytes(int64_t count) {
  int64_t bytes = count * static_cast<int64_t>(sizeof(float));
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

}  // namespace

void WorkspaceLane::FreeDeleter::operator()(float* p) const { std::free(p); }

WorkspaceLane::~WorkspaceLane() = default;

float* WorkspaceLane::Floats(int64_t count) {
  EOS_CHECK_GE(count, 0);
  int64_t bytes = AlignedBytes(count);
  if (bytes > capacity_bytes_) {
    // Scratch contents never survive a call, so grow by realloc-free
    // replace instead of copy.
    data_.reset(static_cast<float*>(
        std::aligned_alloc(static_cast<size_t>(kAlignment),
                           static_cast<size_t>(bytes))));
    EOS_CHECK(data_ != nullptr);
    capacity_bytes_ = bytes;
  }
  return data_.get();
}

LaneGuard::~LaneGuard() { pool_->Release(lane_); }

LaneGuard Workspace::AcquireLane(int64_t floats) {
  int64_t need = AlignedBytes(floats);
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    // Best fit: the smallest lane that already fits, else the largest one.
    auto better = [need](const WorkspaceLane* a, const WorkspaceLane* b) {
      bool a_fits = a->CapacityBytes() >= need;
      bool b_fits = b->CapacityBytes() >= need;
      if (a_fits != b_fits) return a_fits;
      return a_fits ? a->CapacityBytes() < b->CapacityBytes()
                    : a->CapacityBytes() > b->CapacityBytes();
    };
    auto it = std::min_element(free_.begin(), free_.end(), better);
    WorkspaceLane* lane = *it;
    free_.erase(it);
    return LaneGuard(this, lane);
  }
  lanes_.push_back(std::make_unique<WorkspaceLane>());
  return LaneGuard(this, lanes_.back().get());
}

void Workspace::Release(WorkspaceLane* lane) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(lane);
}

int64_t Workspace::TotalCapacityBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const std::unique_ptr<WorkspaceLane>& lane : lanes_) {
    total += lane->CapacityBytes();
  }
  return total;
}

int64_t Workspace::LaneCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lanes_.size());
}

Workspace* Workspace::Current() {
  if (t_bound_workspace != nullptr) return t_bound_workspace;
  return &ProcessDefault();
}

Workspace& Workspace::ProcessDefault() {
  static Workspace* process_default = new Workspace();  // lint:allow(naked-new) intentionally leaked process singleton
  return *process_default;
}

Workspace::ScopedBind::ScopedBind(Workspace* ws) {
  previous_ = t_bound_workspace;
  t_bound_workspace = ws;
}

Workspace::ScopedBind::~ScopedBind() { t_bound_workspace = previous_; }

}  // namespace eos::simd
