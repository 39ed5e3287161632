#ifndef EOS_TENSOR_SIMD_WORKSPACE_H_
#define EOS_TENSOR_SIMD_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_annotations.h"

/// \file
/// Preallocated, reusable kernel scratch. The SIMD conv driver needs an
/// im2col column buffer per concurrently-running chunk; before this layer
/// each ParallelFor chunk heap-allocated (and freed) its own std::vector,
/// so a serving replica churned the allocator on every batch. A Workspace
/// is a small pool of grow-only 64-byte-aligned buffers ("lanes"): a chunk
/// acquires a lane for the duration of its work and releases it on scope
/// exit, and once every lane has grown to the model's working-set size the
/// pool reaches a fixed point — steady-state kernel calls perform zero heap
/// allocations (proven by the capacity-stable-after-warmup test in
/// tests/serve/simd_serve_test.cc).
///
/// Ownership and resolution: `serve::ModelSession` owns one Workspace per
/// replica and binds it around inference with `ScopedBind` (a thread_local
/// pointer). Code that runs outside any binding — training, offline eval,
/// tests — falls through to a process-wide default Workspace. Kernel
/// drivers must resolve `Workspace::Current()` BEFORE entering a
/// ParallelFor: pool worker threads never see the caller's thread_local
/// binding, so the resolved pointer is captured into the parallel lambda.
///
/// Thread safety: Acquire/release take a short internal mutex; the buffers
/// themselves are exclusively owned by the acquiring scope, so kernel inner
/// loops run lock-free.

namespace eos::simd {

/// One exclusively-held scratch lane. Buffers are grow-only and 64-byte
/// aligned; pointers returned by Floats() are invalidated by the next
/// Floats() call on the same lane with a larger count.
class WorkspaceLane {
 public:
  WorkspaceLane() = default;
  ~WorkspaceLane();
  WorkspaceLane(const WorkspaceLane&) = delete;
  WorkspaceLane& operator=(const WorkspaceLane&) = delete;

  /// Scratch for `count` floats, growing (without preserving contents) when
  /// the current capacity is smaller. Contents are uninitialized.
  float* Floats(int64_t count);

  /// Current capacity in bytes (for the steady-state tests).
  int64_t CapacityBytes() const { return capacity_bytes_; }

 private:
  struct FreeDeleter {
    void operator()(float* p) const;
  };
  std::unique_ptr<float, FreeDeleter> data_;
  int64_t capacity_bytes_ = 0;
};

class Workspace;

/// RAII acquisition of a lane from a Workspace pool.
class LaneGuard {
 public:
  LaneGuard(Workspace* pool, WorkspaceLane* lane) : pool_(pool), lane_(lane) {}
  ~LaneGuard();
  LaneGuard(const LaneGuard&) = delete;
  LaneGuard& operator=(const LaneGuard&) = delete;

  WorkspaceLane& lane() { return *lane_; }

 private:
  Workspace* pool_;
  WorkspaceLane* lane_;
};

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Pops the free lane that best fits a request for `floats` floats: the
  /// smallest one that already holds that many, else the largest one (so
  /// the fewest bytes grow). A lane is created only when every existing
  /// lane is in use, so the pool size converges to the peak concurrency —
  /// bounded by the runtime pool's thread count plus the caller. Best fit
  /// keeps a rare large request (conv backward's tile lane) from growing
  /// every lane in the pool to its size.
  LaneGuard AcquireLane(int64_t floats);

  /// Total capacity across all lanes, busy or free. Stable once warmed up.
  int64_t TotalCapacityBytes() const;

  /// Number of lanes ever created (diagnostics / tests).
  int64_t LaneCount() const;

  /// The Workspace the current thread should use: the innermost ScopedBind
  /// on this thread, else the process-wide default (never null). Resolve
  /// before ParallelFor — pool threads don't inherit the binding.
  static Workspace* Current();

  /// The process-wide default used outside any binding.
  static Workspace& ProcessDefault();

  /// Binds a Workspace to the current thread for the scope's lifetime.
  class ScopedBind {
   public:
    explicit ScopedBind(Workspace* ws);
    ~ScopedBind();
    ScopedBind(const ScopedBind&) = delete;
    ScopedBind& operator=(const ScopedBind&) = delete;

   private:
    Workspace* previous_;
  };

 private:
  friend class LaneGuard;
  void Release(WorkspaceLane* lane);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<WorkspaceLane>> lanes_ GUARDED_BY(mu_);
  std::vector<WorkspaceLane*> free_ GUARDED_BY(mu_);
};

}  // namespace eos::simd

#endif  // EOS_TENSOR_SIMD_WORKSPACE_H_
