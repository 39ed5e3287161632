#ifndef EOS_PERFBENCH_TRACE_H_
#define EOS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder of the traced benchmark run. Spans are taken in
/// the benchmark's own files around public calls into each module (the
/// program itself is not instrumented), kept in memory, and written once at
/// exit as Chrome trace-event JSON, which chrome://tracing and Perfetto
/// open. A layer's self time is its span's duration minus the time its
/// child spans cover.

namespace eos::perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    /// Index of the causing span, -1 for a root.
    int64_t parent = -1;
    /// Served-request id; -1 outside serving.
    int64_t request = -1;
    uint32_t tid = 0;
    /// Request spans begin and end on different threads, so they are
    /// exported as async events instead of complete ("X") events.
    bool async = false;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its id.
  int64_t Begin(const std::string& name, int64_t parent = -1);
  void End(int64_t id);
  /// Records a span whose ends were timed elsewhere (possibly on two
  /// threads); exported as an async slice keyed by `request`.
  int64_t AddAsync(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int64_t request);
  /// Records a finished span timed by the caller on the calling thread.
  int64_t AddComplete(const std::string& name, Clock::time_point start,
                      Clock::time_point end, int64_t parent = -1,
                      int64_t request = -1);

  /// Sum of the durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Sum over spans called `name` of (duration - covered by children).
  double SelfSeconds(const std::string& name) const;
  int64_t size() const;

  /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t ToNs(Clock::time_point t) const;
  int64_t AppendLocked(Span span);

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace eos::perfbench

#endif  // EOS_PERFBENCH_TRACE_H_
