#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace eos::perfbench {
namespace {

uint32_t ThisThreadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::AppendLocked(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = ThisThreadId();
  span.start_ns = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(std::move(span));
}

void Tracer::End(int64_t id) {
  int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::AddAsync(const std::string& name, Clock::time_point start,
                         Clock::time_point end, int64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.tid = ThisThreadId();
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  span.async = true;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(std::move(span));
}

int64_t Tracer::AddComplete(const std::string& name, Clock::time_point start,
                            Clock::time_point end, int64_t parent,
                            int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.tid = ThisThreadId();
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(std::move(span));
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name && s.end_ns >= 0) {
      ns += s.end_ns - s.start_ns - child_ns[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  auto event = [&](const Span& s, const char* ph, int64_t ts_ns,
                   int64_t span_id) {
    std::fputs(first ? "" : ",\n", f);
    first = false;
    std::fputs("{\"name\": ", f);
    WriteJsonString(f, s.name);
    std::string cat = s.name.substr(0, s.name.find('.'));
    std::fputs(", \"cat\": ", f);
    WriteJsonString(f, cat);
    std::fprintf(f, ", \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u",
                 ph, static_cast<double>(ts_ns) * 1e-3, s.tid);
    if (ph[0] == 'X') {
      std::fprintf(f, ", \"dur\": %.3f",
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    } else {
      std::fprintf(f, ", \"id\": %lld", static_cast<long long>(s.request));
    }
    std::fprintf(f, ", \"args\": {\"span\": %lld, \"parent\": %lld",
                 static_cast<long long>(span_id),
                 static_cast<long long>(s.parent));
    if (s.request >= 0) {
      std::fprintf(f, ", \"request\": %lld", static_cast<long long>(s.request));
    }
    std::fputs("}}", f);
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    int64_t id = static_cast<int64_t>(i);
    if (s.async) {
      event(s, "b", s.start_ns, id);
      event(s, "e", s.end_ns, id);
    } else {
      event(s, "X", s.start_ns, id);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace eos::perfbench
