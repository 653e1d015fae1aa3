// Benchmark-side tracing and statistics: an in-memory span log recorded
// from the benchmark's own code around each call into the engine, plus the
// small order-statistics helpers the metrics are built from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"

namespace perfbench {

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// One timed interval: `parent` indexes the same log (-1 for a root), and
/// every span of one statement or replayed call shares `stmt`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t stmt = 0;
};

/// Append-only span log owned by one thread. When disabled, Begin/End cost
/// one branch and record nothing, so untraced runs measure the same code.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its handle (-1 when disabled).
  int32_t Begin(const char* name, uint64_t stmt, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, vecdb::NowNanos(), 0, parent, stmt});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t handle) {
    if (handle >= 0) spans_[static_cast<size_t>(handle)].end_ns =
        vecdb::NowNanos();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span over a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t stmt,
             int32_t parent = -1)
      : log_(log), handle_(log->Begin(name, stmt, parent)) {}
  ~ScopedSpan() { log_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t handle() const { return handle_; }

 private:
  SpanLog* log_;
  int32_t handle_;
};

/// Appends each span's self time in microseconds (its duration minus the
/// part of it that its child spans cover) to `out`, keyed by span name.
/// Children never overlap one another (each log belongs to one thread), so
/// a parent's covered time is the sum of its children's durations.
inline void AddSelfTimes(const SpanLog& log,
                         std::map<std::string, std::vector<double>>* out) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    (*out)[spans[i].name].push_back(static_cast<double>(self) / 1e3);
  }
}

}  // namespace perfbench
