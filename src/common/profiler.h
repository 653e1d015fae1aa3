// Named-counter profiler that replaces the paper's use of Linux `perf` +
// flame graphs. Both engines are instrumented with the same phase labels the
// paper reports (e.g. "fvec_L2sqr", "TupleAccess", "MinHeap",
// "SearchNbToAdd"), so the breakdown tables (Table III, Table V, Fig 8) can
// be regenerated deterministically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/timer.h"

namespace vecdb {

/// Accumulates elapsed nanoseconds and hit counts under string labels.
///
/// Not thread-safe by design: one thread records into a Profiler. Engines
/// attach it only to work that runs on a single worker (a parallel search
/// or build records nothing), and accept a nullable `Profiler*`; a null
/// profiler costs one branch per scope.
class Profiler {
 public:
  /// Adds `nanos` (and one hit) to the counter named `label`.
  void Add(std::string_view label, int64_t nanos) {
    auto& e = entries_[std::string(label)];
    e.nanos += nanos;
    e.hits += 1;
  }

  /// Total nanoseconds recorded under `label` (0 if absent).
  int64_t Nanos(std::string_view label) const {
    auto it = entries_.find(std::string(label));
    return it == entries_.end() ? 0 : it->second.nanos;
  }

  /// Number of times `label` was recorded.
  int64_t Hits(std::string_view label) const {
    auto it = entries_.find(std::string(label));
    return it == entries_.end() ? 0 : it->second.hits;
  }

  /// Seconds recorded under `label`.
  double Seconds(std::string_view label) const { return Nanos(label) * 1e-9; }

 private:
  struct Entry {
    int64_t nanos = 0;
    int64_t hits = 0;
  };
  std::map<std::string, Entry> entries_;
};

/// RAII scope that charges its lifetime to `label` on a (nullable) profiler.
class ProfScope {
 public:
  ProfScope(Profiler* profiler, std::string_view label)
      : profiler_(profiler), label_(label) {
    if (profiler_ != nullptr) start_ = NowNanos();
  }

  ~ProfScope() {
    if (profiler_ != nullptr) profiler_->Add(label_, NowNanos() - start_);
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* profiler_;
  std::string_view label_;
  int64_t start_ = 0;
};

}  // namespace vecdb
