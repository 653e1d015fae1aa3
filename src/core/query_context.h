// QueryContext: the single observability handle a query carries through an
// engine. It bundles the three channels the layers used to smuggle as
// separate nullable pointers — the phase-breakdown Profiler (Table III/V,
// Fig 8), the parallel-scaling accounting (Fig 9/18), and the always-on
// metrics sink — so SearchParams stays a plain knob struct and future
// channels (tracing, quotas) have one place to live.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/profiler.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/parallel.h"
#include "obs/metrics.h"

namespace vecdb {

struct QueryContext {
  /// Optional per-phase time breakdown (merged by the caller; not
  /// thread-safe, same contract as before).
  Profiler* profiler = nullptr;

  /// Optional per-worker busy/serial accounting for the scaling model.
  ParallelAccounting* accounting = nullptr;

  /// Metrics sink; null means the process-wide registry
  /// (obs::MetricsRegistry::Global()). Tests point this at a local
  /// registry to read per-query counters in isolation.
  obs::MetricsRegistry* metrics = nullptr;

  /// The registry this query reports into, or null when metrics are
  /// disabled. Engines resolve this once per query and branch on the
  /// pointer, so the disabled path costs one branch per scope — the same
  /// contract as the nullable Profiler.
  /// Cooperative cancellation flag (docs/SERVER.md). Owned by the caller
  /// (typically the statement's Session); null means "not cancellable".
  /// Engines poll it at loop checkpoints — per IVF bucket, every few dozen
  /// HNSW beam pops, every few hundred seq-scan rows — so a set flag stops
  /// the statement within one checkpoint interval.
  const std::atomic<bool>* cancel = nullptr;

  /// Per-statement tally of the tuples the engines visited (the SQL
  /// layer's rows_scanned); null means "not counted". Engines add to it
  /// where they flush their SearchCounters, so it holds this statement's
  /// traffic alone, whatever other statements run beside it.
  std::atomic<uint64_t>* tuples_visited = nullptr;

  void CountTuples(uint64_t n) const {
    if (tuples_visited != nullptr) {
      tuples_visited->fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Absolute statement deadline on the NowNanos() (steady) clock; 0 means
  /// no deadline. Resolved by the SQL layer from statement_timeout_ms
  /// (statement OPTIONS > session default > DatabaseOptions).
  int64_t deadline_nanos = 0;

  /// True once the statement should stop: its cancel flag is set or its
  /// deadline has passed. Cheap enough for checkpoint-granularity polling
  /// (one relaxed load plus, when a deadline exists, one clock read).
  bool StopRequested() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline_nanos != 0 && NowNanos() >= deadline_nanos;
  }

  /// Checkpoint helper: OK while the statement may keep running, else a
  /// Cancelled status whose message distinguishes an explicit cancel from
  /// a deadline expiry (the SQL layer keys timeout metrics off it).
  Status CheckStop(const char* who) const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled(std::string(who) + ": statement cancelled");
    }
    if (deadline_nanos != 0 && NowNanos() >= deadline_nanos) {
      return Status::Cancelled(std::string(who) + ": statement timeout");
    }
    return Status::OK();
  }

  obs::MetricsRegistry* live_metrics() const {
    obs::MetricsRegistry* m =
        metrics != nullptr ? metrics : &obs::MetricsRegistry::Global();
    return m->enabled() ? m : nullptr;
  }
};

}  // namespace vecdb
