// Work accounting for the parallel-scaling experiments (paper Fig 9 and
// Fig 18). On a shared or oversubscribed host, wall-clock time includes
// time a worker spent descheduled, so it cannot demonstrate multi-thread
// scaling; instead, engines record how much per-thread CPU time each
// worker accumulated and how much time was inherently serialized
// (global-lock critical sections, result merging, or BLAS-delegated
// kernels). The modeled makespan
//     max(worker busy) + serialized
// is what a machine with one core per worker would observe, and it exposes
// exactly the contrast the paper measures: Faiss's local-heap reduction has
// a negligible serial term, while PASE's locked global heap serializes
// every insertion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace vecdb {

/// Per-worker busy time plus serialized time for one parallel operation.
struct ParallelAccounting {
  std::vector<int64_t> worker_busy_nanos;
  int64_t serial_nanos = 0;

  /// Clears counters and sizes the per-worker slots.
  void Reset(int num_workers) {
    worker_busy_nanos.assign(static_cast<size_t>(num_workers), 0);
    serial_nanos = 0;
  }

  /// Modeled wall seconds on one core per worker: critical path of the
  /// static-partitioned phase plus everything serialized.
  double ModeledSeconds() const {
    int64_t busy = 0;
    for (int64_t b : worker_busy_nanos) busy = std::max(busy, b);
    return (busy + serial_nanos) * 1e-9;
  }

  /// Total CPU work in seconds (busy + serial), independent of thread count.
  double TotalWorkSeconds() const {
    int64_t total = serial_nanos;
    for (int64_t b : worker_busy_nanos) total += b;
    return total * 1e-9;
  }
};

/// Runs `fn(worker, begin, end)` over a static partition of [0, n): inline
/// on the calling thread when `workers` is 1, else on a ThreadPool. Each
/// worker's CPU time is charged to `acct` (nullable), whose slots are
/// resized to `workers` first; callers charge their own serial sections.
template <typename Fn>
void RunWorkers(int workers, size_t n, ParallelAccounting* acct, Fn&& fn) {
  if (acct != nullptr &&
      acct->worker_busy_nanos.size() != static_cast<size_t>(workers)) {
    acct->Reset(workers);
  }
  auto timed = [&](int worker, size_t begin, size_t end) {
    const int64_t start = acct != nullptr ? ThreadCpuNanos() : 0;
    fn(worker, begin, end);
    if (acct != nullptr) {
      acct->worker_busy_nanos[worker] += ThreadCpuNanos() - start;
    }
  };
  if (workers <= 1) {
    timed(0, 0, n);
    return;
  }
  ThreadPool pool(workers);
  pool.ParallelFor(n, timed);
}

}  // namespace vecdb
