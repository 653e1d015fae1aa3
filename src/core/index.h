// The engine-neutral index interface. Every index in the three engines
// (faisslike, pase, bridge) implements this, so benchmarks, examples, and
// the SQL executor can drive any of them interchangeably.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/profiler.h"
#include "common/status.h"
#include "core/parallel.h"
#include "core/query_context.h"
#include "filter/selection.h"
#include "filter/strategy.h"
#include "topk/neighbor.h"

namespace vecdb {

/// Per-query knobs. Field names follow the paper's Table II.
struct SearchParams {
  size_t k = 100;        ///< top-k result size
  uint32_t nprobe = 20;  ///< IVF buckets probed (IVF_* indexes only)
  uint32_t efs = 200;    ///< HNSW search queue length (HNSW only)
  int num_threads = 1;   ///< intra-query parallelism (RC#3)
  /// Observability handle: profiler + parallel accounting + metrics sink.
  QueryContext ctx;
};

/// A filtered query's predicate side: the selection bitmap (indexed by
/// index position), the strategy to run (kAuto lets the planner pick), and
/// an optional sampled selectivity estimate.
struct FilterRequest {
  /// Required. Position `i` selected means vector `i` may appear in
  /// results. Built by the SQL layer from the WHERE predicate and the
  /// table's dead rows.
  const filter::SelectionVector* selection = nullptr;

  filter::FilterStrategy strategy = filter::FilterStrategy::kAuto;

  /// Sampled selectivity estimate in [0, 1]; negative means "unknown",
  /// in which case the exact bitmap fraction is used. The estimate (not
  /// the exact count) feeds the planner, mirroring a real optimizer.
  double est_selectivity = -1.0;
};

/// What a Search() implementation consumes of SearchParams, for uniform
/// boundary validation across all three engines.
enum class IndexKind {
  kFlat,   ///< exhaustive scan: only k applies
  kIvf,    ///< inverted lists: k and nprobe
  kGraph,  ///< HNSW: k and efs
};

/// Validates query knobs at the API boundary. Out-of-range knobs return
/// InvalidArgument instead of silently clamping (a k=0 query returned
/// nothing, nprobe=0 probed one bucket anyway, efs<k truncated results);
/// every engine calls this first so the three engines reject uniformly.
inline Status ValidateSearchParams(const SearchParams& params, IndexKind kind,
                                   std::string_view who) {
  if (params.k == 0) {
    return Status::InvalidArgument(std::string(who) + ": k == 0");
  }
  if (kind == IndexKind::kIvf && params.nprobe == 0) {
    return Status::InvalidArgument(std::string(who) +
                                   ": nprobe == 0 (must probe >= 1 bucket)");
  }
  if (kind == IndexKind::kGraph && params.efs < params.k) {
    return Status::InvalidArgument(
        std::string(who) + ": efs (" + std::to_string(params.efs) +
        ") < k (" + std::to_string(params.k) +
        "); the search queue must cover the result size");
  }
  return Status::OK();
}

/// Wall-clock split of index construction, matching the paper's
/// training/adding decomposition (Fig 3).
struct BuildStats {
  double train_seconds = 0.0;
  double add_seconds = 0.0;
  double total_seconds() const { return train_seconds + add_seconds; }
  /// Worker accounting for parallel builds (Fig 9 scaling model).
  ParallelAccounting accounting;
};

/// Abstract approximate-nearest-neighbor index over row-major float data.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Trains internal structures (if any) and adds vectors 0..n-1.
  /// Populates build_stats().
  virtual Status Build(const float* data, size_t n) = 0;

  /// Inserts one vector after Build; its id is the current NumVectors().
  /// Indexes without incremental maintenance return NotSupported. One
  /// Insert at a time may run beside any number of searches.
  virtual Status Insert(const float* vec) {
    (void)vec;
    return Status::NotSupported(Describe() +
                                ": incremental insert not supported");
  }

  /// Writes the built index to one self-describing file (Faiss's
  /// write_index). Indexes without snapshots return NotSupported; the SQL
  /// layer rebuilds those from the heap on recovery.
  virtual Status Save(const std::string& path) const {
    (void)path;
    return Status::NotSupported(Describe() + ": snapshots not supported");
  }

  /// Replaces this index with a file its class's Save wrote (Faiss's
  /// read_index). The file's options replace the constructed ones; a file
  /// of another dimension is Corruption. On failure the index is unchanged.
  virtual Status Load(const std::string& path) {
    (void)path;
    return Status::NotSupported(Describe() + ": snapshots not supported");
  }

  /// Top-k search; results ascending by distance. Reentrant: any number
  /// of threads may search one index at once, because no implementation
  /// keeps search scratch in the index (per-query or per-thread only).
  /// Searches (this, SearchBatch, FilteredSearch, NumVectors) may also run
  /// beside one Insert: each index guards its own appends (bucket or
  /// index latches) and sees a row either whole or not at all. Callers
  /// serialize Insert, Build and Load.
  virtual Result<std::vector<Neighbor>> Search(
      const float* query, const SearchParams& params) const = 0;

  /// Batched top-k search over `nq` queries stored row-major (nq x Dim()),
  /// returning one ascending result list per query, in query order.
  ///
  /// The default runs the single-query Search once per query, so every
  /// index supports the API with unchanged semantics (this is the
  /// generalized-engine behavior: PostgreSQL executes multi-query workloads
  /// one statement at a time). Specialized engines override it to batch
  /// cross-query work — the faisslike IVF indexes select buckets for the
  /// whole batch with one SGEMM call (RC#1) and scan buckets with
  /// inter-query thread-pool parallelism over per-worker k-heaps (RC#3).
  /// `params.num_threads` is the batch-level worker count for overrides;
  /// the fallback forwards it to each single-query Search unchanged.
  virtual Result<std::vector<std::vector<Neighbor>>> SearchBatch(
      const float* queries, size_t nq, const SearchParams& params) const {
    if (queries == nullptr && nq > 0) {
      return Status::InvalidArgument(Describe() +
                                     ": SearchBatch null queries");
    }
    std::vector<std::vector<Neighbor>> out;
    out.reserve(nq);
    for (size_t q = 0; q < nq; ++q) {
      VECDB_ASSIGN_OR_RETURN(
          std::vector<Neighbor> one,
          Search(queries + q * static_cast<size_t>(Dim()), params));
      out.push_back(std::move(one));
    }
    return out;
  }

  /// Attribute-filtered top-k search — the paper-motivated workload
  /// `WHERE <pred> ORDER BY vec <-> q LIMIT k`. Runs the requested
  /// strategy (kAuto lets ChooseStrategy pick from the selectivity
  /// estimate), falls back to post-filter when a planner-chosen strategy
  /// is unimplemented for this index, and records the filter.* metrics.
  /// Results are ascending by distance and contain only selected ids; at
  /// most k, fewer when the bitmap has fewer matches in reach.
  Result<std::vector<Neighbor>> FilteredSearch(const float* query,
                                               const FilterRequest& filter,
                                               const SearchParams& params) const;

  /// Total bytes the index occupies (paper's "index size" metric).
  virtual size_t SizeBytes() const = 0;

  /// Number of indexed vectors.
  virtual size_t NumVectors() const = 0;

  /// Dimensionality of the indexed vectors (the row stride of the query
  /// block passed to SearchBatch).
  virtual uint32_t Dim() const = 0;

  /// Human-readable one-line description ("faisslike::IVF_FLAT c=1000").
  virtual std::string Describe() const = 0;

  /// Construction timing recorded by the last Build().
  const BuildStats& build_stats() const { return build_stats_; }

 protected:
  /// Strategy hooks behind FilteredSearch. Engines override PreFilter /
  /// InFilter with index-native implementations; the base class answers
  /// NotSupported so kAuto can fall back to the universal post-filter.
  virtual Result<std::vector<Neighbor>> PreFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const {
    (void)query;
    (void)selection;
    (void)params;
    return Status::NotSupported(Describe() + ": pre-filter not implemented");
  }
  virtual Result<std::vector<Neighbor>> InFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const {
    (void)query;
    (void)selection;
    (void)params;
    return Status::NotSupported(Describe() + ": in-filter not implemented");
  }
  /// Universal post-filter: search with k' = k / est_selectivity, drop
  /// unselected results, retry with doubled k' until k survivors or the
  /// index is exhausted. Works unchanged for every index because it only
  /// consumes the public Search(); engines may still override it.
  virtual Result<std::vector<Neighbor>> PostFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      double est_selectivity, const SearchParams& params) const;

  BuildStats build_stats_;
};

inline Result<std::vector<Neighbor>> VectorIndex::PostFilterSearch(
    const float* query, const filter::SelectionVector& selection,
    double est_selectivity, const SearchParams& params) const {
  const size_t n = NumVectors();
  if (n == 0) return std::vector<Neighbor>{};
  // First amplification from the estimate; the 1e-3 floor keeps a
  // near-zero estimate from demanding the whole index up front (the
  // retry loop gets there anyway if the estimate was wrong).
  const double sel = std::max(est_selectivity, 1e-3);
  size_t kamp = static_cast<size_t>(
      std::ceil(static_cast<double>(params.k) / sel));
  kamp = std::clamp(kamp, params.k, n);
  obs::MetricsRegistry* metrics = params.ctx.live_metrics();
  std::vector<Neighbor> kept;
  for (;;) {
    SearchParams amplified = params;
    amplified.k = kamp;
    // Graph indexes reject efs < k at the boundary; the amplified query
    // must widen its beam along with its result size.
    if (kamp > amplified.efs) amplified.efs = static_cast<uint32_t>(kamp);
    VECDB_ASSIGN_OR_RETURN(std::vector<Neighbor> raw,
                           Search(query, amplified));
    kept.clear();
    for (const Neighbor& nb : raw) {
      if (nb.id >= 0 && selection.Test(static_cast<size_t>(nb.id))) {
        kept.push_back(nb);
        if (kept.size() == params.k) break;
      }
    }
    // raw.size() < kamp means the search already returned everything it
    // can reach (all probed buckets / the whole connected graph): more
    // amplification cannot surface new survivors.
    const bool exhausted = raw.size() < kamp || kamp >= n;
    if (kept.size() >= params.k || exhausted) break;
    kamp = std::min(kamp * 2, n);
    if (metrics != nullptr) {
      metrics->AddUnchecked(obs::Counter::kFilterKampRetries);
    }
  }
  return kept;
}

inline Result<std::vector<Neighbor>> VectorIndex::FilteredSearch(
    const float* query, const FilterRequest& filter,
    const SearchParams& params) const {
  if (filter.selection == nullptr) {
    return Status::InvalidArgument(
        Describe() + ": FilteredSearch requires a selection vector");
  }
  if (query == nullptr) {
    return Status::InvalidArgument(Describe() +
                                   ": FilteredSearch null query");
  }
  const size_t n = NumVectors();
  double est = filter.est_selectivity;
  if (est < 0.0) {
    est = n == 0 ? 0.0
                 : static_cast<double>(filter.selection->CountSet()) /
                       static_cast<double>(n);
  }
  est = std::min(est, 1.0);
  filter::FilterStrategy strategy = filter.strategy;
  const bool planned = strategy == filter::FilterStrategy::kAuto;
  if (planned) {
    strategy = filter::ChooseStrategy(est, params.k, n);
  }
  obs::MetricsRegistry* metrics = params.ctx.live_metrics();
  if (metrics != nullptr) {
    metrics->RecordUnchecked(obs::Hist::kFilterSelectivityBp,
                             static_cast<uint64_t>(est * 10000.0));
  }
  Result<std::vector<Neighbor>> out =
      Status::Internal("FilteredSearch: no strategy ran");
  switch (strategy) {
    case filter::FilterStrategy::kPreFilter:
      out = PreFilterSearch(query, *filter.selection, params);
      break;
    case filter::FilterStrategy::kInFilter:
      out = InFilterSearch(query, *filter.selection, params);
      break;
    case filter::FilterStrategy::kPostFilter:
      out = PostFilterSearch(query, *filter.selection, est, params);
      break;
    case filter::FilterStrategy::kAuto:
      break;  // unreachable: resolved above
  }
  // A planner choice the index cannot run degrades to post-filter (always
  // available); an explicit user choice surfaces the NotSupported error.
  if (!out.ok() && out.status().IsNotSupported() && planned &&
      strategy != filter::FilterStrategy::kPostFilter) {
    strategy = filter::FilterStrategy::kPostFilter;
    out = PostFilterSearch(query, *filter.selection, est, params);
  }
  if (out.ok() && metrics != nullptr) {
    switch (strategy) {
      case filter::FilterStrategy::kPreFilter:
        metrics->AddUnchecked(obs::Counter::kFilterPrefilterQueries);
        break;
      case filter::FilterStrategy::kInFilter:
        metrics->AddUnchecked(obs::Counter::kFilterInfilterQueries);
        break;
      case filter::FilterStrategy::kPostFilter:
        metrics->AddUnchecked(obs::Counter::kFilterPostfilterQueries);
        break;
      case filter::FilterStrategy::kAuto:
        break;
    }
  }
  return out;
}

}  // namespace vecdb
