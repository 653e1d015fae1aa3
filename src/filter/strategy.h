// Filter-strategy vocabulary and the selectivity-aware planner. The
// filter-agnostic PostgreSQL study (PAPERS.md) shows filtered-ANN cost is
// dominated by which of three strategies runs:
//
//   pre-filter   evaluate the predicate first, brute-force the survivors.
//                Optimal at low selectivity: the survivor set is smaller
//                than what any index traversal would visit.
//   in-filter    push the bitmap into the index traversal (bucket scans,
//                graph expansion) so non-matching tuples never enter the
//                heap. Optimal at mid selectivity: index pruning still
//                helps and the bitmap rarely starves the traversal.
//   post-filter  search with amplified k' = k / est_selectivity, drop
//                non-matching results, retry with doubled k' until k
//                survivors. Optimal near selectivity 1: amplification is
//                tiny and the index runs at full, unfiltered speed.
//
// ChooseStrategy picks by crossover thresholds on the estimated
// selectivity; docs/FILTERING.md tabulates the regimes. Header-only so the
// engine-neutral VectorIndex::FilteredSearch entry point can plan without
// a library dependency.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.h"

namespace vecdb::filter {

enum class FilterStrategy : uint8_t {
  kAuto,        ///< planner picks by estimated selectivity
  kPreFilter,   ///< predicate first, brute-force survivors
  kPostFilter,  ///< k-amplified search, filter results, retry on shortfall
  kInFilter,    ///< bitmap pushed into the index traversal
};

inline const char* StrategyName(FilterStrategy s) {
  switch (s) {
    case FilterStrategy::kAuto: return "auto";
    case FilterStrategy::kPreFilter: return "prefilter";
    case FilterStrategy::kPostFilter: return "postfilter";
    case FilterStrategy::kInFilter: return "infilter";
  }
  return "?";
}

/// Parses a user-supplied strategy name (the SQL
/// `OPTIONS (filter_strategy=...)` value).
inline Result<FilterStrategy> ParseStrategy(const std::string& name) {
  if (name == "auto") return FilterStrategy::kAuto;
  if (name == "prefilter") return FilterStrategy::kPreFilter;
  if (name == "postfilter") return FilterStrategy::kPostFilter;
  if (name == "infilter") return FilterStrategy::kInFilter;
  return Status::InvalidArgument(
      "unknown filter_strategy '" + name +
      "' (expected auto, prefilter, postfilter, or infilter)");
}

/// Planner constants. The thresholds are the selectivity crossovers from
/// the filter-agnostic study's cost curves; kPlannerSampleRows bounds the
/// selectivity probe the SQL layer runs over the heap.
inline constexpr double kPrefilterThreshold = 0.05;  ///< sel <= this: pre
inline constexpr double kInfilterThreshold = 0.50;   ///< sel <= this: in
inline constexpr size_t kPlannerSampleRows = 256;    ///< rows sampled

/// Picks a strategy for an estimated selectivity. Also routes to
/// pre-filter whenever the estimated match count is within the requested
/// k: the brute-force survivor scan then visits no more tuples than the
/// result itself needs.
inline FilterStrategy ChooseStrategy(double est_selectivity, size_t k,
                                     size_t num_rows) {
  const double est_matches =
      est_selectivity * static_cast<double>(num_rows);
  if (est_selectivity <= kPrefilterThreshold ||
      est_matches <= static_cast<double>(k)) {
    return FilterStrategy::kPreFilter;
  }
  if (est_selectivity <= kInfilterThreshold) {
    return FilterStrategy::kInFilter;
  }
  return FilterStrategy::kPostFilter;
}

}  // namespace vecdb::filter
