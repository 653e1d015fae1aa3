// Shared machinery for the benchmark harness: aligned table printing in the
// paper's row format, batch query timing, recall measurement, and the
// breakdown-table renderer used for Table III, Table V, and Fig 8.
#pragma once

#include <string>
#include <vector>

#include "common/profiler.h"
#include "core/index.h"
#include "datasets/dataset.h"

namespace vecdb {

/// Fixed-width console table writer.
class TablePrinter {
 public:
  /// `widths[i]` is the column width; text is left-aligned, numbers as
  /// given. Prints the header immediately.
  TablePrinter(std::vector<std::string> headers, std::vector<int> widths);

  void Row(const std::vector<std::string>& cells) const;
  void Separator() const;

  /// Formats a double with `digits` decimals.
  static std::string Num(double v, int digits = 2);
  /// Formats "12.3x" speedup strings.
  static std::string Ratio(double v, int digits = 1);
  /// Formats bytes as MB with one decimal.
  static std::string Megabytes(size_t bytes);

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// Timing/recall summary of a query batch.
struct SearchRun {
  double avg_millis = 0.0;
  double recall_at_k = 0.0;  ///< filled only if ground truth present
  size_t queries = 0;
};

/// Runs every query of `ds` through `index` and averages wall time.
/// One warm-up pass precedes timing, matching the paper's methodology.
Result<SearchRun> RunSearchBatch(const VectorIndex& index, const Dataset& ds,
                                 const SearchParams& params,
                                 size_t max_queries = 0);

/// Like RunSearchBatch, but submits the whole query block through one
/// VectorIndex::SearchBatch call — the specialized engines' multi-query
/// execution path (one SGEMM bucket selection per batch, inter-query
/// parallelism). Indexes without an override fall back to per-query Search
/// with identical results, so the two runners are directly comparable.
Result<SearchRun> RunSearchBatched(const VectorIndex& index, const Dataset& ds,
                                   const SearchParams& params,
                                   size_t max_queries = 0);

/// Renders a profiler's counters as the paper's breakdown rows: for each
/// label in `labels` (plus a synthesized "Others" = total - sum), prints
/// percentage and absolute time against `total_nanos`.
void PrintBreakdown(const std::string& title, const Profiler& profiler,
                    const std::vector<std::string>& labels,
                    int64_t total_nanos);

/// Parses "--key=value" style flags shared by the bench binaries.
struct BenchArgs {
  double scale = 0.02;   ///< fraction of the paper's dataset sizes
  size_t max_queries = 50;
  /// Cap on base vectors per dataset after scaling (0 = unlimited).
  /// Graph-build benches default this to a few tens of thousands so the
  /// whole suite completes on a small machine.
  size_t max_base = 0;
  std::vector<std::string> datasets;  ///< empty = all six
  std::string data_dir = "/tmp/vecdb_bench";
  /// Drive searches through SearchBatch (one call per query block) instead
  /// of one Search call per query.
  bool batch = false;

  /// Parses the bench flags. `--help` prints them and exits 0; any other
  /// flag it does not know prints them to stderr and exits 2.
  static BenchArgs Parse(int argc, char** argv);
};

}  // namespace vecdb
