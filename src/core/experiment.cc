#include "core/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/timer.h"
#include "datasets/ground_truth.h"

namespace vecdb {

TablePrinter::TablePrinter(std::vector<std::string> headers,
                           std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {
  Row(headers_);
  Separator();
}

void TablePrinter::Row(const std::vector<std::string>& cells) const {
  std::string line;
  for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    std::string cell = cells[i];
    const size_t w = static_cast<size_t>(widths_[i]);
    if (cell.size() < w) cell.append(w - cell.size(), ' ');
    line += cell;
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

void TablePrinter::Separator() const {
  size_t total = 0;
  for (int w : widths_) total += static_cast<size_t>(w) + 2;
  std::string line(total, '-');
  std::printf("%s\n", line.c_str());
}

std::string TablePrinter::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string TablePrinter::Ratio(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fx", digits, v);
  return buf;
}

std::string TablePrinter::Megabytes(size_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

Result<SearchRun> RunSearchBatch(const VectorIndex& index, const Dataset& ds,
                                 const SearchParams& params,
                                 size_t max_queries) {
  const size_t nq = max_queries == 0
                        ? ds.num_queries
                        : std::min(max_queries, ds.num_queries);
  if (nq == 0) return Status::InvalidArgument("no queries");

  // Warm-up pass (paper §IV-A) so buffers and caches are hot.
  for (size_t q = 0; q < nq; ++q) {
    VECDB_RETURN_NOT_OK(index.Search(ds.query_vector(q), params).status());
  }

  SearchRun run;
  run.queries = nq;
  std::vector<std::vector<Neighbor>> results(nq);
  Timer timer;
  for (size_t q = 0; q < nq; ++q) {
    VECDB_ASSIGN_OR_RETURN(results[q],
                           index.Search(ds.query_vector(q), params));
  }
  run.avg_millis = timer.ElapsedMillis() / static_cast<double>(nq);
  if (!ds.ground_truth.empty()) {
    std::vector<std::vector<int64_t>> gt(ds.ground_truth.begin(),
                                         ds.ground_truth.begin() + nq);
    run.recall_at_k = MeanRecallAtK(results, gt, params.k);
  }
  return run;
}

Result<SearchRun> RunSearchBatched(const VectorIndex& index, const Dataset& ds,
                                   const SearchParams& params,
                                   size_t max_queries) {
  const size_t nq = max_queries == 0
                        ? ds.num_queries
                        : std::min(max_queries, ds.num_queries);
  if (nq == 0) return Status::InvalidArgument("no queries");

  // Warm-up pass (paper §IV-A) so buffers and caches are hot. Queries are
  // stored row-major and contiguous, so the prefix is the batch.
  VECDB_RETURN_NOT_OK(
      index.SearchBatch(ds.queries.data(), nq, params).status());

  SearchRun run;
  run.queries = nq;
  Timer timer;
  VECDB_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> results,
                         index.SearchBatch(ds.queries.data(), nq, params));
  run.avg_millis = timer.ElapsedMillis() / static_cast<double>(nq);
  if (!ds.ground_truth.empty()) {
    std::vector<std::vector<int64_t>> gt(ds.ground_truth.begin(),
                                         ds.ground_truth.begin() + nq);
    run.recall_at_k = MeanRecallAtK(results, gt, params.k);
  }
  return run;
}

void PrintBreakdown(const std::string& title, const Profiler& profiler,
                    const std::vector<std::string>& labels,
                    int64_t total_nanos) {
  std::printf("%s (total %.2f ms)\n", title.c_str(), total_nanos * 1e-6);
  if (total_nanos <= 0) return;
  int64_t accounted = 0;
  for (const auto& label : labels) {
    const int64_t nanos = profiler.Nanos(label);
    accounted += nanos;
    std::printf("  %-18s %6.2f%%  %10.3f ms\n", label.c_str(),
                100.0 * static_cast<double>(nanos) /
                    static_cast<double>(total_nanos),
                nanos * 1e-6);
  }
  const int64_t others = total_nanos - accounted;
  std::printf("  %-18s %6.2f%%  %10.3f ms\n", "Others",
              100.0 * static_cast<double>(others > 0 ? others : 0) /
                  static_cast<double>(total_nanos),
              (others > 0 ? others : 0) * 1e-6);
}

namespace {

constexpr const char* kBenchFlags =
    "[--scale=F] [--max-queries=N] [--max-base=N] [--datasets=A,B,...]\n"
    "    [--data-dir=DIR] [--batch] [--help]\n";

}  // namespace

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--max-queries=", 14) == 0) {
      args.max_queries = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--max-base=", 11) == 0) {
      args.max_base = static_cast<size_t>(std::atoll(arg + 11));
    } else if (std::strncmp(arg, "--datasets=", 11) == 0) {
      // comma-separated list of dataset names
      std::string list(arg + 11);
      size_t start = 0;
      while (start < list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        args.datasets.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
    } else if (std::strncmp(arg, "--data-dir=", 11) == 0) {
      args.data_dir = arg + 11;
    } else if (std::strcmp(arg, "--batch") == 0) {
      args.batch = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s %s", argv[0], kBenchFlags);
      std::exit(0);
    } else {
      // A mistyped flag must not start a default-scale run.
      std::fprintf(stderr, "unknown flag %s\nusage: %s %s", arg, argv[0],
                   kBenchFlags);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace vecdb
