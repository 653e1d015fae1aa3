// Shared setup for the figure/table reproduction benchmarks: dataset
// materialization at the chosen scale, engine construction with the
// paper's Table II parameters, and a fresh pgstub environment per bench.
#pragma once

#include <charconv>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/vecdb.h"
#include "core/experiment.h"

namespace vecdb::bench {

/// One dataset prepared for benchmarking, plus its scaled Table II params.
struct BenchDataset {
  DatasetSpec spec;
  Dataset data;
  uint32_t clusters;  ///< c scaled as sqrt(scale)
};

/// A `rows`-row INSERT of Gaussian `dim`-d vectors written in shortest
/// round-trip form, the shape of a bulk SQL load:
/// INSERT INTO items VALUES (0, 'x0,x1,...'), (1, '...'), ...
inline std::string InsertStatement(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::string sql = "INSERT INTO items VALUES ";
  char buf[32];
  for (size_t i = 0; i < rows; ++i) {
    sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", '";
    for (size_t t = 0; t < dim; ++t) {
      if (t != 0) sql += ',';
      sql.append(buf,
                 std::to_chars(buf, buf + sizeof(buf), rng.Gaussian()).ptr);
    }
    sql += "')";
  }
  return sql;
}

/// Materializes the requested paper datasets (all six by default).
/// `args.max_base` (if nonzero) caps the scaled base count per dataset.
inline std::vector<BenchDataset> LoadDatasets(const BenchArgs& args) {
  std::vector<BenchDataset> out;
  for (const auto& spec : PaperDatasets()) {
    if (!args.datasets.empty()) {
      bool wanted = false;
      for (const auto& name : args.datasets) {
        if (FindDataset(name) == &spec) wanted = true;
      }
      if (!wanted) continue;
    }
    double scale = args.scale;
    if (args.max_base > 0) {
      scale = std::min(scale, static_cast<double>(args.max_base) /
                                  static_cast<double>(spec.paper_num_base));
    }
    BenchDataset bd{spec, MakePaperAnalog(spec, scale),
                    ScaledClusterCount(spec, scale)};
    out.push_back(std::move(bd));
  }
  return out;
}

/// A disposable PostgreSQL-like environment rooted in a unique directory.
class PgEnv {
 public:
  explicit PgEnv(const std::string& dir, uint32_t page_size = 8192,
                 size_t pool_pages = 262144)
      : smgr_(std::move(pgstub::StorageManager::Open(dir, page_size))
                  .ValueOrDie()),
        bufmgr_(&smgr_, pool_pages) {}

  pase::PaseEnv env() { return {&smgr_, &bufmgr_}; }
  pgstub::StorageManager* smgr() { return &smgr_; }
  pgstub::BufferManager* bufmgr() { return &bufmgr_; }

 private:
  pgstub::StorageManager smgr_;
  pgstub::BufferManager bufmgr_;
};

/// Scrubs and returns a unique data directory under args.data_dir.
inline std::string FreshDir(const BenchArgs& args, const std::string& tag) {
  const std::string dir = args.data_dir + "/" + tag;
  // Best-effort cleanup of a previous run's relation files.
  const std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not reset %s\n", dir.c_str());
  }
  return dir;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_claim,
                   const BenchArgs& args) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("scale=%.4g of paper dataset sizes, max_queries=%zu\n\n",
              args.scale, args.max_queries);
}

}  // namespace vecdb::bench
