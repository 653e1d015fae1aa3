// Workload definitions and generated inputs shared by the benchmark's
// phases (perfbench.cc) and its per-layer replays (layers.cc).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datasets/dataset.h"

namespace perfbench {

constexpr uint32_t kDim = 128;
constexpr size_t kTopK = 10;
/// Attribute values of loaded rows lie in [0, kAttrRange); every read
/// predicate is `a < t` with t <= kAttrRange, and writer rows carry values
/// >= kAttrRange, so no written row can ever satisfy a read predicate.
constexpr int64_t kAttrRange = 1000;
/// Ids of rows inserted by the open-loop writer start here; loaded rows
/// use ids [0, num_base).
constexpr int64_t kWriterIdBase = 1000000000;
constexpr int kWriterBatchRows = 10;
/// Seed of the base dataset, the same in every run; --seed draws the rest.
constexpr uint64_t kDatasetSeed = 42;

/// One workload at one scale. Index and scan settings are fixed per
/// workload so that recall_at_10 sits between 0.8 and 0.95.
struct WorkloadSpec {
  std::string name;
  size_t num_base = 0;
  size_t num_queries = 0;
  std::string index_method;  ///< ivfflat | ivfpq
  std::string engine;        ///< pase | faiss
  uint32_t clusters = 0;     ///< IVF only
  double sample_ratio = 0.0;
  uint32_t iterations = 10;
  uint32_t pq_m = 0;          ///< IVF_PQ only
  uint32_t refine_factor = 0;  ///< IVF_PQ only
  std::string scan_options;    ///< SELECT ... OPTIONS (<scan_options>)
  bool filtered = false;       ///< INT attribute `a` and WHERE predicates
  bool small_pool = false;     ///< buffer pool ~1/3 of table+index pages
  double recall_floor = 0.0;   ///< the run fails below this recall_at_10
  /// Open-loop INSERT rate (statements/s) and statements per round. On
  /// filtered_rw the writer runs beside the reader; on pase_ivf it runs
  /// after each round's reads, with no reader.
  double write_rate = 0.0;
  size_t write_statements = 0;
  /// Rounds per run. Each round sets the database up from an empty
  /// directory, then reads and writes for its share of --seconds, so the
  /// timed statements spread over the whole run and over several database
  /// instances. setup_s is the median over the rounds.
  int rounds = 4;
};

/// Selectivity thresholds of filtered_rw's predicates `a < t`: 1%, 20% and
/// 80%, which the planner routes to pre-, in- and post-filter.
constexpr std::array<int64_t, 3> kThresholds = {10, 200, 800};

/// Everything generated from the seed before any timing starts.
struct Inputs {
  vecdb::Dataset data;  ///< base rows [0, num_base) are loaded; the rest
                        ///< feed the writer
  std::vector<int64_t> attr;        ///< per loaded row (filtered only)
  std::vector<int64_t> threshold;   ///< per query (filtered only)
  std::vector<std::array<int64_t, kTopK>> truth;  ///< exact top-10 ids
  std::vector<std::string> select_sql;  ///< one per query
  std::string create_table_sql;
  std::vector<std::string> insert_sql;  ///< the bulk load, in batches
  std::string create_index_sql;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Metrics by name, printed in name order.
using Metrics = std::map<std::string, Metric>;

/// Records a metric; a non-finite value (an empty sample) records 0.
inline void Put(Metrics* m, const std::string& name, double value,
                const std::string& unit) {
  (*m)[name] = {std::isfinite(value) ? value : 0.0, unit};
}

/// The INSERT the writer issues as its `j`-th statement.
std::string WriterInsert(const WorkloadSpec& spec, const Inputs& in,
                         uint64_t j);

/// Shortest round-trip decimal rendering of a vector literal.
std::string VectorLiteral(const float* v, uint32_t dim);

}  // namespace perfbench
