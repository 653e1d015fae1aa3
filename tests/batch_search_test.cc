// SearchBatch contract: the batched path must return exactly what N
// single-query Search calls return (ids and distances), for the overriding
// faisslike IVF indexes and for the looping fallback the PASE engine
// inherits — across thread counts, and at the nq = 0 / nq = 1 edges. Also
// pins the RC#1 claim: one batch selects buckets for every query with a
// single SGEMM call.
#include <gtest/gtest.h>

#include <filesystem>

#include <memory>
#include <vector>

#include "common/profiler.h"
#include "core/parallel.h"
#include "datasets/synthetic.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "faisslike/ivf_sq8.h"
#include "pase/ivf_flat.h"
#include "pase/ivf_sq8.h"
#include "pgstub/bufmgr.h"
#include "pgstub/smgr.h"
#include "temp_path.h"

namespace vecdb {
namespace {

Dataset TestData() {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 1200;
  opt.num_queries = 32;
  return GenerateClustered(opt);
}

/// Asserts SearchBatch over the dataset's query block equals per-query
/// Search, element by element (same ids AND bit-identical distances).
void CheckBatchMatchesPerQuery(const VectorIndex& index, const Dataset& ds,
                               const SearchParams& params) {
  auto batched =
      index.SearchBatch(ds.queries.data(), ds.num_queries, params)
          .ValueOrDie();
  ASSERT_EQ(batched.size(), ds.num_queries) << index.Describe();
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto single = index.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(batched[q].size(), single.size())
        << index.Describe() << " q=" << q;
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batched[q][i].id, single[i].id)
          << index.Describe() << " q=" << q << " i=" << i;
      EXPECT_EQ(batched[q][i].dist, single[i].dist)
          << index.Describe() << " q=" << q << " i=" << i;
    }
  }
}

/// Edge cases every implementation must share: nq = 0 yields an empty
/// result set, nq = 1 equals one Search call, null queries is rejected.
void CheckBatchEdges(const VectorIndex& index, const Dataset& ds,
                     const SearchParams& params) {
  auto empty = index.SearchBatch(ds.queries.data(), 0, params).ValueOrDie();
  EXPECT_TRUE(empty.empty()) << index.Describe();
  EXPECT_TRUE(index.SearchBatch(nullptr, 0, params).ok());

  auto one = index.SearchBatch(ds.query_vector(0), 1, params).ValueOrDie();
  ASSERT_EQ(one.size(), 1u);
  auto single = index.Search(ds.query_vector(0), params).ValueOrDie();
  EXPECT_EQ(one[0], single) << index.Describe();

  EXPECT_FALSE(index.SearchBatch(nullptr, 3, params).ok())
      << index.Describe();
}

TEST(BatchSearchTest, FaissIvfFlatMatchesPerQuery) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
  CheckBatchEdges(index, ds, params);
}

TEST(BatchSearchTest, FaissIvfFlatMultiThreadMatchesPerQuery) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  params.num_threads = 4;  // inter-query parallelism, per-worker heaps
  CheckBatchMatchesPerQuery(index, ds, params);
}

TEST(BatchSearchTest, FaissIvfFlatOneSgemmPerBatch) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  Profiler profiler;
  params.ctx.profiler = &profiler;
  ASSERT_TRUE(
      index.SearchBatch(ds.queries.data(), ds.num_queries, params).ok());
  // RC#1: bucket selection for the whole batch is ONE SGEMM-decomposed
  // call, not one per query.
  EXPECT_EQ(profiler.Hits("SelectBucketsSgemm"), 1);
}

TEST(BatchSearchTest, FaissIvfFlatRecordsAccounting) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  params.num_threads = 3;
  ParallelAccounting acct;
  params.ctx.accounting = &acct;
  ASSERT_TRUE(
      index.SearchBatch(ds.queries.data(), ds.num_queries, params).ok());
  ASSERT_EQ(acct.worker_busy_nanos.size(), 3u);
  int64_t busy = 0;
  for (int64_t w : acct.worker_busy_nanos) busy += w;
  EXPECT_GT(busy, 0);
  // The batch SGEMM is the serial fraction of the model.
  EXPECT_GT(acct.serial_nanos, 0);
}

TEST(BatchSearchTest, FaissIvfPqMatchesPerQuery) {
  auto ds = TestData();
  faisslike::IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 4;
  opt.pq_codes = 32;
  opt.sample_ratio = 1.0;
  faisslike::IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
  CheckBatchEdges(index, ds, params);

  Profiler profiler;
  params.ctx.profiler = &profiler;
  ASSERT_TRUE(
      index.SearchBatch(ds.queries.data(), ds.num_queries, params).ok());
  EXPECT_EQ(profiler.Hits("SelectBucketsSgemm"), 1);
}

TEST(BatchSearchTest, FaissIvfPqRefineMatchesPerQuery) {
  auto ds = TestData();
  faisslike::IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 4;
  opt.pq_codes = 32;
  opt.sample_ratio = 1.0;
  opt.refine_factor = 3;  // exact re-ranking path must batch identically
  faisslike::IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  params.num_threads = 2;
  CheckBatchMatchesPerQuery(index, ds, params);
}

TEST(BatchSearchTest, PaseFallbackMatchesPerQuery) {
  auto ds = TestData();
  const std::string dir = TempPath("batch_pase");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 4096);
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  pase::PaseIvfFlatIndex index({smgr.get(), &bufmgr}, ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  // PASE has no override: the base-class fallback loops Search one
  // statement at a time (the generalized-engine behavior), so parity is
  // trivially exact.
  CheckBatchMatchesPerQuery(index, ds, params);
  CheckBatchEdges(index, ds, params);
}

TEST(BatchSearchTest, FaissIvfSq8MatchesPerQuery) {
  auto ds = TestData();
  faisslike::IvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfSq8Index index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
  CheckBatchEdges(index, ds, params);
  params.num_threads = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
}

TEST(BatchSearchTest, PaseIvfSq8MatchesPerQuery) {
  auto ds = TestData();
  const std::string dir = TempPath("batch_pase_sq8");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 4096);
  pase::PaseIvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  pase::PaseIvfSq8Index index({smgr.get(), &bufmgr}, ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
  CheckBatchEdges(index, ds, params);
  params.num_threads = 4;
  CheckBatchMatchesPerQuery(index, ds, params);
}

}  // namespace
}  // namespace vecdb
