// Incremental insert (aminsert) tests: every IVF/HNSW index can grow after
// Build, new rows are findable, every IVF build path stores the same
// entries, and the SQL layer keeps indexes in sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "faisslike/ivf_sq8.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "pase/ivf_pq.h"
#include "pase/ivf_sq8.h"
#include "sql/database.h"
#include "sql/session.h"
#include "temp_path.h"

namespace vecdb {
namespace {

Dataset TestData() {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 600;
  opt.num_queries = 4;
  return GenerateClustered(opt);
}

/// Builds on the first half, inserts the second half, verifies a probe
/// vector from the second half is retrievable as its own nearest neighbor.
template <typename IndexT>
void CheckIncrementalGrowth(IndexT& index, const Dataset& ds,
                            SearchParams params) {
  const size_t half = ds.num_base / 2;
  ASSERT_TRUE(index.Build(ds.base.data(), half).ok());
  for (size_t i = half; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.Insert(ds.base_vector(i)).ok()) << i;
  }
  EXPECT_EQ(index.NumVectors(), ds.num_base);
  const size_t probe = half + 7;
  auto results = index.Search(ds.base_vector(probe), params).ValueOrDie();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].id, static_cast<int64_t>(probe));
  EXPECT_NEAR(results[0].dist, 0.f, 1e-5f);
}

TEST(InsertTest, FaissIvfFlatGrows) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 8;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  SearchParams params;
  params.k = 5;
  params.nprobe = 8;
  CheckIncrementalGrowth(index, ds, params);
}

TEST(InsertTest, FaissIvfPqGrows) {
  auto ds = TestData();
  faisslike::IvfPqOptions opt;
  opt.num_clusters = 8;
  opt.pq_m = 4;
  opt.pq_codes = 32;
  opt.sample_ratio = 1.0;
  faisslike::IvfPqIndex index(ds.dim, opt);
  const size_t half = ds.num_base / 2;
  ASSERT_TRUE(index.Build(ds.base.data(), half).ok());
  for (size_t i = half; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.Insert(ds.base_vector(i)).ok());
  }
  EXPECT_EQ(index.NumVectors(), ds.num_base);
  // PQ is lossy: require the probe in the top-5, not rank 0 exactly.
  SearchParams params;
  params.k = 5;
  params.nprobe = 8;
  const size_t probe = half + 7;
  auto results = index.Search(ds.base_vector(probe), params).ValueOrDie();
  bool found = false;
  for (const auto& nb : results) {
    if (nb.id == static_cast<int64_t>(probe)) found = true;
  }
  EXPECT_TRUE(found);
}

/// Every stored entry of a faisslike IVF index: each bucket's ids, and the
/// distance of every stored entry to a few queries (an exhaustive search,
/// so equal distances per id mean equal stored codes).
template <typename IndexT>
void ExpectSameEntries(const IndexT& a, const IndexT& b, const Dataset& ds) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (uint32_t c = 0; c < a.num_clusters(); ++c) {
    EXPECT_EQ(a.bucket_ids(c), b.bucket_ids(c)) << "bucket " << c;
  }
  SearchParams params;
  params.k = a.NumVectors();
  params.nprobe = a.num_clusters();
  for (size_t q = 0; q < ds.num_queries; ++q) {
    EXPECT_EQ(a.Search(ds.query_vector(q), params).ValueOrDie(),
              b.Search(ds.query_vector(q), params).ValueOrDie())
        << "query " << q;
  }
}

/// The one faisslike IVF build path, for one index class: a 4-thread
/// Build + AddBatch stores what a 1-thread one stores, and one-row Inserts
/// store what one AddBatch of the same rows stores.
template <typename IndexT, typename Options>
void CheckFaissIvfBuildPath(Options opt, const Dataset& ds) {
  const size_t half = ds.num_base / 2;
  const size_t rest = ds.num_base - half;
  IndexT batched(ds.dim, opt);
  ASSERT_TRUE(batched.Build(ds.base.data(), half).ok());
  ASSERT_TRUE(batched.AddBatch(ds.base_vector(half), rest).ok());

  IndexT one_row(ds.dim, opt);
  ASSERT_TRUE(one_row.Build(ds.base.data(), half).ok());
  for (size_t i = half; i < ds.num_base; ++i) {
    ASSERT_TRUE(one_row.Insert(ds.base_vector(i)).ok()) << i;
  }
  ExpectSameEntries(batched, one_row, ds);

  // IVF_SQ8's options have no num_threads: it always builds on one.
  if constexpr (requires { opt.num_threads; }) {
    opt.num_threads = 4;
    IndexT threaded(ds.dim, opt);
    ASSERT_TRUE(threaded.Build(ds.base.data(), half).ok());
    ASSERT_TRUE(threaded.AddBatch(ds.base_vector(half), rest).ok());
    ExpectSameEntries(batched, threaded, ds);
  }
}

class FaissIvfBuildPathTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(FaissIvfBuildPathTest, ThreadedAndOneRowPathsStoreTheSameEntries) {
  const auto& [method, use_sgemm] = GetParam();
  const auto ds = TestData();
  if (method == "ivfflat") {
    faisslike::IvfFlatOptions opt;
    opt.num_clusters = 8;
    opt.sample_ratio = 1.0;
    opt.use_sgemm = use_sgemm;
    CheckFaissIvfBuildPath<faisslike::IvfFlatIndex>(opt, ds);
  } else if (method == "ivfpq") {
    faisslike::IvfPqOptions opt;
    opt.num_clusters = 8;
    opt.pq_m = 4;
    opt.pq_codes = 32;
    opt.sample_ratio = 1.0;
    opt.use_sgemm = use_sgemm;
    CheckFaissIvfBuildPath<faisslike::IvfPqIndex>(opt, ds);
  } else {
    faisslike::IvfSq8Options opt;
    opt.num_clusters = 8;
    opt.sample_ratio = 1.0;
    opt.use_sgemm = use_sgemm;
    CheckFaissIvfBuildPath<faisslike::IvfSq8Index>(opt, ds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaissIvf, FaissIvfBuildPathTest,
    ::testing::Combine(::testing::Values("ivfflat", "ivfpq", "ivfsq8"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_sgemm" : "_nosgemm");
    });

TEST(InsertTest, FaissIvfSq8Grows) {
  auto ds = TestData();
  faisslike::IvfSq8Options opt;
  opt.num_clusters = 8;
  opt.sample_ratio = 1.0;
  faisslike::IvfSq8Index index(ds.dim, opt);
  SearchParams params;
  params.k = 5;
  params.nprobe = 8;
  const size_t half = ds.num_base / 2;
  ASSERT_TRUE(index.Build(ds.base.data(), half).ok());
  for (size_t i = half; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.Insert(ds.base_vector(i)).ok());
  }
  const size_t probe = half + 7;
  auto results = index.Search(ds.base_vector(probe), params).ValueOrDie();
  EXPECT_EQ(results[0].id, static_cast<int64_t>(probe));
}

TEST(InsertTest, FaissHnswGrows) {
  auto ds = TestData();
  faisslike::HnswOptions opt;
  opt.bnn = 8;
  opt.efb = 20;
  faisslike::HnswIndex index(ds.dim, opt);
  SearchParams params;
  params.k = 5;
  params.efs = 50;
  CheckIncrementalGrowth(index, ds, params);
}

class PaseInsertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir =
        ::testing::TempDir() + "/insert_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 4096);
  }
  pase::PaseEnv Env() { return {smgr_.get(), bufmgr_.get()}; }

  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
};

TEST_F(PaseInsertTest, PaseIvfFlatGrows) {
  auto ds = TestData();
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 8;
  opt.sample_ratio = 1.0;
  pase::PaseIvfFlatIndex index(Env(), ds.dim, opt);
  SearchParams params;
  params.k = 5;
  params.nprobe = 8;
  CheckIncrementalGrowth(index, ds, params);
}

TEST_F(PaseInsertTest, PaseHnswGrows) {
  auto ds = TestData();
  pase::PaseHnswOptions opt;
  opt.bnn = 8;
  opt.efb = 20;
  pase::PaseHnswIndex index(Env(), ds.dim, opt);
  SearchParams params;
  params.k = 5;
  params.efs = 50;
  CheckIncrementalGrowth(index, ds, params);
}

/// The PASE IVF maintenance path, for one index class: the page chains
/// audit clean after Build and Insert, and inserted rows continue the id
/// sequence.
template <typename IndexT>
void CheckPaseIvfMaintenance(IndexT& index, const Dataset& ds) {
  const size_t half = ds.num_base / 2;
  ASSERT_TRUE(index.Build(ds.base.data(), half).ok());
  index.CheckInvariants();
  for (size_t i = half; i < ds.num_base; ++i) {
    ASSERT_TRUE(index.Insert(ds.base_vector(i)).ok()) << i;
  }
  index.CheckInvariants();
  EXPECT_EQ(index.NumVectors(), ds.num_base);

  // An exhaustive search returns exactly the ids 0..n-1.
  SearchParams params;
  params.k = ds.num_base;
  params.nprobe = index.num_clusters();
  auto all = index.Search(ds.query_vector(0), params).ValueOrDie();
  std::vector<int64_t> ids;
  for (const auto& nb : all) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  std::vector<int64_t> expected(ds.num_base);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(ids, expected);
}

TEST_F(PaseInsertTest, PaseIvfMaintenanceKeepsChainsAndIds) {
  const auto ds = TestData();
  {
    SCOPED_TRACE("ivfflat");
    pase::PaseIvfFlatOptions opt;
    opt.num_clusters = 8;
    opt.sample_ratio = 1.0;
    pase::PaseIvfFlatIndex index(Env(), ds.dim, opt);
    CheckPaseIvfMaintenance(index, ds);
  }
  {
    SCOPED_TRACE("ivfpq");
    pase::PaseIvfPqOptions opt;
    opt.num_clusters = 8;
    opt.pq_m = 4;
    opt.pq_codes = 32;
    opt.sample_ratio = 1.0;
    pase::PaseIvfPqIndex index(Env(), ds.dim, opt);
    CheckPaseIvfMaintenance(index, ds);
  }
  {
    SCOPED_TRACE("ivfsq8");
    pase::PaseIvfSq8Options opt;
    opt.num_clusters = 8;
    opt.sample_ratio = 1.0;
    pase::PaseIvfSq8Index index(Env(), ds.dim, opt);
    CheckPaseIvfMaintenance(index, ds);
  }
}

TEST_F(PaseInsertTest, InsertBeforeBuildFails) {
  auto ds = TestData();
  pase::PaseIvfFlatOptions opt;
  pase::PaseIvfFlatIndex index(Env(), ds.dim, opt);
  EXPECT_FALSE(index.Insert(ds.base_vector(0)).ok());
}

TEST(SqlInsertTest, InsertAfterIndexIsSearchable) {
  const std::string dir = TempPath("sql_insert_after");
  std::filesystem::remove_all(dir);
  auto db = std::move(sql::MiniDatabase::Open(dir)).ValueOrDie();
  auto session = db->CreateSession();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id int, vec float[2])").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 32; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", '" + std::to_string(i) + ",0')";
  }
  ASSERT_TRUE(session->Execute(insert).ok());
  ASSERT_TRUE(session->Execute("CREATE INDEX i ON t USING ivfflat (vec) WITH "
                          "(clusters=4, sample_ratio=1)")
                  .ok());
  // Insert a new row AFTER the index exists; it must be index-visible.
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (999, '100,0')").ok());
  auto result =
      session->Execute("SELECT id FROM t ORDER BY vec <-> '100,0' "
                  "OPTIONS (nprobe=4) LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].id, 999);
}

}  // namespace
}  // namespace vecdb
