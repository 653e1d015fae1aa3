#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "pase/ivf_pq.h"
#include "temp_path.h"

namespace vecdb::pase {
namespace {

class PaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/pase_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir_, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 8192);

    SyntheticOptions opt;
    opt.dim = 32;
    opt.num_base = 1500;
    opt.num_queries = 15;
    opt.num_natural_clusters = 16;
    ds_ = GenerateClustered(opt);
    ComputeGroundTruth(&ds_, 10, Metric::kL2);
  }

  PaseEnv Env() { return {smgr_.get(), bufmgr_.get()}; }

  double MeasureRecall(const VectorIndex& index, const SearchParams& params) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < ds_.num_queries; ++q) {
      results.push_back(
          index.Search(ds_.query_vector(q), params).ValueOrDie());
    }
    return MeanRecallAtK(results, ds_.ground_truth, 10);
  }

  std::string dir_;
  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
  Dataset ds_;
};

TEST_F(PaseTest, IvfFlatRecallAndExactness) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 32;
  opt.sample_ratio = 0.5;
  PaseIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 32;  // all buckets => exact
  EXPECT_DOUBLE_EQ(MeasureRecall(index, params), 1.0);
  EXPECT_EQ(index.NumVectors(), ds_.num_base);
}

TEST_F(PaseTest, IvfFlatSizeIsPageMultiple) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  PaseIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  EXPECT_GT(index.SizeBytes(), 0u);
  EXPECT_EQ(index.SizeBytes() % 8192, 0u);
}

TEST_F(PaseTest, IvfFlatParallelMatchesSerial) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 32;
  PaseIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams serial, parallel;
  serial.k = parallel.k = 10;
  serial.nprobe = parallel.nprobe = 16;
  parallel.num_threads = 4;
  ParallelAccounting acct;
  parallel.ctx.accounting = &acct;
  for (size_t q = 0; q < 5; ++q) {
    auto rs = index.Search(ds_.query_vector(q), serial).ValueOrDie();
    auto rp = index.Search(ds_.query_vector(q), parallel).ValueOrDie();
    EXPECT_EQ(rs, rp);
  }
  // The locked global heap must register serialized time (RC#3).
  EXPECT_GT(acct.serial_nanos, 0);
}

TEST_F(PaseTest, IvfFlatProfilerSeesPaperPhases) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  PaseIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  Profiler profiler;
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  params.ctx.profiler = &profiler;
  ASSERT_TRUE(index.Search(ds_.query_vector(0), params).ok());
  // Table V categories must all be present for PASE.
  EXPECT_GT(profiler.Nanos("fvec_L2sqr"), 0);
  EXPECT_GT(profiler.Nanos("TupleAccess"), 0);
  EXPECT_GT(profiler.Nanos("MinHeap"), 0);
}

TEST_F(PaseTest, PgvectorModeSameResultsSlowerPath) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.rel_prefix = "pg_a";
  PaseIvfFlatIndex pase(Env(), ds_.dim, opt);
  opt.pgvector_mode = true;
  opt.rel_prefix = "pg_b";
  PaseIvfFlatIndex pgv(Env(), ds_.dim, opt);
  ASSERT_TRUE(pase.Build(ds_.base.data(), ds_.num_base).ok());
  ASSERT_TRUE(pgv.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (size_t q = 0; q < 5; ++q) {
    EXPECT_EQ(pase.Search(ds_.query_vector(q), params).ValueOrDie(),
              pgv.Search(ds_.query_vector(q), params).ValueOrDie());
  }
}

TEST_F(PaseTest, IvfPqRecall) {
  PaseIvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 64;
  opt.sample_ratio = 0.3;
  PaseIvfPqIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  EXPECT_GE(MeasureRecall(index, params), 0.4);
}

TEST_F(PaseTest, HnswRecall) {
  PaseHnswOptions opt;
  opt.bnn = 16;
  opt.efb = 40;
  PaseHnswIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.efs = 100;
  EXPECT_GE(MeasureRecall(index, params), 0.85);
}

TEST_F(PaseTest, HnswUsesOnePagePerVertex) {
  // RC#4: the neighbor relation must hold >= one page per vertex.
  PaseHnswOptions opt;
  opt.bnn = 8;
  opt.rel_prefix = "hnsw_pages";
  PaseHnswIndex index(Env(), ds_.dim, opt);
  const size_t n = 300;
  ASSERT_TRUE(index.Build(ds_.base.data(), n).ok());
  auto nbr_rel = smgr_->FindRelation("hnsw_pages_nbr").ValueOrDie();
  EXPECT_GE(*smgr_->NumBlocks(nbr_rel), n);
}

TEST(PaseHnswBytesTest, TwoBuildsWriteIdenticalNeighborPages) {
  // Neighbor lists are written field by field into zeroed slots, so no
  // stray byte lands in a tuple's padding or past a list's count: the
  // same input builds a byte-identical neighbor relation (and WAL images).
  // The second run profiles its build, which must only observe.
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 400;
  opt.num_queries = 1;
  const Dataset ds = GenerateClustered(opt);
  Profiler profiler;
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    const std::string dir =
        TempPath(("pase_hnsw_bytes_" + std::to_string(run)).c_str());
    std::filesystem::remove_all(dir);
    {
      auto smgr = pgstub::StorageManager::Open(dir, 8192).ValueOrDie();
      pgstub::BufferManager bufmgr(&smgr, 1024);
      PaseHnswOptions hopt;
      hopt.bnn = 8;
      hopt.rel_prefix = "bytes";
      if (run == 1) hopt.profiler = &profiler;
      PaseHnswIndex index({&smgr, &bufmgr}, ds.dim, hopt);
      ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
      ASSERT_TRUE(bufmgr.FlushAll().ok());
      ASSERT_TRUE(smgr.SyncAll().ok());
    }
    std::ifstream in(dir + "/bytes_nbr.rel", std::ios::binary);
    bytes[run].assign(std::istreambuf_iterator<char>(in), {});
    std::filesystem::remove_all(dir);
  }
  EXPECT_GT(profiler.Nanos("SearchNbToAdd"), 0);
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << "neighbor relations differ";
}

TEST_F(PaseTest, HnswBuildProfilerSeesTable3Phases) {
  Profiler profiler;
  PaseHnswOptions opt;
  opt.bnn = 8;
  opt.efb = 20;
  opt.profiler = &profiler;
  PaseHnswIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), 400).ok());
  EXPECT_GT(profiler.Nanos("SearchNbToAdd"), 0);
  EXPECT_GT(profiler.Nanos("AddLink"), 0);
  EXPECT_GT(profiler.Nanos("ShrinkNbList"), 0);
  // Fig 8 sub-phases inside SearchNbToAdd.
  EXPECT_GT(profiler.Nanos("TupleAccess"), 0);
  EXPECT_GT(profiler.Nanos("HVTGet"), 0);
  EXPECT_GT(profiler.Nanos("pasepfirst"), 0);
  EXPECT_GT(profiler.Nanos("fvec_L2sqr"), 0);
}

TEST_F(PaseTest, ErrorPaths) {
  PaseIvfFlatOptions opt;
  opt.num_clusters = 4;
  PaseIvfFlatIndex unbuilt(Env(), ds_.dim, opt);
  SearchParams params;
  EXPECT_FALSE(unbuilt.Search(ds_.query_vector(0), params).ok());
  PaseIvfFlatIndex bad(PaseEnv{}, ds_.dim, opt);
  EXPECT_FALSE(bad.Build(ds_.base.data(), 100).ok());
}

TEST(HashVisitedTableTest, GetAndSetSemantics) {
  HashVisitedTable table;
  EXPECT_FALSE(table.GetAndSet(5));
  EXPECT_TRUE(table.GetAndSet(5));
  EXPECT_FALSE(table.GetAndSet(6));
  table.Reset();
  EXPECT_FALSE(table.GetAndSet(5));
}

TEST(NeighborTupleTest, PaperReportedLayout) {
  EXPECT_EQ(sizeof(PaseTuple), 8u);
  EXPECT_EQ(sizeof(HnswGlobalId), 12u);
  EXPECT_EQ(sizeof(HnswNeighborTuple), 24u);  // alignment padding included
}

}  // namespace
}  // namespace vecdb::pase
