#include <gtest/gtest.h>

#include <filesystem>

#include <memory>

#include "bridge/bridged_hnsw.h"
#include "bridge/bridged_ivf_flat.h"
#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "pase/hnsw.h"

namespace vecdb::bridge {
namespace {

class BridgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bridge_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir_, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 8192);

    SyntheticOptions opt;
    opt.dim = 32;
    opt.num_base = 1200;
    opt.num_queries = 10;
    ds_ = GenerateClustered(opt);
    ComputeGroundTruth(&ds_, 10, Metric::kL2);
  }

  pase::PaseEnv Env() { return {smgr_.get(), bufmgr_.get()}; }

  std::string dir_;
  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
  Dataset ds_;
};

TEST_F(BridgeTest, AllTogglesOnHighRecall) {
  BridgedIvfFlatOptions opt;
  opt.num_clusters = 24;
  opt.sample_ratio = 0.5;
  BridgedIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 24;
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < ds_.num_queries; ++q) {
    results.push_back(index.Search(ds_.query_vector(q), params).ValueOrDie());
  }
  EXPECT_DOUBLE_EQ(MeanRecallAtK(results, ds_.ground_truth, 10), 1.0);
}

TEST_F(BridgeTest, MemoryAndPagePathsReturnSameResults) {
  BridgedIvfFlatOptions mem, page;
  mem.num_clusters = page.num_clusters = 16;
  mem.rel_prefix = "mem";
  page.rel_prefix = "page";
  page.memory_table = false;
  // Same seed/kmeans config => identical centroids and buckets.
  BridgedIvfFlatIndex a(Env(), ds_.dim, mem), b(Env(), ds_.dim, page);
  ASSERT_TRUE(a.Build(ds_.base.data(), ds_.num_base).ok());
  ASSERT_TRUE(b.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (size_t q = 0; q < ds_.num_queries; ++q) {
    EXPECT_EQ(a.Search(ds_.query_vector(q), params).ValueOrDie(),
              b.Search(ds_.query_vector(q), params).ValueOrDie());
  }
}

TEST_F(BridgeTest, KHeapAndNHeapReturnSameResults) {
  BridgedIvfFlatOptions kh, nh;
  kh.num_clusters = nh.num_clusters = 16;
  kh.rel_prefix = "kh";
  nh.rel_prefix = "nh";
  nh.k_heap = false;
  BridgedIvfFlatIndex a(Env(), ds_.dim, kh), b(Env(), ds_.dim, nh);
  ASSERT_TRUE(a.Build(ds_.base.data(), ds_.num_base).ok());
  ASSERT_TRUE(b.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (size_t q = 0; q < ds_.num_queries; ++q) {
    EXPECT_EQ(a.Search(ds_.query_vector(q), params).ValueOrDie(),
              b.Search(ds_.query_vector(q), params).ValueOrDie());
  }
}

TEST_F(BridgeTest, ParallelLocalAndGlobalHeapsAgree) {
  BridgedIvfFlatOptions local, global;
  local.num_clusters = global.num_clusters = 16;
  local.rel_prefix = "pl";
  global.rel_prefix = "pg";
  global.local_heaps = false;
  BridgedIvfFlatIndex a(Env(), ds_.dim, local), b(Env(), ds_.dim, global);
  ASSERT_TRUE(a.Build(ds_.base.data(), ds_.num_base).ok());
  ASSERT_TRUE(b.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  params.num_threads = 4;
  ParallelAccounting acct_local, acct_global;
  for (size_t q = 0; q < 5; ++q) {
    params.ctx.accounting = &acct_local;
    auto ra = a.Search(ds_.query_vector(q), params).ValueOrDie();
    params.ctx.accounting = &acct_global;
    auto rb = b.Search(ds_.query_vector(q), params).ValueOrDie();
    EXPECT_EQ(ra, rb);
  }
  // The global locked heap serializes more work than the local merge.
  EXPECT_GT(acct_global.serial_nanos, acct_local.serial_nanos);
}

TEST_F(BridgeTest, ProfiledParallelSearchMatchesSerial) {
  // A Profiler is single-threaded, so a 4-worker search must not record
  // into it from its workers. Sized so a shared profiler shows up as a
  // race under TSan; the results must equal the serial search's.
  SyntheticOptions big;
  big.dim = 32;
  big.num_base = 40000;
  big.num_queries = 20;
  const Dataset ds = GenerateClustered(big);
  for (const bool memory_table : {true, false}) {
    SCOPED_TRACE(memory_table ? "memory table" : "page path");
    BridgedIvfFlatOptions opt;
    opt.num_clusters = 16;
    opt.memory_table = memory_table;
    opt.rel_prefix = memory_table ? "prof_mem" : "prof_page";
    BridgedIvfFlatIndex index(Env(), ds.dim, opt);
    ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
    Profiler profiler;
    ParallelAccounting accounting;
    SearchParams serial, parallel;
    serial.k = parallel.k = 10;
    serial.nprobe = parallel.nprobe = 16;
    parallel.num_threads = 4;
    parallel.ctx.profiler = &profiler;
    parallel.ctx.accounting = &accounting;
    for (size_t q = 0; q < ds.num_queries; ++q) {
      EXPECT_EQ(index.Search(ds.query_vector(q), parallel).ValueOrDie(),
                index.Search(ds.query_vector(q), serial).ValueOrDie());
    }
    EXPECT_EQ(accounting.worker_busy_nanos.size(), 4u);
  }
}

TEST_F(BridgeTest, BridgedHnswMatchesRecallOfPaseHnsw) {
  BridgedHnswOptions bopt;
  bopt.bnn = 16;
  bopt.efb = 40;
  BridgedHnswIndex bridged(Env(), ds_.dim, bopt);
  ASSERT_TRUE(bridged.Build(ds_.base.data(), ds_.num_base).ok());

  pase::PaseHnswOptions popt;
  popt.bnn = 16;
  popt.efb = 40;
  popt.rel_prefix = "cmp_pase";
  pase::PaseHnswIndex paseidx(Env(), ds_.dim, popt);
  ASSERT_TRUE(paseidx.Build(ds_.base.data(), ds_.num_base).ok());

  SearchParams params;
  params.k = 10;
  params.efs = 100;
  std::vector<std::vector<Neighbor>> rb, rp;
  for (size_t q = 0; q < ds_.num_queries; ++q) {
    rb.push_back(bridged.Search(ds_.query_vector(q), params).ValueOrDie());
    rp.push_back(paseidx.Search(ds_.query_vector(q), params).ValueOrDie());
  }
  const double bridged_recall = MeanRecallAtK(rb, ds_.ground_truth, 10);
  const double pase_recall = MeanRecallAtK(rp, ds_.ground_truth, 10);
  EXPECT_GE(bridged_recall, 0.85);
  EXPECT_GE(pase_recall, 0.85);
}

TEST_F(BridgeTest, PackedImageSmallerThanPagePerVertex) {
  BridgedHnswOptions packed, loose;
  packed.bnn = loose.bnn = 8;
  packed.rel_prefix = "packed";
  loose.rel_prefix = "loose";
  loose.pack_pages = false;
  loose.compact_tuples = false;
  BridgedHnswIndex a(Env(), ds_.dim, packed), b(Env(), ds_.dim, loose);
  ASSERT_TRUE(a.Build(ds_.base.data(), 500).ok());
  ASSERT_TRUE(b.Build(ds_.base.data(), 500).ok());
  // Fig 13's fix: the memory-centric layout must be several times smaller.
  EXPECT_LT(a.SizeBytes() * 2, b.SizeBytes());
}

TEST_F(BridgeTest, ErrorPaths) {
  BridgedIvfFlatOptions opt;
  BridgedIvfFlatIndex bad(pase::PaseEnv{}, ds_.dim, opt);
  EXPECT_FALSE(bad.Build(ds_.base.data(), 100).ok());
  BridgedIvfFlatIndex unbuilt(Env(), ds_.dim, opt);
  SearchParams params;
  EXPECT_FALSE(unbuilt.Search(ds_.query_vector(0), params).ok());
}

}  // namespace
}  // namespace vecdb::bridge
