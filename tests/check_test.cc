// Death-test coverage for the VECDB_CHECK family (common/check.h) and smoke
// coverage for every CheckInvariants() self-audit in the tree.
#include "common/check.h"

#include <gtest/gtest.h>

#include <filesystem>

#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "pase/ivf_flat.h"
#include "pgstub/bufmgr.h"
#include "pgstub/heap_table.h"
#include "temp_path.h"

namespace vecdb {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  VECDB_CHECK(true) << "never rendered";
  VECDB_CHECK_EQ(2 + 2, 4);
  VECDB_CHECK_NE(1, 2);
  VECDB_CHECK_LT(1, 2);
  VECDB_CHECK_LE(2, 2);
  VECDB_CHECK_GT(3, 2);
  VECDB_CHECK_GE(3, 3);
}

TEST(CheckDeathTest, FailureReportsExpressionFileAndMessage) {
  EXPECT_DEATH(VECDB_CHECK(1 == 2) << "extra context 42",
               "CHECK failed: 1 == 2 at .*check_test\\.cc:[0-9]+ "
               "extra context 42");
}

TEST(CheckDeathTest, ComparisonFormsIncludeBothValues) {
  const int lhs = 3;
  const int rhs = 7;
  EXPECT_DEATH(VECDB_CHECK_EQ(lhs, rhs), "\\(3 vs 7\\)");
  EXPECT_DEATH(VECDB_CHECK_GE(lhs, rhs), "\\(3 vs 7\\)");
}

TEST(CheckTest, CheckConditionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  VECDB_CHECK([&] {
    ++evaluations;
    return true;
  }());
  EXPECT_EQ(evaluations, 1);
}

#ifdef NDEBUG
TEST(CheckTest, DCheckCompilesOutInRelease) {
  // The condition must not even be evaluated: no side effects, no abort.
  int evaluations = 0;
  VECDB_DCHECK([&] {
    ++evaluations;
    return false;
  }()) << "never reached in Release";
  VECDB_DCHECK_EQ(1, 2);
  EXPECT_EQ(evaluations, 0);
}
#else
TEST(CheckDeathTest, DCheckIsFatalInDebug) {
  EXPECT_DEATH(VECDB_DCHECK(false) << "debug only", "CHECK failed");
  EXPECT_DEATH(VECDB_DCHECK_EQ(1, 2), "CHECK failed");
}
#endif

TEST(CheckInvariantsSmoke, ThreadPool) {
  ThreadPool pool(2);
  pool.CheckInvariants();
  pool.Submit([] {});
  pool.Wait();
  pool.CheckInvariants();
}

TEST(CheckInvariantsSmoke, BufferManagerAndHeapTable) {
  const std::string dir = TempPath("check_smoke_pg");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 64);
  bufmgr.CheckInvariants();

  auto table =
      pgstub::HeapTable::Create(&bufmgr, smgr.get(), "check_smoke", 8)
          .ValueOrDie();
  const float vec[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int64_t row = 0; row < 100; ++row) {
    ASSERT_TRUE(table.Insert(row, vec).ok());
  }
  bufmgr.CheckInvariants();
  table.CheckInvariants();
}

TEST(CheckInvariantsSmoke, PaseIvfFlat) {
  const std::string dir = TempPath("check_smoke_pase");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 1024);
  SyntheticOptions sopt;
  sopt.dim = 8;
  sopt.num_base = 500;
  sopt.num_queries = 1;
  auto ds = GenerateClustered(sopt);
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 8;
  pase::PaseIvfFlatIndex index({smgr.get(), &bufmgr}, ds.dim, opt);
  index.CheckInvariants();  // pre-build: nothing to audit
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  index.CheckInvariants();
  ASSERT_TRUE(index.Insert(ds.base.data()).ok());
  index.CheckInvariants();
}

TEST(CheckInvariantsSmoke, FaissLikeIvfFlatAndHnsw) {
  SyntheticOptions sopt;
  sopt.dim = 8;
  sopt.num_base = 500;
  sopt.num_queries = 1;
  auto ds = GenerateClustered(sopt);

  faisslike::IvfFlatOptions iopt;
  iopt.num_clusters = 8;
  faisslike::IvfFlatIndex ivf(ds.dim, iopt);
  ivf.CheckInvariants();  // pre-train: nothing to audit
  ASSERT_TRUE(ivf.Build(ds.base.data(), ds.num_base).ok());
  ASSERT_TRUE(ivf.Insert(ds.base.data()).ok());
  ivf.CheckInvariants();

  faisslike::HnswIndex hnsw(ds.dim, faisslike::HnswOptions{});
  hnsw.CheckInvariants();  // empty graph
  ASSERT_TRUE(hnsw.Build(ds.base.data(), 200).ok());
  hnsw.CheckInvariants();
}

}  // namespace
}  // namespace vecdb
