#include <gtest/gtest.h>

#include <filesystem>

#include <memory>

#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "distance/dispatch.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_sq8.h"
#include "obs/metrics.h"
#include "pase/ivf_sq8.h"
#include "sql/database.h"
#include "sql/session.h"
#include "temp_path.h"

namespace vecdb {
namespace {

Dataset TestData() {
  SyntheticOptions opt;
  opt.dim = 32;
  opt.num_base = 2000;
  opt.num_queries = 15;
  opt.num_natural_clusters = 16;
  auto ds = GenerateClustered(opt);
  ComputeGroundTruth(&ds, 10, Metric::kL2);
  return ds;
}

double MeasureRecall(const VectorIndex& index, const Dataset& ds,
                     const SearchParams& params) {
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    results.push_back(index.Search(ds.query_vector(q), params).ValueOrDie());
  }
  return MeanRecallAtK(results, ds.ground_truth, 10);
}

TEST(IvfSq8Test, NearFlatRecallAtQuarterSize) {
  auto ds = TestData();
  faisslike::IvfSq8Options sq_opt;
  sq_opt.num_clusters = 16;
  sq_opt.sample_ratio = 0.5;
  faisslike::IvfSq8Index sq_index(ds.dim, sq_opt);
  ASSERT_TRUE(sq_index.Build(ds.base.data(), ds.num_base).ok());

  faisslike::IvfFlatOptions flat_opt;
  flat_opt.num_clusters = 16;
  flat_opt.sample_ratio = 0.5;
  faisslike::IvfFlatIndex flat_index(ds.dim, flat_opt);
  ASSERT_TRUE(flat_index.Build(ds.base.data(), ds.num_base).ok());

  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  // SQ8 should land close to IVF_FLAT recall (8-bit quantization is mild).
  EXPECT_GE(MeasureRecall(sq_index, ds, params), 0.9);
  // ...at roughly a quarter of the vector payload.
  EXPECT_LT(sq_index.SizeBytes(), flat_index.SizeBytes() / 2);
}

TEST(IvfSq8Test, PaseVariantMatchesRecallBand) {
  auto ds = TestData();
  const std::string dir = TempPath("sq8_pase");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 4096);
  pase::PaseIvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  opt.rel_prefix = "sq8_" + std::string(
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  pase::PaseIvfSq8Index index({smgr.get(), &bufmgr}, ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  EXPECT_GE(MeasureRecall(index, ds, params), 0.85);
  EXPECT_EQ(index.NumVectors(), ds.num_base);
  EXPECT_GT(index.SizeBytes(), 0u);
}

TEST(IvfSq8Test, ErrorPaths) {
  faisslike::IvfSq8Options opt;
  opt.num_clusters = 64;
  faisslike::IvfSq8Index index(8, opt);
  std::vector<float> few(8 * 10, 0.f);
  EXPECT_FALSE(index.Build(few.data(), 10).ok());  // c > n
  SearchParams params;
  EXPECT_FALSE(index.Search(few.data(), params).ok());  // not built
}

filter::SelectionVector EveryOther(size_t n) {
  filter::SelectionVector sel(n);
  for (size_t i = 0; i < n; i += 2) sel.Set(i);
  return sel;
}

std::unique_ptr<pase::PaseIvfSq8Index> BuildPaseSq8(
    const Dataset& ds, pgstub::StorageManager* smgr,
    pgstub::BufferManager* bufmgr, const std::string& prefix) {
  pase::PaseIvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  opt.rel_prefix = prefix;
  auto index = std::make_unique<pase::PaseIvfSq8Index>(
      pase::PaseEnv{smgr, bufmgr}, ds.dim, opt);
  EXPECT_TRUE(index->Build(ds.base.data(), ds.num_base).ok());
  return index;
}

TEST(IvfSq8Test, FilterStrategiesAgreeAtFullProbe) {
  // Pre-filter and in-filter at nprobe=c scan exactly the same surviving
  // codes through the same gather kernel, so their results must be
  // bit-identical; full-selection pre-filter must likewise match the
  // unfiltered batched scan.
  auto ds = TestData();
  faisslike::IvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  faisslike::IvfSq8Index index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());

  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  const auto sel = EveryOther(ds.num_base);
  FilterRequest pre, in;
  pre.selection = &sel;
  pre.strategy = filter::FilterStrategy::kPreFilter;
  in.selection = &sel;
  in.strategy = filter::FilterStrategy::kInFilter;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto a = index.FilteredSearch(ds.query_vector(q), pre, params)
                 .ValueOrDie();
    auto b = index.FilteredSearch(ds.query_vector(q), in, params)
                 .ValueOrDie();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " rank=" << i;
      EXPECT_EQ(a[i].dist, b[i].dist);
      EXPECT_EQ(a[i].id % 2, 0) << "unselected id surfaced";
    }
  }

  filter::SelectionVector all(ds.num_base);
  for (size_t i = 0; i < ds.num_base; ++i) all.Set(i);
  FilterRequest full;
  full.selection = &all;
  full.strategy = filter::FilterStrategy::kPreFilter;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto filtered =
        index.FilteredSearch(ds.query_vector(q), full, params).ValueOrDie();
    auto plain = index.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(filtered.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(filtered[i].id, plain[i].id);
      EXPECT_EQ(filtered[i].dist, plain[i].dist);
    }
  }
}

TEST(IvfSq8Test, PaseFilterStrategiesAgreeAtFullProbe) {
  auto ds = TestData();
  const std::string dir = TempPath("sq8_pase_filter");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 4096);
  auto index = BuildPaseSq8(ds, smgr.get(), &bufmgr, "sq8_filter");

  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  const auto sel = EveryOther(ds.num_base);
  FilterRequest pre, in;
  pre.selection = &sel;
  pre.strategy = filter::FilterStrategy::kPreFilter;
  in.selection = &sel;
  in.strategy = filter::FilterStrategy::kInFilter;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto a = index->FilteredSearch(ds.query_vector(q), pre, params)
                 .ValueOrDie();
    auto b = index->FilteredSearch(ds.query_vector(q), in, params)
                 .ValueOrDie();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " rank=" << i;
      EXPECT_EQ(a[i].dist, b[i].dist);
      EXPECT_EQ(a[i].id % 2, 0);
    }
  }
}

TEST(IvfSq8Test, FastScanCountersReported) {
  auto ds = TestData();
  faisslike::IvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  faisslike::IvfSq8Index index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());

  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  params.ctx.metrics = &registry;
  auto with_metrics = index.Search(ds.query_vector(0), params).ValueOrDie();
  // nprobe=c scans every stored code exactly once.
  EXPECT_EQ(registry.Value(obs::Counter::kKernelSq8Codes), ds.num_base);
  EXPECT_GE(registry.Value(obs::Counter::kKernelSq8Blocks),
            ds.num_base / Sq8CodeStore::kBlockCodes / 16);
  EXPECT_GT(registry.Value(obs::Counter::kKernelSq8Blocks), 0u);

  // Metrics off (default params): identical results — instrumentation
  // must not perturb the scan.
  SearchParams quiet;
  quiet.k = 10;
  quiet.nprobe = 16;
  auto without = index.Search(ds.query_vector(0), quiet).ValueOrDie();
  ASSERT_EQ(with_metrics.size(), without.size());
  for (size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(with_metrics[i].id, without[i].id);
    EXPECT_EQ(with_metrics[i].dist, without[i].dist);
  }
}

TEST(IvfSq8Test, PaseFastScanCountersReported) {
  auto ds = TestData();
  const std::string dir = TempPath("sq8_pase_counters");
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), 4096);
  auto index = BuildPaseSq8(ds, smgr.get(), &bufmgr, "sq8_counters");

  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  params.ctx.metrics = &registry;
  ASSERT_TRUE(index->Search(ds.query_vector(0), params).ok());
  EXPECT_EQ(registry.Value(obs::Counter::kKernelSq8Codes), ds.num_base);
  EXPECT_GT(registry.Value(obs::Counter::kKernelSq8Blocks), 0u);
}

TEST(IvfSq8Test, ShowMetricsReportsKernelIsa) {
  const std::string dir = TempPath("sq8_show_isa");
  std::filesystem::remove_all(dir);
  auto db = std::move(sql::MiniDatabase::Open(dir)).ValueOrDie();
  auto session = db->CreateSession();
  auto result = session->Execute("SHOW METRICS").ValueOrDie();
  const std::string expected =
      std::string("distance.isa: ") + KernelIsaName(ActiveKernelIsa());
  EXPECT_NE(result.message.find(expected), std::string::npos)
      << result.message;
}

TEST(IvfSq8Test, AvailableThroughSql) {
  const std::string dir = TempPath("sq8_sql");
  std::filesystem::remove_all(dir);
  auto db = std::move(sql::MiniDatabase::Open(dir)).ValueOrDie();
  auto session = db->CreateSession();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 64; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", '" + std::to_string(i * 0.1) +
              ",0,0,0')";
  }
  ASSERT_TRUE(session->Execute(insert).ok());
  for (const std::string engine : {"pase", "faiss"}) {
    ASSERT_TRUE(session->Execute("CREATE INDEX sq8_" + engine +
                            " ON t USING ivfsq8 (vec) WITH (clusters=4, "
                            "sample_ratio=1, engine='" +
                            engine + "')")
                    .ok());
    ASSERT_TRUE(session->Execute("DROP INDEX sq8_" + engine).ok());
  }
}

}  // namespace
}  // namespace vecdb
