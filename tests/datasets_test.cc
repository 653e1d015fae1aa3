#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "datasets/ground_truth.h"
#include "datasets/io.h"
#include "datasets/registry.h"
#include "datasets/synthetic.h"
#include "distance/kernels.h"
#include "temp_path.h"

namespace vecdb {
namespace {

TEST(SyntheticTest, ShapesMatchOptions) {
  SyntheticOptions opt;
  opt.dim = 24;
  opt.num_base = 321;
  opt.num_queries = 17;
  auto ds = GenerateClustered(opt);
  EXPECT_EQ(ds.dim, 24u);
  EXPECT_EQ(ds.num_base, 321u);
  EXPECT_EQ(ds.num_queries, 17u);
  EXPECT_EQ(ds.base.size(), 321u * 24u);
  EXPECT_EQ(ds.queries.size(), 17u * 24u);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticOptions opt;
  opt.dim = 8;
  opt.num_base = 50;
  opt.num_queries = 5;
  auto a = GenerateClustered(opt);
  auto b = GenerateClustered(opt);
  for (size_t i = 0; i < a.base.size(); ++i) {
    EXPECT_FLOAT_EQ(a.base[i], b.base[i]);
  }
}

TEST(SyntheticTest, QueriesHaveNearNeighbors) {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 400;
  opt.num_queries = 10;
  opt.cluster_stddev = 0.1f;
  auto ds = GenerateClustered(opt);
  // Each query is a perturbed base vector: its nearest neighbor must be
  // much closer than a random vector.
  for (size_t q = 0; q < ds.num_queries; ++q) {
    float best = 1e30f, mean = 0;
    for (size_t i = 0; i < ds.num_base; ++i) {
      const float d =
          L2Sqr(ds.query_vector(q), ds.base_vector(i), ds.dim);
      best = std::min(best, d);
      mean += d;
    }
    mean /= ds.num_base;
    EXPECT_LT(best, mean * 0.25f);
  }
}

TEST(GroundTruthTest, MatchesBruteForceOrder) {
  SyntheticOptions opt;
  opt.dim = 8;
  opt.num_base = 200;
  opt.num_queries = 5;
  auto ds = GenerateClustered(opt);
  ComputeGroundTruth(&ds, 10, Metric::kL2);
  ASSERT_EQ(ds.ground_truth.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    ASSERT_EQ(ds.ground_truth[q].size(), 10u);
    // Distances must be non-decreasing along the list.
    float prev = -1;
    for (int64_t id : ds.ground_truth[q]) {
      const float d = L2Sqr(ds.query_vector(q),
                            ds.base_vector(static_cast<size_t>(id)), ds.dim);
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(GroundTruthTest, ParallelMatchesSerial) {
  SyntheticOptions opt;
  opt.dim = 8;
  opt.num_base = 150;
  opt.num_queries = 8;
  auto serial = GenerateClustered(opt);
  auto parallel = GenerateClustered(opt);
  ComputeGroundTruth(&serial, 5, Metric::kL2);
  ThreadPool pool(4);
  ComputeGroundTruth(&parallel, 5, Metric::kL2, &pool);
  EXPECT_EQ(serial.ground_truth, parallel.ground_truth);
}

TEST(RecallTest, PerfectAndPartial) {
  std::vector<int64_t> gt = {1, 2, 3, 4};
  std::vector<Neighbor> perfect = {{0.1f, 1}, {0.2f, 2}, {0.3f, 3}, {0.4f, 4}};
  EXPECT_DOUBLE_EQ(RecallAtK(perfect, gt, 4), 1.0);
  std::vector<Neighbor> half = {{0.1f, 1}, {0.2f, 9}, {0.3f, 3}, {0.4f, 8}};
  EXPECT_DOUBLE_EQ(RecallAtK(half, gt, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK({}, gt, 4), 0.0);
}

TEST(RegistryTest, SixPaperDatasetsWithExactDims) {
  const auto& specs = PaperDatasets();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "SIFT1M");
  EXPECT_EQ(specs[0].dim, 128u);
  EXPECT_EQ(specs[1].dim, 960u);   // GIST1M
  EXPECT_EQ(specs[2].dim, 256u);   // DEEP1M
  EXPECT_EQ(specs[4].dim, 96u);    // DEEP10M
  EXPECT_EQ(specs[5].dim, 100u);   // TURING10M
  EXPECT_EQ(specs[3].paper_c, 3162u);
  EXPECT_EQ(specs[1].pq_m, 60u);
}

TEST(RegistryTest, LookupIsCaseInsensitive) {
  EXPECT_NE(FindDataset("sift1m"), nullptr);
  EXPECT_NE(FindDataset("SIFT1M"), nullptr);
  EXPECT_EQ(FindDataset("nope"), nullptr);
}

TEST(RegistryTest, ScaledAnalogShrinksConsistently) {
  const auto* spec = FindDataset("SIFT1M");
  ASSERT_NE(spec, nullptr);
  auto ds = MakePaperAnalog(*spec, 0.01);
  EXPECT_EQ(ds.dim, 128u);
  EXPECT_EQ(ds.num_base, 10000u);
  EXPECT_EQ(ds.name, "SIFT1M");
  const uint32_t c = ScaledClusterCount(*spec, 0.01);
  EXPECT_EQ(c, 100u);  // 1000 * sqrt(0.01)
  EXPECT_EQ(ScaledClusterCount(*spec, 1.0), 1000u);
}

TEST(FvecsIoTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.fvecs");
  std::vector<float> data = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
  ASSERT_TRUE(WriteFvecs(path, data.data(), 2, 3).ok());
  auto loaded = ReadFvecs(path).ValueOrDie();
  EXPECT_EQ(loaded.dim, 3u);
  EXPECT_EQ(loaded.num, 2u);
  for (size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(loaded.values[i], data[i]);
  std::remove(path.c_str());
}

TEST(FvecsIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadFvecs("/nonexistent/x.fvecs").status().IsIOError());
}

TEST(FvecsIoTest, TruncatedFileIsCorruption) {
  const std::string path = TempPath("truncated.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t d = 10;  // promises 10 floats, delivers 2
  std::fwrite(&d, sizeof(d), 1, f);
  const float junk[2] = {1.f, 2.f};
  std::fwrite(junk, sizeof(float), 2, f);
  std::fclose(f);
  EXPECT_TRUE(ReadFvecs(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(IvecsIoTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.ivecs");
  std::vector<std::vector<int32_t>> rows = {{1, 2, 3}, {4, 5, 6}};
  ASSERT_TRUE(WriteIvecs(path, rows).ok());
  auto loaded = ReadIvecs(path).ValueOrDie();
  EXPECT_EQ(loaded, rows);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vecdb
