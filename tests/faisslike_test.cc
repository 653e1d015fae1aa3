#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>

#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "distance/kernels.h"
#include "faisslike/flat_index.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "faisslike/ivf_sq8.h"
#include "filter/selection.h"
#include "obs/metrics.h"

namespace vecdb::faisslike {
namespace {

Dataset TestData(uint32_t dim = 32, size_t n = 2000, size_t nq = 20) {
  SyntheticOptions opt;
  opt.dim = dim;
  opt.num_base = n;
  opt.num_queries = nq;
  opt.num_natural_clusters = 16;
  opt.seed = 42;
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

TEST(FlatIndexTest, ExactRecall) {
  auto ds = TestData();
  FlatIndex index(ds.dim);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  EXPECT_DOUBLE_EQ(MeasureRecall(index, ds, params), 1.0);
  EXPECT_EQ(index.NumVectors(), ds.num_base);
  EXPECT_GT(index.SizeBytes(), ds.num_base * ds.dim * 4);
}

TEST(FlatIndexTest, ResultsSortedAndSizedK) {
  auto ds = TestData();
  FlatIndex index(ds.dim);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 25;
  auto results = index.Search(ds.query_vector(0), params).ValueOrDie();
  ASSERT_EQ(results.size(), 25u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].dist, results[i].dist);
  }
}

TEST(FlatIndexTest, ErrorPaths) {
  FlatIndex index(8);
  SearchParams params;
  EXPECT_FALSE(index.Search(nullptr, params).ok());
  std::vector<float> q(8, 0.f);
  params.k = 0;
  EXPECT_FALSE(index.Search(q.data(), params).ok());
  EXPECT_FALSE(index.Add(nullptr, 1).ok());
}

TEST(IvfFlatTest, HighRecallWithEnoughProbes) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 32;
  opt.sample_ratio = 0.5;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 32;  // probing every bucket => exact
  EXPECT_DOUBLE_EQ(MeasureRecall(index, ds, params), 1.0);
  params.nprobe = 8;
  EXPECT_GE(MeasureRecall(index, ds, params), 0.8);
}

TEST(IvfFlatTest, BuildStatsPopulated) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 16;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  EXPECT_GT(index.build_stats().train_seconds, 0.0);
  EXPECT_GT(index.build_stats().add_seconds, 0.0);
}

TEST(IvfFlatTest, SgemmOnOffSameResults) {
  auto ds = TestData();
  IvfFlatOptions on, off;
  on.num_clusters = off.num_clusters = 16;
  on.use_sgemm = true;
  off.use_sgemm = false;
  IvfFlatIndex a(ds.dim, on), b(ds.dim, off);
  ASSERT_TRUE(a.Build(ds.base.data(), ds.num_base).ok());
  ASSERT_TRUE(b.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  for (size_t q = 0; q < 5; ++q) {
    auto ra = a.Search(ds.query_vector(q), params).ValueOrDie();
    auto rb = b.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

TEST(IvfFlatTest, CentroidTransplant) {
  // The Fig 15 mechanism: an index fed foreign centroids must use them.
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 16;
  IvfFlatIndex donor(ds.dim, opt), recipient(ds.dim, opt);
  ASSERT_TRUE(donor.Build(ds.base.data(), ds.num_base).ok());
  ASSERT_TRUE(
      recipient.SetCentroids(donor.centroids(), donor.num_clusters()).ok());
  ASSERT_TRUE(recipient.AddBatch(ds.base.data(), ds.num_base).ok());
  // Same centroids + same data => identical bucket contents.
  for (uint32_t b = 0; b < donor.num_clusters(); ++b) {
    EXPECT_EQ(donor.bucket_ids(b), recipient.bucket_ids(b)) << "bucket " << b;
  }
}

TEST(IvfFlatTest, ParallelSearchMatchesSerial) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 32;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams serial, parallel;
  serial.k = parallel.k = 10;
  serial.nprobe = parallel.nprobe = 16;
  parallel.num_threads = 4;
  ParallelAccounting acct;
  parallel.ctx.accounting = &acct;
  for (size_t q = 0; q < 5; ++q) {
    auto rs = index.Search(ds.query_vector(q), serial).ValueOrDie();
    auto rp = index.Search(ds.query_vector(q), parallel).ValueOrDie();
    EXPECT_EQ(rs, rp);
  }
  EXPECT_EQ(acct.worker_busy_nanos.size(), 4u);
  EXPECT_GT(acct.TotalWorkSeconds(), 0.0);
}

// What a built IVF index holds, bit for bit: the codebook, every bucket's
// ids (and IVF_PQ codes), and search results with their distance bits.
template <class Index>
void ExpectSameIndex(const Index& want, const Index& got, const Dataset& ds,
                     const std::string& what) {
  ASSERT_EQ(want.num_clusters(), got.num_clusters()) << what;
  ASSERT_EQ(std::memcmp(want.centroids(), got.centroids(),
                        static_cast<size_t>(want.num_clusters()) * ds.dim *
                            sizeof(float)),
            0)
      << what;
  for (uint32_t b = 0; b < want.num_clusters(); ++b) {
    ASSERT_EQ(want.bucket_ids(b), got.bucket_ids(b)) << what << " bucket " << b;
    if constexpr (requires { want.bucket_codes(b); }) {
      ASSERT_EQ(want.bucket_codes(b), got.bucket_codes(b))
          << what << " bucket " << b;
    }
  }
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    const auto a = want.Search(ds.query_vector(q), params).ValueOrDie();
    const auto b = got.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << what << " query " << q;
      EXPECT_EQ(std::bit_cast<uint32_t>(a[i].dist),
                std::bit_cast<uint32_t>(b[i].dist))
          << what << " query " << q;
    }
  }
}

IvfFlatOptions FlatBuildOptions(int threads) {
  IvfFlatOptions o;
  o.num_clusters = 16;
  o.num_threads = threads;
  return o;
}

IvfPqOptions PqBuildOptions(int threads) {
  IvfPqOptions o;
  o.num_clusters = 16;
  o.pq_m = 8;
  o.pq_codes = 64;
  o.refine_factor = 4;
  o.num_threads = threads;
  return o;
}

// SQL builds encode on every hardware thread; the index must not depend on
// how many: one thread and two and four give the same index.
TEST(IvfBuildThreadsTest, FlatBuildIsTheSameAtEveryThreadCount) {
  const auto ds = TestData();
  IvfFlatIndex one(ds.dim, FlatBuildOptions(1));
  ASSERT_TRUE(one.Build(ds.base.data(), ds.num_base).ok());
  for (int threads : {2, 4}) {
    IvfFlatIndex many(ds.dim, FlatBuildOptions(threads));
    ASSERT_TRUE(many.Build(ds.base.data(), ds.num_base).ok());
    ExpectSameIndex(one, many, ds, "threads " + std::to_string(threads));
  }
}

TEST(IvfBuildThreadsTest, PqBuildIsTheSameAtEveryThreadCount) {
  const auto ds = TestData();
  IvfPqIndex one(ds.dim, PqBuildOptions(1));
  ASSERT_TRUE(one.Build(ds.base.data(), ds.num_base).ok());
  for (int threads : {2, 4}) {
    IvfPqIndex many(ds.dim, PqBuildOptions(threads));
    ASSERT_TRUE(many.Build(ds.base.data(), ds.num_base).ok());
    ExpectSameIndex(one, many, ds, "threads " + std::to_string(threads));
  }
}

// A row's SGEMM assignment does not depend on the batch it arrives in: rows
// inserted one at a time after the same training land in the buckets, with
// the codes, that one batch build gives them.
TEST(IvfBuildThreadsTest, OneRowInsertsMatchTheBatchBuild) {
  const auto ds = TestData();
  for (int threads : {1, 4}) {
    const std::string what = "threads " + std::to_string(threads);
    IvfFlatIndex flat_batch(ds.dim, FlatBuildOptions(threads));
    IvfFlatIndex flat_rows(ds.dim, FlatBuildOptions(threads));
    ASSERT_TRUE(flat_batch.Build(ds.base.data(), ds.num_base).ok());
    ASSERT_TRUE(flat_rows.Train(ds.base.data(), ds.num_base).ok());
    IvfPqIndex pq_batch(ds.dim, PqBuildOptions(threads));
    IvfPqIndex pq_rows(ds.dim, PqBuildOptions(threads));
    ASSERT_TRUE(pq_batch.Build(ds.base.data(), ds.num_base).ok());
    ASSERT_TRUE(pq_rows.Train(ds.base.data(), ds.num_base).ok());
    for (size_t i = 0; i < ds.num_base; ++i) {
      ASSERT_TRUE(flat_rows.Insert(ds.base_vector(i)).ok());
      ASSERT_TRUE(pq_rows.Insert(ds.base_vector(i)).ok());
    }
    ExpectSameIndex(flat_batch, flat_rows, ds, "flat " + what);
    ExpectSameIndex(pq_batch, pq_rows, ds, "pq " + what);
  }
}

TEST(IvfFlatTest, ErrorPaths) {
  IvfFlatOptions opt;
  opt.num_clusters = 64;
  IvfFlatIndex index(8, opt);
  std::vector<float> few(8 * 10, 0.f);
  EXPECT_FALSE(index.Build(few.data(), 10).ok());  // c > n
  std::vector<float> q(8, 0.f);
  SearchParams params;
  EXPECT_FALSE(index.Search(q.data(), params).ok());  // not built
}

TEST(IvfPqTest, ReasonableRecallDespiteCompression) {
  auto ds = TestData(32, 3000);
  IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 64;
  opt.sample_ratio = 0.3;
  IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  // PQ without re-ranking is lossy; require clearly-better-than-random.
  EXPECT_GE(MeasureRecall(index, ds, params), 0.3);
  // PQ codes must be far smaller than raw vectors.
  EXPECT_LT(index.SizeBytes(), ds.num_base * ds.dim * sizeof(float));

  // More codewords must improve recall (quantization property).
  IvfPqOptions fine = opt;
  fine.pq_codes = 256;
  IvfPqIndex fine_index(ds.dim, fine);
  ASSERT_TRUE(fine_index.Build(ds.base.data(), ds.num_base).ok());
  EXPECT_GE(MeasureRecall(fine_index, ds, params) + 0.05,
            MeasureRecall(index, ds, params));
}

TEST(IvfPqTest, OptimizedAndNaiveTablesAgreeOnResults) {
  auto ds = TestData(32, 1500);
  IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 32;
  opt.sample_ratio = 0.5;
  IvfPqIndex fast(ds.dim, opt);
  opt.optimized_table = false;
  IvfPqIndex slow(ds.dim, opt);
  ASSERT_TRUE(fast.Build(ds.base.data(), ds.num_base).ok());
  ASSERT_TRUE(slow.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (size_t q = 0; q < 5; ++q) {
    auto rf = fast.Search(ds.query_vector(q), params).ValueOrDie();
    auto rs = slow.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(rf.size(), rs.size());
    for (size_t i = 0; i < rf.size(); ++i) EXPECT_EQ(rf[i].id, rs[i].id);
  }
}

TEST(IvfPqTest, RefinementBoostsRecall) {
  // Faiss IndexRefineFlat behaviour: re-ranking ADC candidates against the
  // raw vectors must not hurt recall, and typically improves it.
  auto ds = TestData(32, 2000);
  IvfPqOptions base;
  base.num_clusters = 16;
  base.pq_m = 8;
  base.pq_codes = 16;  // coarse codes so ADC alone is noticeably lossy
  base.sample_ratio = 0.5;
  IvfPqIndex plain(ds.dim, base);
  base.refine_factor = 4;
  IvfPqIndex refined(ds.dim, base);
  ASSERT_TRUE(plain.Build(ds.base.data(), ds.num_base).ok());
  ASSERT_TRUE(refined.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 16;
  const double plain_recall = MeasureRecall(plain, ds, params);
  const double refined_recall = MeasureRecall(refined, ds, params);
  EXPECT_GE(refined_recall + 1e-9, plain_recall);
  // Refinement is bounded by the ADC candidate pool; require a clear gain
  // over the unrefined index rather than an absolute bar.
  EXPECT_GE(refined_recall, plain_recall + 0.05);
  // Refinement stores the raw vectors: strictly larger footprint.
  EXPECT_GT(refined.SizeBytes(), plain.SizeBytes());
}

TEST(IvfPqTest, RefinedResultsAreExactDistances) {
  auto ds = TestData(32, 1000);
  IvfPqOptions opt;
  opt.num_clusters = 8;
  opt.pq_m = 8;
  opt.pq_codes = 16;
  opt.sample_ratio = 0.5;
  opt.refine_factor = 3;
  IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 5;
  params.nprobe = 8;
  auto results = index.Search(ds.query_vector(0), params).ValueOrDie();
  for (const auto& nb : results) {
    const float exact = L2Sqr(ds.query_vector(0),
                              ds.base_vector(static_cast<size_t>(nb.id)),
                              ds.dim);
    EXPECT_NEAR(nb.dist, exact, 1e-3f * (exact + 1.f));
  }
}

// The gated bucket scan against the unfiltered one over the same probed
// buckets: an unfiltered search with k at least the table size returns
// every entry of those buckets, so it fixes what the in-filter scan must
// count and return. Its bitmap tests are the probed entries, its visited
// tuples and heap offers the selected ones among them, and its top k the
// first k selected entries of that list, with the same distance bits.
TEST(IvfScanTest, GatedScanCountsAndResultsFollowTheUnfilteredScan) {
  auto ds = TestData(32, 1500);
  IvfFlatOptions flat;
  flat.num_clusters = 12;
  IvfPqOptions pq;
  pq.num_clusters = 12;
  pq.pq_m = 8;
  pq.pq_codes = 32;
  pq.sample_ratio = 0.5;
  IvfSq8Options sq8;
  sq8.num_clusters = 12;
  sq8.sample_ratio = 0.5;
  std::vector<std::unique_ptr<VectorIndex>> indexes;
  indexes.push_back(std::make_unique<IvfFlatIndex>(ds.dim, flat));
  indexes.push_back(std::make_unique<IvfPqIndex>(ds.dim, pq));
  indexes.push_back(std::make_unique<IvfSq8Index>(ds.dim, sq8));
  filter::SelectionVector selection(ds.num_base);
  for (size_t i = 0; i < ds.num_base; ++i) {
    if (i % 5 == 1 || i % 7 == 0) selection.Set(i);
  }
  for (auto& index : indexes) {
    SCOPED_TRACE(index->Describe());
    ASSERT_TRUE(index->Build(ds.base.data(), ds.num_base).ok());
    for (uint32_t nprobe : {1u, 3u, 12u}) {
      for (size_t q = 0; q < 3; ++q) {
        SearchParams params;
        params.nprobe = nprobe;
        params.k = ds.num_base;
        obs::MetricsRegistry plain_metrics;
        plain_metrics.SetEnabled(true);
        params.ctx.metrics = &plain_metrics;
        auto all = index->Search(ds.query_vector(q), params).ValueOrDie();
        ASSERT_EQ(all.size(),
                  plain_metrics.Value(obs::Counter::kFaissTuplesVisited));
        std::vector<Neighbor> want;
        for (const auto& nb : all) {
          if (selection.Test(static_cast<size_t>(nb.id))) want.push_back(nb);
        }

        params.k = 10;
        obs::MetricsRegistry gated_metrics;
        gated_metrics.SetEnabled(true);
        params.ctx.metrics = &gated_metrics;
        FilterRequest request;
        request.selection = &selection;
        request.strategy = filter::FilterStrategy::kInFilter;
        auto got = index->FilteredSearch(ds.query_vector(q), request, params)
                       .ValueOrDie();
        EXPECT_EQ(gated_metrics.Value(obs::Counter::kFilterBitmapProbes),
                  all.size());
        EXPECT_EQ(gated_metrics.Value(obs::Counter::kFaissTuplesVisited),
                  want.size());
        EXPECT_EQ(gated_metrics.Value(obs::Counter::kFaissHeapPushes),
                  want.size());
        EXPECT_EQ(gated_metrics.Value(obs::Counter::kFaissBucketsProbed),
                  nprobe);
        if (want.size() > params.k) want.resize(params.k);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "nprobe=" << nprobe;
          EXPECT_EQ(std::bit_cast<uint32_t>(got[i].dist),
                    std::bit_cast<uint32_t>(want[i].dist));
        }
      }
    }
  }
}

TEST(HnswTest, HighRecall) {
  auto ds = TestData(32, 2000);
  HnswOptions opt;
  opt.bnn = 16;
  opt.efb = 40;
  HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.efs = 100;
  EXPECT_GE(MeasureRecall(index, ds, params), 0.9);
}

TEST(HnswTest, DegreeBoundsRespected) {
  auto ds = TestData(16, 800);
  HnswOptions opt;
  opt.bnn = 8;
  HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  for (uint32_t node = 0; node < 800; ++node) {
    for (int lev = 0; lev <= index.NodeLevel(node); ++lev) {
      const auto nbrs = index.NeighborsOf(node, lev);
      EXPECT_LE(nbrs.size(), lev == 0 ? 16u : 8u);
      // No self loops, no duplicate edges.
      std::set<uint32_t> uniq(nbrs.begin(), nbrs.end());
      EXPECT_EQ(uniq.size(), nbrs.size());
      EXPECT_EQ(uniq.count(node), 0u);
    }
  }
}

TEST(HnswTest, EfsImprovesRecall) {
  auto ds = TestData(32, 2000);
  HnswOptions opt;
  opt.bnn = 8;
  opt.efb = 20;
  HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams lo, hi;
  lo.k = hi.k = 10;
  lo.efs = 10;
  hi.efs = 200;
  EXPECT_GE(MeasureRecall(index, ds, hi) + 1e-9,
            MeasureRecall(index, ds, lo));
}

TEST(HnswTest, ProfiledBuildSavesTheSameBytes) {
  // The build profiler only observes: the same input saves to the same
  // file with and without it.
  auto ds = TestData(16, 600, 1);
  Profiler profiler;
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    HnswOptions opt;
    opt.bnn = 8;
    opt.efb = 20;
    if (run == 1) opt.profiler = &profiler;
    HnswIndex index(ds.dim, opt);
    ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
    const std::string path =
        ::testing::TempDir() + "/hnsw_profiled_" + std::to_string(run);
    ASSERT_TRUE(index.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    bytes[run].assign(std::istreambuf_iterator<char>(in), {});
    std::filesystem::remove(path);
  }
  EXPECT_GT(profiler.Nanos("SearchNbToAdd"), 0);
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << "profiled build saved other bytes";
}

TEST(HnswTest, SingleVectorIndex) {
  HnswOptions opt;
  HnswIndex index(4, opt);
  std::vector<float> v = {1.f, 2.f, 3.f, 4.f};
  ASSERT_TRUE(index.Build(v.data(), 1).ok());
  SearchParams params;
  params.k = 5;
  auto results = index.Search(v.data(), params).ValueOrDie();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 0);
  EXPECT_NEAR(results[0].dist, 0.f, 1e-6f);
}

TEST(HnswTest, ErrorPaths) {
  HnswOptions opt;
  HnswIndex index(4, opt);
  SearchParams params;
  std::vector<float> q(4, 0.f);
  EXPECT_FALSE(index.Search(q.data(), params).ok());  // empty
  EXPECT_FALSE(index.Build(nullptr, 10).ok());
}

}  // namespace
}  // namespace vecdb::faisslike
