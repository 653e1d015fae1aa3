#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "datasets/synthetic.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"

namespace vecdb {
namespace {

Dataset SmallClustered(uint32_t dim, size_t n, uint64_t seed = 42) {
  SyntheticOptions opt;
  opt.dim = dim;
  opt.num_base = n;
  opt.num_queries = 1;
  opt.num_natural_clusters = 8;
  opt.seed = seed;
  return GenerateClustered(opt);
}

TEST(KMeansTest, RejectsDegenerateInputs) {
  std::vector<float> data(10 * 4, 0.f);
  KMeansOptions opt;
  opt.num_clusters = 0;
  EXPECT_FALSE(TrainKMeans(data.data(), 10, 4, opt).ok());
  opt.num_clusters = 11;
  EXPECT_FALSE(TrainKMeans(data.data(), 10, 4, opt).ok());
  opt.num_clusters = 2;
  EXPECT_FALSE(TrainKMeans(nullptr, 10, 4, opt).ok());
  EXPECT_FALSE(TrainKMeans(data.data(), 0, 4, opt).ok());
  opt.sample_ratio = 0.0;
  EXPECT_FALSE(TrainKMeans(data.data(), 10, 4, opt).ok());
}

TEST(KMeansTest, ProducesRequestedCodebook) {
  auto ds = SmallClustered(16, 500);
  KMeansOptions opt;
  opt.num_clusters = 10;
  opt.sample_ratio = 1.0;
  auto model = TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_clusters, 10u);
  EXPECT_EQ(model->dim, 16u);
  EXPECT_EQ(model->centroids.size(), 160u);
  EXPECT_GT(model->iterations, 0);
}

TEST(KMeansTest, InertiaBeatsSingleRandomCentroidBaseline) {
  auto ds = SmallClustered(8, 600);
  KMeansOptions opt;
  opt.num_clusters = 8;
  opt.sample_ratio = 1.0;
  auto model =
      TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();

  // Baseline: all points assigned to the global mean.
  std::vector<double> mean(ds.dim, 0.0);
  for (size_t i = 0; i < ds.num_base; ++i) {
    for (uint32_t t = 0; t < ds.dim; ++t) mean[t] += ds.base[i * ds.dim + t];
  }
  std::vector<float> meanf(ds.dim);
  for (uint32_t t = 0; t < ds.dim; ++t) {
    meanf[t] = static_cast<float>(mean[t] / ds.num_base);
  }
  double baseline = 0;
  for (size_t i = 0; i < ds.num_base; ++i) {
    baseline += L2Sqr(ds.base.data() + i * ds.dim, meanf.data(), ds.dim);
  }
  EXPECT_LT(model.inertia, baseline);
}

TEST(KMeansTest, InertiaMonotoneInIterations) {
  auto ds = SmallClustered(8, 400);
  double prev = std::numeric_limits<double>::infinity();
  for (int iters : {1, 3, 10}) {
    KMeansOptions opt;
    opt.num_clusters = 6;
    opt.sample_ratio = 1.0;
    opt.max_iterations = iters;
    auto model =
        TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();
    EXPECT_LE(model.inertia, prev * 1.0001);
    prev = model.inertia;
  }
}

TEST(KMeansTest, StylesProduceDifferentCentroids) {
  // RC#5: the two implementations must genuinely differ.
  auto ds = SmallClustered(16, 500);
  KMeansOptions faiss_opt, pase_opt;
  faiss_opt.num_clusters = pase_opt.num_clusters = 8;
  faiss_opt.sample_ratio = pase_opt.sample_ratio = 1.0;
  faiss_opt.style = KMeansStyle::kFaissStyle;
  pase_opt.style = KMeansStyle::kPaseStyle;
  auto a = TrainKMeans(ds.base.data(), ds.num_base, ds.dim, faiss_opt)
               .ValueOrDie();
  auto b =
      TrainKMeans(ds.base.data(), ds.num_base, ds.dim, pase_opt).ValueOrDie();
  float diff = 0;
  for (size_t i = 0; i < a.centroids.size(); ++i) {
    diff += std::abs(a.centroids[i] - b.centroids[i]);
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  auto ds = SmallClustered(8, 300);
  KMeansOptions opt;
  opt.num_clusters = 5;
  opt.sample_ratio = 0.5;
  auto a = TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();
  auto b = TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();
  for (size_t i = 0; i < a.centroids.size(); ++i) {
    EXPECT_FLOAT_EQ(a.centroids[i], b.centroids[i]);
  }
}

TEST(AssignTest, SgemmAndNaivePathsAgree) {
  auto ds = SmallClustered(32, 300, 7);
  KMeansOptions opt;
  opt.num_clusters = 12;
  opt.sample_ratio = 1.0;
  auto model =
      TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();
  std::vector<uint32_t> a(ds.num_base), b(ds.num_base);
  std::vector<float> da(ds.num_base), db(ds.num_base);
  AssignToNearest(ds.base.data(), ds.num_base, ds.dim,
                  model.centroids.data(), 12, true, a.data(), da.data());
  AssignToNearest(ds.base.data(), ds.num_base, ds.dim,
                  model.centroids.data(), 12, false, b.data(), db.data());
  size_t mismatches = 0;
  for (size_t i = 0; i < ds.num_base; ++i) {
    if (a[i] != b[i]) ++mismatches;  // float round-off ties are possible
    EXPECT_NEAR(da[i], db[i], 1e-2f * (db[i] + 1.f));
  }
  EXPECT_LE(mismatches, ds.num_base / 100);
}

TEST(AssignTest, AssignmentIsActuallyNearest) {
  auto ds = SmallClustered(8, 200, 9);
  KMeansOptions opt;
  opt.num_clusters = 6;
  opt.sample_ratio = 1.0;
  auto model =
      TrainKMeans(ds.base.data(), ds.num_base, ds.dim, opt).ValueOrDie();
  std::vector<uint32_t> assign(ds.num_base);
  AssignToNearest(ds.base.data(), ds.num_base, ds.dim,
                  model.centroids.data(), 6, false, assign.data(), nullptr);
  for (size_t i = 0; i < ds.num_base; ++i) {
    const float chosen = L2Sqr(ds.base.data() + i * ds.dim,
                               model.centroid(assign[i]), ds.dim);
    for (uint32_t c = 0; c < 6; ++c) {
      EXPECT_LE(chosen, L2Sqr(ds.base.data() + i * ds.dim, model.centroid(c),
                              ds.dim) +
                            1e-4f);
    }
  }
}

// The SGEMM assignment spelled out with one per-call SgemmTransB: norms,
// dot products, ‖x‖² + ‖c‖² − 2x·c clamped at 0, first minimum wins.
void ReferenceSgemmAssign(const float* x, size_t n, size_t d,
                          const float* centroids, uint32_t c,
                          std::vector<uint32_t>* assign,
                          std::vector<float>* dist) {
  std::vector<float> xn(n), cn(c), dots(n * c);
  RowNormsSqr(x, n, d, xn.data());
  RowNormsSqr(centroids, c, d, cn.data());
  SgemmTransB(n, c, d, x, centroids, dots.data());
  assign->assign(n, 0);
  dist->assign(n, 0.f);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < c; ++j) {
      float v = xn[i] + cn[j] - 2.f * dots[i * c + j];
      v = v < 0.f ? 0.f : v;
      if (j == 0 || v < (*dist)[i]) {
        (*dist)[i] = v;
        (*assign)[i] = j;
      }
    }
  }
}

TEST(AssignTest, PackedCodebookMatchesPerCallSgemmBitForBit) {
  constexpr size_t kDim = 128;
  constexpr uint32_t kClusters = 173;
  Rng rng(173);
  std::vector<float> centroids(kClusters * kDim);
  for (auto& v : centroids) v = rng.Gaussian();
  // Near-ties: centroid 100 duplicates centroid 5 (the lower id must win),
  // and centroid 172 is centroid 7 nudged by one ulp in one coordinate.
  std::memcpy(&centroids[100 * kDim], &centroids[5 * kDim],
              kDim * sizeof(float));
  std::memcpy(&centroids[172 * kDim], &centroids[7 * kDim],
              kDim * sizeof(float));
  centroids[172 * kDim + 3] = std::nextafter(
      centroids[172 * kDim + 3], std::numeric_limits<float>::infinity());
  const PackedCodebook codebook(centroids.data(), kClusters, kDim);

  for (size_t n : {1, 2, 7, 19, 20, 1023, 1024, 1500}) {
    std::vector<float> x(n * kDim);
    for (auto& v : x) v = rng.Gaussian();
    // Plant exact and midpoint ties among the rows.
    for (size_t i = 0; i < n; i += 3) {
      const float* c0 = &centroids[(i % 2 == 0 ? 5 : 7) * kDim];
      const float* c1 = &centroids[(i % 2 == 0 ? 100 : 172) * kDim];
      for (size_t t = 0; t < kDim; ++t) {
        x[i * kDim + t] = i % 6 == 0 ? c0[t] : 0.5f * (c0[t] + c1[t]);
      }
    }
    std::vector<uint32_t> want_assign;
    std::vector<float> want_dist;
    ReferenceSgemmAssign(x.data(), n, kDim, centroids.data(), kClusters,
                         &want_assign, &want_dist);
    std::vector<uint32_t> packed_assign(n), per_call_assign(n);
    std::vector<float> packed_dist(n), per_call_dist(n);
    AssignToNearest(x.data(), n, codebook, packed_assign.data(),
                    packed_dist.data());
    AssignToNearest(x.data(), n, kDim, centroids.data(), kClusters,
                    /*use_sgemm=*/true, per_call_assign.data(),
                    per_call_dist.data());
    EXPECT_EQ(packed_assign, want_assign) << "n=" << n;
    EXPECT_EQ(per_call_assign, want_assign) << "n=" << n;
    EXPECT_EQ(std::memcmp(packed_dist.data(), want_dist.data(),
                          n * sizeof(float)),
              0)
        << "n=" << n;
    EXPECT_EQ(std::memcmp(per_call_dist.data(), want_dist.data(),
                          n * sizeof(float)),
              0)
        << "n=" << n;
    // The duplicated centroid never wins over its lower-id twin.
    EXPECT_EQ(want_assign[0], 5u);
  }
}

}  // namespace
}  // namespace vecdb
