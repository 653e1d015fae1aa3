#include "distance/sgemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"

namespace vecdb {
namespace {

void NaiveGemmTransB(size_t m, size_t n, size_t k, const float* a,
                     const float* b, float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0;
      for (size_t p = 0; p < k; ++p) s += a[i * k + p] * b[j * k + p];
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

// SgemmTransB as it was before it became a dispatched kernel: each 256×128
// panel of Bᵀ packed just before its rank updates (RankUpdateRow). Kept
// verbatim as the bit-identity oracle for the scalar tier.
void PerPanelSgemmTransB(size_t m, size_t n, size_t k, const float* a,
                         const float* b, float* c) {
  constexpr size_t kBlockN = 128;
  constexpr size_t kBlockK = 256;
  std::memset(c, 0, m * n * sizeof(float));
  std::vector<float> bpack(kBlockK * kBlockN);
  for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const size_t nc = std::min(kBlockN, n - j0);
    for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const size_t kc = std::min(kBlockK, k - k0);
      for (size_t p = 0; p < kc; ++p) {
        float* dst = bpack.data() + p * nc;
        for (size_t j = 0; j < nc; ++j) {
          dst[j] = b[(j0 + j) * k + k0 + p];
        }
      }
      for (size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * k + k0;
        float* crow = c + i * n + j0;
        size_t p = 0;
        for (; p + 4 <= kc; p += 4) {
          const float a0 = a_row[p];
          const float a1 = a_row[p + 1];
          const float a2 = a_row[p + 2];
          const float a3 = a_row[p + 3];
          const float* b0 = bpack.data() + p * nc;
          const float* b1 = b0 + nc;
          const float* b2 = b1 + nc;
          const float* b3 = b2 + nc;
          for (size_t j = 0; j < nc; ++j) {
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; p < kc; ++p) {
          const float ap = a_row[p];
          const float* bp = bpack.data() + p * nc;
          for (size_t j = 0; j < nc; ++j) crow[j] += ap * bp[j];
        }
      }
    }
  }
}

class SgemmShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(SgemmShapeTest, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000 + n * 10 + k);
  std::vector<float> a(m * k), b(n * k), c(m * n), ref(m * n);
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  SgemmTransB(m, n, k, a.data(), b.data(), c.data());
  NaiveGemmTransB(m, n, k, a.data(), b.data(), ref.data());
  for (size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.f))
        << "m=" << m << " n=" << n << " k=" << k << " at " << i;
  }
}

// Shapes straddle the register tiles and the 128-column and 256-deep
// blocking edges.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 5, 7), std::make_tuple(8, 8, 128),
                      std::make_tuple(65, 63, 100),
                      std::make_tuple(64, 64, 256),
                      std::make_tuple(70, 130, 300),
                      std::make_tuple(1, 256, 128),
                      std::make_tuple(128, 1, 96)));

std::vector<const KernelDispatch*> Tiers() {
  std::vector<const KernelDispatch*> out;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (const KernelDispatch* t = KernelTableFor(isa)) out.push_back(t);
  }
  return out;
}

std::vector<float> Gaussians(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SgemmTierTest, ScalarTierMatchesRankUpdateRowBitForBit) {
  const KernelDispatch* scalar = KernelTableFor(KernelIsa::kScalar);
  ASSERT_NE(scalar, nullptr);
  // n straddles the 16-column strip and the old 128-column panel edge, k
  // the 256-deep block where the four-step groups restart.
  for (size_t n : {1, 15, 16, 17, 45, 128, 129, 173, 300}) {
    for (size_t k : {1, 3, 4, 5, 128, 255, 256, 257, 600}) {
      for (size_t m : {1, 2, 19}) {
        const auto a = Gaussians(m * k, m * 100000 + n * 1000 + k);
        const auto b = Gaussians(n * k, m * 100000 + n * 1000 + k + 1);
        std::vector<float> legacy(m * n), got(m * n);
        PerPanelSgemmTransB(m, n, k, a.data(), b.data(), legacy.data());
        const PackedCodebook codebook(b.data(), n, k);
        scalar->sgemm(m, n, k, a.data(), codebook.strips(), got.data());
        ASSERT_TRUE(SameBits(legacy, got))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SgemmTierTest, EveryTierMatchesNaiveProducts) {
  for (const KernelDispatch* t : Tiers()) {
    for (size_t k : {1, 8, 128, 257}) {
      const size_t m = 37, n = 53;
      const auto a = Gaussians(m * k, k);
      const auto b = Gaussians(n * k, k + 1);
      std::vector<float> got(m * n), ref(m * n);
      const PackedCodebook codebook(b.data(), n, k);
      t->sgemm(m, n, k, a.data(), codebook.strips(), got.data());
      NaiveGemmTransB(m, n, k, a.data(), b.data(), ref.data());
      // Relative to the sum of |products|, the scale float rounding has.
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          double mag = 0;
          for (size_t p = 0; p < k; ++p) {
            mag += std::fabs(a[i * k + p] * b[j * k + p]);
          }
          ASSERT_NEAR(got[i * n + j], ref[i * n + j], 1e-6 * k * mag + 1e-30)
              << KernelIsaName(t->isa) << " k=" << k << " at " << i << ","
              << j;
        }
      }
    }
  }
}

// The SGEMM decomposition through each tier: distances against the
// per-pair kernel, and the tier's argmin against the per-pair argmin
// wherever the runner-up is not within rounding of the best.
TEST(SgemmTierTest, EveryTierAgreesWithPerPairDistances) {
  const size_t nx = 300, ny = 173, d = 128;
  const auto x = Gaussians(nx * d, 61);
  const auto y = Gaussians(ny * d, 62);
  std::vector<float> ref(nx * ny);
  AllPairsL2SqrNaive(x.data(), nx, y.data(), ny, d, ref.data());
  std::vector<float> xn(nx);
  RowNormsSqr(x.data(), nx, d, xn.data());
  const PackedCodebook codebook(y.data(), ny, d);
  for (const KernelDispatch* t : Tiers()) {
    std::vector<float> dots(nx * ny);
    t->sgemm(nx, ny, d, x.data(), codebook.strips(), dots.data());
    size_t checked = 0;
    for (size_t i = 0; i < nx; ++i) {
      const float* row = ref.data() + i * ny;
      for (size_t j = 0; j < ny; ++j) {
        const float v = xn[i] + codebook.norms()[j] - 2.f * dots[i * ny + j];
        ASSERT_NEAR(v, row[j], 1e-4f * (xn[i] + codebook.norms()[j]))
            << KernelIsaName(t->isa) << " at " << i << "," << j;
      }
      std::vector<float> sorted(row, row + ny);
      std::sort(sorted.begin(), sorted.end());
      if (sorted[1] - sorted[0] <= 1e-3f * sorted[1]) continue;  // near tie
      uint32_t assign = 0;
      float dist = 0.f;
      t->nearest_from_dots(dots.data() + i * ny, 1, ny, &xn[i],
                           codebook.norms(), &assign, &dist);
      EXPECT_EQ(assign, std::min_element(row, row + ny) - row)
          << KernelIsaName(t->isa) << " row " << i;
      ++checked;
    }
    EXPECT_GT(checked, nx * 9 / 10);
  }
}

// Every row of C is the same operation sequence whatever m is and wherever
// the row falls in a register tile: a row computed alone equals the same
// row computed in any batch, bit for bit. m and n straddle each tier's
// tile edges (1 and 16 rows by 16 columns scalar, 6 by 16 AVX2, 12 by 32
// AVX-512) and its 128-column blocks.
TEST(SgemmTierTest, RowsAreIndependentBitForBit) {
  for (const KernelDispatch* t : Tiers()) {
    for (size_t k : {1, 3, 8, 128, 257}) {
      for (size_t n : {1, 15, 16, 17, 31, 32, 33, 173, 256}) {
        const auto b = Gaussians(n * k, n * 1000 + k);
        const PackedCodebook codebook(b.data(), n, k);
        const size_t max_m = 1000;
        const auto a = Gaussians(max_m * k, n * 1000 + k + 1);
        std::vector<float> alone(max_m * n);
        for (size_t i = 0; i < max_m; ++i) {
          t->sgemm(1, n, k, a.data() + i * k, codebook.strips(),
                   alone.data() + i * n);
        }
        for (size_t m : {2, 5, 6, 7, 11, 12, 13, 173, 1000}) {
          std::vector<float> batch(m * n);
          t->sgemm(m, n, k, a.data(), codebook.strips(), batch.data());
          ASSERT_EQ(std::memcmp(batch.data(), alone.data(),
                                batch.size() * sizeof(float)),
                    0)
              << KernelIsaName(t->isa) << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

// The argmin pass picks the same row, with the same distance bits, on
// every tier given the same dots: exact ties (lowest index wins), values
// the decomposition drives negative (clamped to 0), infinities and NaNs
// (never the minimum unless first), at every lane and tail position.
TEST(SgemmTierTest, NearestFromDotsMatchesScalarOnEveryTier) {
  const KernelDispatch* scalar = KernelTableFor(KernelIsa::kScalar);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(71);
  for (size_t n : {1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 173, 256}) {
    const size_t m = 64;
    std::vector<float> dots(m * n), xn(m), yn(n);
    for (auto& v : yn) v = static_cast<float>(rng.Uniform(8));
    for (size_t i = 0; i < m; ++i) {
      xn[i] = static_cast<float>(rng.Uniform(8));
      for (size_t j = 0; j < n; ++j) {
        // Small integers: many exact ties and many negative v.
        float v = static_cast<float>(rng.Uniform(16)) * 0.5f;
        const uint64_t roll = rng.Uniform(40);
        if (roll == 0) v = nan;
        if (roll == 1) v = -inf;  // v = +inf
        if (roll == 2) v = inf;   // v = -inf, clamped to 0
        dots[i * n + j] = i % 8 == 0 ? rng.Gaussian() : v;
      }
    }
    dots[0] = nan;  // row 0: a NaN first v stands
    std::vector<uint32_t> want_assign(m);
    std::vector<float> want_dist(m);
    scalar->nearest_from_dots(dots.data(), m, n, xn.data(), yn.data(),
                              want_assign.data(), want_dist.data());
    EXPECT_EQ(want_assign[0], 0u);
    EXPECT_TRUE(std::isnan(want_dist[0]));
    for (const KernelDispatch* t : Tiers()) {
      std::vector<uint32_t> assign(m);
      std::vector<float> dist(m);
      t->nearest_from_dots(dots.data(), m, n, xn.data(), yn.data(),
                           assign.data(), dist.data());
      EXPECT_EQ(assign, want_assign) << KernelIsaName(t->isa) << " n=" << n;
      EXPECT_TRUE(SameBits(dist, want_dist))
          << KernelIsaName(t->isa) << " n=" << n;
      std::vector<uint32_t> assign_only(m);
      t->nearest_from_dots(dots.data(), m, n, xn.data(), yn.data(),
                           assign_only.data(), nullptr);
      EXPECT_EQ(assign_only, want_assign) << KernelIsaName(t->isa);
    }
  }
}

TEST(PackedCodebookTest, MatchesPerCallPackingBitForBit) {
  for (size_t n : {1, 45, 128, 129, 173, 300}) {
    for (size_t k : {1, 3, 128, 257}) {
      for (size_t m : {1, 2, 19}) {
        const auto a = Gaussians(m * k, m * 100000 + n * 1000 + k);
        const auto b = Gaussians(n * k, m * 100000 + n * 1000 + k + 1);
        std::vector<float> per_call(m * n), packed(m * n);
        SgemmTransB(m, n, k, a.data(), b.data(), per_call.data());
        const PackedCodebook codebook(b.data(), n, k);
        SgemmTransB(m, a.data(), codebook, packed.data());
        ASSERT_TRUE(SameBits(per_call, packed))
            << "m=" << m << " n=" << n << " k=" << k;

        std::vector<float> norms(n), want(m * n), got(m * n);
        RowNormsSqr(b.data(), n, k, norms.data());
        ASSERT_EQ(std::memcmp(norms.data(), codebook.norms(),
                              n * sizeof(float)),
                  0);
        AllPairsL2Sqr(a.data(), m, b.data(), n, k, nullptr, nullptr,
                      want.data());
        AllPairsL2Sqr(a.data(), m, codebook, nullptr, got.data());
        ASSERT_TRUE(SameBits(want, got))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(RowNormsTest, MatchesKernel) {
  Rng rng(5);
  const size_t n = 20, d = 33;
  std::vector<float> x(n * d), norms(n);
  for (auto& v : x) v = rng.Gaussian();
  RowNormsSqr(x.data(), n, d, norms.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(norms[i], L2NormSqr(x.data() + i * d, d));
  }
}

TEST(AllPairsTest, SgemmDecompositionMatchesPerPairKernel) {
  Rng rng(6);
  const size_t nx = 37, ny = 53, d = 64;
  std::vector<float> x(nx * d), y(ny * d), fast(nx * ny), ref(nx * ny);
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y) v = rng.Gaussian();
  AllPairsL2Sqr(x.data(), nx, y.data(), ny, d, nullptr, nullptr, fast.data());
  AllPairsL2SqrNaive(x.data(), nx, y.data(), ny, d, ref.data());
  for (size_t i = 0; i < nx * ny; ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-2f * (ref[i] + 1.f));
  }
}

TEST(AllPairsTest, AcceptsPrecomputedNorms) {
  Rng rng(7);
  const size_t nx = 5, ny = 9, d = 16;
  std::vector<float> x(nx * d), y(ny * d), xn(nx), yn(ny), out1(nx * ny),
      out2(nx * ny);
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y) v = rng.Gaussian();
  RowNormsSqr(x.data(), nx, d, xn.data());
  RowNormsSqr(y.data(), ny, d, yn.data());
  AllPairsL2Sqr(x.data(), nx, y.data(), ny, d, xn.data(), yn.data(),
                out1.data());
  AllPairsL2Sqr(x.data(), nx, y.data(), ny, d, nullptr, nullptr, out2.data());
  for (size_t i = 0; i < nx * ny; ++i) EXPECT_FLOAT_EQ(out1[i], out2[i]);
}

TEST(AllPairsTest, NeverNegative) {
  // The decomposition can dip below zero in float arithmetic; the API
  // guarantees clamping.
  Rng rng(8);
  const size_t n = 40, d = 128;
  std::vector<float> x(n * d), out(n * n);
  for (auto& v : x) v = rng.Gaussian();
  AllPairsL2Sqr(x.data(), n, x.data(), n, d, nullptr, nullptr, out.data());
  for (float v : out) EXPECT_GE(v, 0.f);
  // Diagonal (self distance) must be ~0.
  for (size_t i = 0; i < n; ++i) EXPECT_LT(out[i * n + i], 1e-3f);
}

}  // namespace
}  // namespace vecdb
