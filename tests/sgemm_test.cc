#include "distance/sgemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/random.h"
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

// SgemmTransB as it was before Bᵀ panels could be packed ahead of time:
// each 256×128 panel packed just before its rank updates. Kept verbatim as
// the bit-identity oracle for the prepacked path.
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

// Shapes straddle the micro-kernel (4x4) and blocking (64/64/256) edges.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 5, 7), std::make_tuple(8, 8, 128),
                      std::make_tuple(65, 63, 100),
                      std::make_tuple(64, 64, 256),
                      std::make_tuple(70, 130, 300),
                      std::make_tuple(1, 256, 128),
                      std::make_tuple(128, 1, 96)));

TEST(PackedCodebookTest, MatchesPerPanelPackingBitForBit) {
  // n straddles the 128-column panel edge, k the 256-deep one.
  for (size_t n : {1, 45, 128, 129, 173, 300}) {
    for (size_t k : {1, 3, 128, 255, 256, 257, 600}) {
      for (size_t m : {1, 2, 19}) {
        Rng rng(m * 100000 + n * 1000 + k);
        std::vector<float> a(m * k), b(n * k);
        for (auto& v : a) v = rng.Gaussian();
        for (auto& v : b) v = rng.Gaussian();
        std::vector<float> legacy(m * n), per_call(m * n), packed(m * n);
        PerPanelSgemmTransB(m, n, k, a.data(), b.data(), legacy.data());
        SgemmTransB(m, n, k, a.data(), b.data(), per_call.data());
        const PackedCodebook codebook(b.data(), n, k);
        SgemmTransB(m, a.data(), codebook, packed.data());
        ASSERT_EQ(std::memcmp(legacy.data(), per_call.data(),
                              legacy.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
        ASSERT_EQ(std::memcmp(legacy.data(), packed.data(),
                              legacy.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;

        std::vector<float> norms(n), want(m * n), got(m * n);
        RowNormsSqr(b.data(), n, k, norms.data());
        ASSERT_EQ(std::memcmp(norms.data(), codebook.norms(),
                              n * sizeof(float)),
                  0);
        AllPairsL2Sqr(a.data(), m, b.data(), n, k, nullptr, nullptr,
                      want.data());
        AllPairsL2Sqr(a.data(), m, codebook, nullptr, got.data());
        ASSERT_EQ(
            std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0)
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
