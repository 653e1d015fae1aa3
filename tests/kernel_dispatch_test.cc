// Dispatch-layer tests: tier resolution (including the VECDB_KERNEL_ISA
// override rule), cross-ISA numerical parity on randomized dimensions
// (odd tails, d < one SIMD lane), the PQ codebook kernels against
// per-codeword inner products and a scalar nearest-codeword reference,
// and the SQ8 fast-scan oracle — batched results bit-identical to
// one-at-a-time calls within a tier.
#include "distance/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "distance/kernels.h"
#include "quantizer/sq8.h"

namespace vecdb {
namespace {

std::vector<float> RandomVec(size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(d);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

/// Every compiled-in tier the host can run. Always contains scalar.
std::vector<const KernelDispatch*> SupportedTables() {
  std::vector<const KernelDispatch*> out;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (const KernelDispatch* t = KernelTableFor(isa)) out.push_back(t);
  }
  return out;
}

// Accumulation-order differences between tiers grow with d and magnitude;
// scale the tolerance with both.
float ParityTol(float ref, size_t d) {
  return 1e-5f * static_cast<float>(d) * std::max(1.f, std::fabs(ref));
}

// Dimensions chosen to exercise every tail shape: below one AVX2 lane,
// below one AVX-512 lane, odd remainders, exact lane multiples.
const size_t kDims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                        24, 31, 33, 63, 100, 128, 257};

TEST(KernelDispatchTest, IsaNamesAreCanonical) {
  EXPECT_STREQ(KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx512), "avx512");
}

TEST(KernelDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
  ASSERT_NE(KernelTableFor(KernelIsa::kScalar), nullptr);
  EXPECT_EQ(KernelTableFor(KernelIsa::kScalar)->isa, KernelIsa::kScalar);
}

TEST(KernelDispatchTest, TablesReportTheirOwnTier) {
  for (const KernelDispatch* t : SupportedTables()) {
    EXPECT_EQ(KernelTableFor(t->isa), t);
    EXPECT_TRUE(KernelIsaSupported(t->isa));
  }
}

TEST(KernelDispatchTest, ActiveTableMatchesResolutionRule) {
  // Reconstruct the host's best tier from the public support predicate and
  // check the active table obeys the documented resolution rule for
  // whatever VECDB_KERNEL_ISA this process was (or wasn't) started with.
  // This is what makes the forced-scalar CI stage a real assertion.
  KernelIsa best = KernelIsa::kScalar;
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (KernelIsaSupported(isa)) best = isa;
  }
  const KernelIsa expected =
      ResolveKernelIsa(std::getenv("VECDB_KERNEL_ISA"), best, nullptr);
  EXPECT_EQ(ActiveKernelIsa(), expected);
  EXPECT_EQ(ActiveKernels().isa, expected);
}

TEST(KernelDispatchTest, ResolveHonorsSupportedDowngrade) {
  std::string note;
  EXPECT_EQ(ResolveKernelIsa("scalar", KernelIsa::kAvx512, &note),
            KernelIsa::kScalar);
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(ResolveKernelIsa("avx2", KernelIsa::kAvx512, &note),
            KernelIsa::kAvx2);
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(ResolveKernelIsa("avx512", KernelIsa::kAvx512, &note),
            KernelIsa::kAvx512);
  EXPECT_TRUE(note.empty());
}

TEST(KernelDispatchTest, ResolveClampsUnsupportedRequest) {
  std::string note;
  EXPECT_EQ(ResolveKernelIsa("avx512", KernelIsa::kAvx2, &note),
            KernelIsa::kAvx2);
  EXPECT_FALSE(note.empty());
  note.clear();
  EXPECT_EQ(ResolveKernelIsa("avx2", KernelIsa::kScalar, &note),
            KernelIsa::kScalar);
  EXPECT_FALSE(note.empty());
}

TEST(KernelDispatchTest, ResolveKeepsBestOnUnknownOrEmpty) {
  std::string note;
  EXPECT_EQ(ResolveKernelIsa(nullptr, KernelIsa::kAvx2, &note),
            KernelIsa::kAvx2);
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(ResolveKernelIsa("", KernelIsa::kAvx512, &note),
            KernelIsa::kAvx512);
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(ResolveKernelIsa("sse9", KernelIsa::kAvx2, &note),
            KernelIsa::kAvx2);
  EXPECT_FALSE(note.empty());
}

TEST(KernelDispatchTest, FloatKernelParityAcrossTiers) {
  const KernelDispatch* scalar = KernelTableFor(KernelIsa::kScalar);
  uint64_t seed = 100;
  for (size_t d : kDims) {
    const auto a = RandomVec(d, ++seed);
    const auto b = RandomVec(d, ++seed);
    const float ref_l2 = scalar->l2sqr(a.data(), b.data(), d);
    const float ref_ip = scalar->inner_product(a.data(), b.data(), d);
    const float ref_norm = scalar->l2norm_sqr(a.data(), d);
    const float ref_cos = scalar->cosine(a.data(), b.data(), d);
    for (const KernelDispatch* t : SupportedTables()) {
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                   " d=" + std::to_string(d));
      EXPECT_NEAR(t->l2sqr(a.data(), b.data(), d), ref_l2,
                  ParityTol(ref_l2, d));
      EXPECT_NEAR(t->inner_product(a.data(), b.data(), d), ref_ip,
                  ParityTol(ref_ip, d));
      EXPECT_NEAR(t->l2norm_sqr(a.data(), d), ref_norm,
                  ParityTol(ref_norm, d));
      // Cosine is a ratio of reductions; its error does not scale with
      // magnitude, only with d.
      EXPECT_NEAR(t->cosine(a.data(), b.data(), d), ref_cos,
                  1e-6f * static_cast<float>(d) + 1e-6f);
    }
  }
}

TEST(KernelDispatchTest, CodebookIpMatchesPerCodewordInnerProduct) {
  // Codeword counts cover a single codeword, every lane tail and the
  // four-accumulator blocks; sub_dims cover 1 through several lanes.
  uint64_t seed = 300;
  for (size_t n : {1, 7, 17, 256}) {
    for (size_t sub_dim : {1, 3, 8, 16, 32}) {
      const auto x = RandomVec(sub_dim, ++seed);
      const auto codebook = RandomVec(n * sub_dim, ++seed);  // row-major
      std::vector<float> dim_major(n * sub_dim);
      for (size_t j = 0; j < n; ++j) {
        for (size_t t = 0; t < sub_dim; ++t) {
          dim_major[t * n + j] = codebook[j * sub_dim + t];
        }
      }
      std::vector<float> out(n);
      for (const KernelDispatch* t : SupportedTables()) {
        SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                     " n=" + std::to_string(n) +
                     " sub_dim=" + std::to_string(sub_dim));
        t->codebook_ip(x.data(), dim_major.data(), sub_dim, n, out.data());
        for (size_t j = 0; j < n; ++j) {
          const float ref =
              t->inner_product(x.data(), codebook.data() + j * sub_dim, sub_dim);
          EXPECT_NEAR(out[j], ref, 1e-5f * std::max(1.f, std::fabs(ref)))
              << "codeword " << j;
        }
      }
    }
  }
}

/// codebook_nearest spelled out from the same tier's codebook_ip and
/// l2norm_sqr: a first-minimum argmin, then every codeword inside the
/// margin, in index order.
CodewordPick NearestReference(const KernelDispatch& t, const float* x,
                              const float* dim_major, const float* norms,
                              size_t sub_dim, size_t n, float slack,
                              std::vector<uint8_t>* near) {
  std::vector<float> score(n);
  t.codebook_ip(x, dim_major, sub_dim, n, score.data());
  uint32_t best = 0;
  float best_s = INFINITY;
  for (size_t j = 0; j < n; ++j) {
    score[j] = norms[j] - 2.f * score[j];
    if (score[j] < best_s) {
      best_s = score[j];
      best = static_cast<uint32_t>(j);
    }
  }
  const float base =
      best_s + slack * (2.f * t.l2norm_sqr(x, sub_dim) + norms[best]);
  near->clear();
  for (size_t j = 0; j < n; ++j) {
    if (!(score[j] > base + slack * norms[j])) {
      near->push_back(static_cast<uint8_t>(j));
    }
  }
  return {best, static_cast<uint32_t>(near->size())};
}

/// Small integers: every product and sum of a few of them is exact in
/// float, so FMA and multiply-add agree and equal scores are true ties on
/// every tier.
std::vector<float> IntegerVec(size_t d, uint64_t seed) {
  auto out = RandomVec(d, seed);
  for (auto& v : out) v = std::round(2.f * v);
  return out;
}

TEST(KernelDispatchTest, CodebookNearestMatchesScalarReference) {
  // Codeword counts straddle every lane and block edge (8, 16, 32, 64) up
  // to the PQ maximum of 256, at sub_dims 1 through 16. Cases: a random codebook and query; an integer codebook whose
  // last codeword duplicates codeword n/3, queried at that codeword (the
  // tie the lower index must win); and an all-equal codebook. Slacks: the
  // encoder's, and a wide one that puts many codewords inside the margin.
  uint64_t seed = 900;
  for (size_t n : {1, 15, 16, 17, 63, 64, 65, 255, 256}) {
    for (size_t sub_dim : {1, 3, 8, 16}) {
      const size_t lo = n / 3;
      auto integer_cb = IntegerVec(n * sub_dim, ++seed);
      std::copy_n(integer_cb.begin() + lo * sub_dim, sub_dim,
                  integer_cb.begin() + (n - 1) * sub_dim);
      const std::vector<float> flat_cb(n * sub_dim, 1.f);
      struct Case {
        const char* name;
        std::vector<float> codebook;  // row-major
        std::vector<float> x;
      };
      const Case cases[] = {
          {"random", RandomVec(n * sub_dim, ++seed),
           RandomVec(sub_dim, ++seed)},
          {"duplicate", integer_cb,
           std::vector<float>(integer_cb.begin() + lo * sub_dim,
                              integer_cb.begin() + (lo + 1) * sub_dim)},
          {"flat", flat_cb, IntegerVec(sub_dim, ++seed)},
      };
      for (const Case& c : cases) {
        std::vector<float> dim_major(n * sub_dim), norms(n);
        for (size_t j = 0; j < n; ++j) {
          for (size_t t = 0; t < sub_dim; ++t) {
            dim_major[t * n + j] = c.codebook[j * sub_dim + t];
          }
          norms[j] = KernelTableFor(KernelIsa::kScalar)
                         ->l2norm_sqr(c.codebook.data() + j * sub_dim, sub_dim);
        }
        // In the duplicate case the exact nearest codewords are the copies
        // of x; the first of them must win.
        size_t first_copy = 0;
        while (first_copy < n &&
               !std::equal(c.x.begin(), c.x.end(),
                          c.codebook.begin() + first_copy * sub_dim)) {
          ++first_copy;
        }
        for (float slack :
             {4.f * static_cast<float>(sub_dim + 2) * FLT_EPSILON, 0.05f}) {
          for (const KernelDispatch* t : SupportedTables()) {
            SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                         " n=" + std::to_string(n) +
                         " sub_dim=" + std::to_string(sub_dim) + " case=" +
                         c.name + " slack=" + std::to_string(slack));
            std::vector<uint8_t> want;
            const CodewordPick ref =
                NearestReference(*t, c.x.data(), dim_major.data(),
                                 norms.data(), sub_dim, n, slack, &want);
            std::vector<uint8_t> near(n);
            const CodewordPick got = t->codebook_nearest(
                c.x.data(), dim_major.data(), norms.data(), sub_dim, n, slack,
                near.data());
            EXPECT_EQ(got.best, ref.best);
            ASSERT_EQ(got.num_near, ref.num_near);
            near.resize(got.num_near);
            EXPECT_EQ(near, want);
            if (std::string(c.name) == "duplicate") {
              EXPECT_EQ(got.best, first_copy);
            } else if (std::string(c.name) == "flat") {
              EXPECT_EQ(got.best, 0u);
              EXPECT_EQ(got.num_near, n);
            }
          }
        }
      }
    }
  }
}

TEST(KernelDispatchTest, CosineZeroVectorConvention) {
  const std::vector<float> zero(16, 0.f);
  const auto b = RandomVec(16, 7);
  for (const KernelDispatch* t : SupportedTables()) {
    SCOPED_TRACE(KernelIsaName(t->isa));
    EXPECT_EQ(t->cosine(zero.data(), b.data(), 16), 1.f);
    EXPECT_EQ(t->cosine(b.data(), zero.data(), 16), 1.f);
    EXPECT_EQ(t->cosine(zero.data(), zero.data(), 16), 1.f);
  }
}

TEST(KernelDispatchTest, PublicKernelsAgreeWithActiveTable) {
  const KernelDispatch& active = ActiveKernels();
  const auto a = RandomVec(128, 41);
  const auto b = RandomVec(128, 42);
  EXPECT_EQ(L2Sqr(a.data(), b.data(), 128),
            active.l2sqr(a.data(), b.data(), 128));
  EXPECT_EQ(InnerProduct(a.data(), b.data(), 128),
            active.inner_product(a.data(), b.data(), 128));
  EXPECT_EQ(L2NormSqr(a.data(), 128), active.l2norm_sqr(a.data(), 128));
  EXPECT_EQ(CosineDistance(a.data(), b.data(), 128),
            active.cosine(a.data(), b.data(), 128));
}

TEST(KernelDispatchTest, DistanceBatchBitIdenticalToSingleCalls) {
  const size_t d = 33, n = 57;
  const auto query = RandomVec(d, 50);
  const auto base = RandomVec(d * n, 51);
  std::vector<float> batch(n);
  for (Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    DistanceBatch(m, query.data(), base.data(), n, d, batch.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], Distance(m, query.data(), base.data() + i * d, d));
    }
  }
}

// --- SQ8 fast-scan oracle ------------------------------------------------

struct Sq8Fixture {
  size_t d;
  size_t n;
  std::vector<float> qadj;
  std::vector<float> scale;
  std::vector<uint8_t> codes;

  Sq8Fixture(size_t d_in, size_t n_in, uint64_t seed) : d(d_in), n(n_in) {
    Rng rng(seed);
    qadj.resize(d);
    scale.resize(d);
    codes.resize(n * d);
    for (auto& v : qadj) v = rng.Gaussian();
    for (auto& v : scale) v = rng.UniformFloat() * 0.05f;
    for (auto& c : codes) {
      c = static_cast<uint8_t>(rng.Uniform(256));
    }
  }
};

TEST(KernelDispatchTest, Sq8BatchBitIdenticalToPerCodeCalls) {
  // The oracle the engines rely on: vector lanes block along the dimension
  // only, so scanning n codes in one call gives exactly the same floats as
  // n one-code calls — per tier, verified for every tail shape.
  uint64_t seed = 200;
  for (size_t d : kDims) {
    Sq8Fixture fx(d, 37, ++seed);
    for (const KernelDispatch* t : SupportedTables()) {
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                   " d=" + std::to_string(d));
      std::vector<float> batch(fx.n);
      t->sq8_l2_batch(fx.qadj.data(), fx.scale.data(), d, fx.codes.data(),
                      fx.n, batch.data());
      for (size_t j = 0; j < fx.n; ++j) {
        float one;
        t->sq8_l2_batch(fx.qadj.data(), fx.scale.data(), d,
                        fx.codes.data() + j * d, 1, &one);
        EXPECT_EQ(batch[j], one) << "code " << j;
      }
    }
  }
}

TEST(KernelDispatchTest, Sq8GatherBitIdenticalToBatch) {
  uint64_t seed = 300;
  for (size_t d : kDims) {
    Sq8Fixture fx(d, 29, ++seed);
    std::vector<const uint8_t*> ptrs(fx.n);
    for (size_t j = 0; j < fx.n; ++j) ptrs[j] = fx.codes.data() + j * d;
    for (const KernelDispatch* t : SupportedTables()) {
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                   " d=" + std::to_string(d));
      std::vector<float> batch(fx.n), gather(fx.n);
      t->sq8_l2_batch(fx.qadj.data(), fx.scale.data(), d, fx.codes.data(),
                      fx.n, batch.data());
      t->sq8_l2_gather(fx.qadj.data(), fx.scale.data(), d, ptrs.data(), fx.n,
                       gather.data());
      for (size_t j = 0; j < fx.n; ++j) EXPECT_EQ(batch[j], gather[j]);
    }
  }
}

TEST(KernelDispatchTest, Sq8ParityAcrossTiers) {
  const KernelDispatch* scalar = KernelTableFor(KernelIsa::kScalar);
  uint64_t seed = 400;
  for (size_t d : kDims) {
    Sq8Fixture fx(d, 19, ++seed);
    std::vector<float> ref(fx.n);
    scalar->sq8_l2_batch(fx.qadj.data(), fx.scale.data(), d, fx.codes.data(),
                         fx.n, ref.data());
    for (const KernelDispatch* t : SupportedTables()) {
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                   " d=" + std::to_string(d));
      std::vector<float> got(fx.n);
      t->sq8_l2_batch(fx.qadj.data(), fx.scale.data(), d, fx.codes.data(),
                      fx.n, got.data());
      for (size_t j = 0; j < fx.n; ++j) {
        EXPECT_NEAR(got[j], ref[j], ParityTol(ref[j], d));
      }
    }
  }
}

TEST(KernelDispatchTest, QuantizerBatchMatchesPreparedSingleCalls) {
  // Same oracle through the public ScalarQuantizer8 API, which always
  // routes through the active tier.
  Rng rng(77);
  const size_t n = 120, d = 24;
  std::vector<float> data(n * d);
  for (auto& v : data) v = rng.Gaussian();
  auto sq = ScalarQuantizer8::Train(data.data(), n, d).ValueOrDie();
  std::vector<uint8_t> codes(n * d);
  for (size_t i = 0; i < n; ++i) {
    sq.Encode(data.data() + i * d, codes.data() + i * d);
  }
  const auto query = RandomVec(d, 78);
  const Sq8Query prep = sq.PrepareQuery(query.data());
  std::vector<float> batch(n);
  sq.DistanceToCodesBatch(prep, codes.data(), n, batch.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], sq.DistanceToCode(prep, codes.data() + i * d));
    // The prepared form is algebraically the decode-on-the-fly distance;
    // only rounding differs.
    EXPECT_NEAR(batch[i], sq.DistanceToCode(query.data(), codes.data() + i * d),
                ParityTol(batch[i], d));
  }
}

}  // namespace
}  // namespace vecdb
