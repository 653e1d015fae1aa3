#include "quantizer/pq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "datasets/synthetic.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "temp_path.h"

namespace vecdb {
namespace {

Dataset MakeData(uint32_t dim, size_t n, uint64_t seed = 42) {
  SyntheticOptions opt;
  opt.dim = dim;
  opt.num_base = n;
  opt.num_queries = 4;
  opt.seed = seed;
  return GenerateClustered(opt);
}

PqOptions SmallPq(uint32_t m, uint32_t codes = 16) {
  PqOptions opt;
  opt.num_subvectors = m;
  opt.num_codes = codes;
  opt.max_iterations = 5;
  return opt;
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

/// The per-pair encoder the codebook kernel replaced: one `dist` call per
/// (subspace, codeword) pair, first minimum wins.
template <typename DistFn>
std::vector<uint8_t> PerPairEncode(const ProductQuantizer& pq,
                                   const float* vec, DistFn dist) {
  std::vector<uint8_t> code(pq.code_size());
  const uint32_t sub_dim = pq.sub_dim();
  for (uint32_t sub = 0; sub < pq.num_subvectors(); ++sub) {
    const float* x = vec + static_cast<size_t>(sub) * sub_dim;
    uint32_t best = 0;
    float best_d = std::numeric_limits<float>::infinity();
    for (uint32_t j = 0; j < pq.num_codes(); ++j) {
      const float d =
          dist(x, pq.codebook(sub) + static_cast<size_t>(j) * sub_dim, sub_dim);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    code[sub] = static_cast<uint8_t>(best);
  }
  return code;
}

TEST(PqTest, RejectsBadConfigurations) {
  auto ds = MakeData(32, 100);
  PqOptions opt = SmallPq(5);  // 5 does not divide 32
  EXPECT_FALSE(ProductQuantizer::Train(ds.base.data(), 100, 32, opt).ok());
  opt = SmallPq(4, 300);  // codes > 256
  EXPECT_FALSE(ProductQuantizer::Train(ds.base.data(), 100, 32, opt).ok());
  opt = SmallPq(4, 128);  // n < c_pq
  EXPECT_FALSE(ProductQuantizer::Train(ds.base.data(), 100, 32, opt).ok());
  EXPECT_FALSE(ProductQuantizer::Train(nullptr, 100, 32, SmallPq(4)).ok());
}

TEST(PqTest, GeometryAccessors) {
  auto ds = MakeData(32, 200);
  auto pq =
      ProductQuantizer::Train(ds.base.data(), 200, 32, SmallPq(8)).ValueOrDie();
  EXPECT_EQ(pq.dim(), 32u);
  EXPECT_EQ(pq.num_subvectors(), 8u);
  EXPECT_EQ(pq.sub_dim(), 4u);
  EXPECT_EQ(pq.code_size(), 8u);
  EXPECT_EQ(pq.table_size(), 8u * 16u);
}

TEST(PqTest, EncodeDecodeReducesToNearbyVector) {
  auto ds = MakeData(32, 500);
  auto pq = ProductQuantizer::Train(ds.base.data(), 500, 32, SmallPq(8, 32))
                .ValueOrDie();
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> rec(32);
  // Reconstruction error must be much smaller than data norm on clustered
  // data.
  double err = 0, norm = 0;
  for (size_t i = 0; i < 100; ++i) {
    pq.Encode(ds.base.data() + i * 32, code.data());
    pq.Decode(code.data(), rec.data());
    err += L2Sqr(ds.base.data() + i * 32, rec.data(), 32);
    norm += L2NormSqr(ds.base.data() + i * 32, 32);
  }
  EXPECT_LT(err, 0.5 * norm);
}

TEST(PqTest, ReconstructionErrorShrinksWithMoreCodes) {
  auto ds = MakeData(16, 600, 3);
  auto coarse = ProductQuantizer::Train(ds.base.data(), 600, 16, SmallPq(4, 4))
                    .ValueOrDie();
  auto fine = ProductQuantizer::Train(ds.base.data(), 600, 16, SmallPq(4, 64))
                  .ValueOrDie();
  EXPECT_LT(fine.ReconstructionError(ds.base.data(), 300),
            coarse.ReconstructionError(ds.base.data(), 300));
}

TEST(PqTest, AdcDistanceMatchesDecodedDistance) {
  auto ds = MakeData(32, 400, 5);
  auto pq = ProductQuantizer::Train(ds.base.data(), 400, 32, SmallPq(8, 32))
                .ValueOrDie();
  std::vector<float> table(pq.table_size());
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> rec(32);
  for (size_t q = 0; q < ds.num_queries; ++q) {
    const float* query = ds.query_vector(q);
    pq.ComputeDistanceTableNaive(query, table.data());
    for (size_t i = 0; i < 50; ++i) {
      pq.Encode(ds.base.data() + i * 32, code.data());
      pq.Decode(code.data(), rec.data());
      const float adc = pq.AdcDistance(table.data(), code.data());
      const float direct = L2Sqr(query, rec.data(), 32);
      EXPECT_NEAR(adc, direct, 1e-2f * (direct + 1.f));
    }
  }
}

TEST(PqTest, AdcScanIsBitEqualToPerCodeAdcDistance) {
  // dim 96 divides into every m below; random code bytes reach every
  // table entry, and the sizes cover empty input and the four-code tails.
  constexpr uint32_t kDim = 96;
  auto ds = MakeData(kDim, 300, 19);
  Rng rng(23);
  for (uint32_t m : {1u, 3u, 4u, 8u, 16u, 32u}) {
    for (uint32_t codes : {16u, 256u}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " c_pq=" +
                   std::to_string(codes));
      PqOptions opt = SmallPq(m, codes);
      opt.max_iterations = 1;
      auto pq = ProductQuantizer::Train(ds.base.data(), 300, kDim, opt)
                    .ValueOrDie();
      std::vector<float> table(pq.table_size());
      pq.ComputeDistanceTableOptimized(ds.query_vector(0), table.data());
      for (size_t n : {0, 1, 3, 4, 5, 1001}) {
        // A bucket of 2n + 1 codes; pos selects an ascending subset of n.
        const size_t bucket = 2 * n + 1;
        std::vector<uint8_t> bytes(bucket * pq.code_size());
        for (auto& b : bytes) b = static_cast<uint8_t>(rng.Uniform(codes));
        std::vector<uint32_t> pos;
        for (size_t i = 0; pos.size() < n; ++i) {
          if (bucket - i == n - pos.size() || rng.Uniform(2) == 1) {
            pos.push_back(static_cast<uint32_t>(i));
          }
        }
        std::vector<float> contiguous(n + 1, -1.f), gathered(n + 1, -1.f);
        pq.AdcScan(table.data(), bytes.data(), nullptr, n, contiguous.data());
        pq.AdcScan(table.data(), bytes.data(), pos.data(), n,
                   gathered.data());
        for (size_t j = 0; j < n; ++j) {
          const float want_contiguous =
              pq.AdcDistance(table.data(), bytes.data() + j * m);
          const float want_gathered =
              pq.AdcDistance(table.data(), bytes.data() + pos[j] * m);
          ASSERT_EQ(std::bit_cast<uint32_t>(contiguous[j]),
                    std::bit_cast<uint32_t>(want_contiguous))
              << "n=" << n << " j=" << j;
          ASSERT_EQ(std::bit_cast<uint32_t>(gathered[j]),
                    std::bit_cast<uint32_t>(want_gathered))
              << "n=" << n << " j=" << j;
        }
        // Nothing is written past out[n).
        EXPECT_EQ(contiguous[n], -1.f);
        EXPECT_EQ(gathered[n], -1.f);
      }
    }
  }
}

TEST(PqTest, OptimizedTableMatchesNaiveTable) {
  // RC#7: the optimized table is a pure implementation change — results
  // must be numerically equivalent.
  auto ds = MakeData(64, 500, 7);
  auto pq = ProductQuantizer::Train(ds.base.data(), 500, 64, SmallPq(16, 32))
                .ValueOrDie();
  std::vector<float> naive(pq.table_size()), opt(pq.table_size());
  for (size_t q = 0; q < ds.num_queries; ++q) {
    pq.ComputeDistanceTableNaive(ds.query_vector(q), naive.data());
    pq.ComputeDistanceTableOptimized(ds.query_vector(q), opt.data());
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(opt[i], naive[i], 1e-2f * (naive[i] + 1.f)) << i;
    }
  }
}

TEST(PqTest, EncodeMatchesPerPairOracle) {
  // The Faiss-path encoder (one codebook_nearest call per subspace) must
  // reproduce the per-pair l2sqr encoder's codes exactly, on every tier.
  // Shapes: filtered_rw's m = 16, c_pq = 256, sub_dim 8, then codebook
  // sizes that end on every lane and block tail (1 through 255) at
  // sub_dims 1, 3, 8 and 16.
  struct Shape {
    uint32_t dim, m, codes;
  };
  for (const Shape& shape :
       {Shape{128, 16, 256}, Shape{30, 10, 17}, Shape{16, 16, 1},
        Shape{48, 6, 7}, Shape{64, 4, 100}, Shape{32, 32, 255},
        Shape{36, 12, 256}}) {
    const size_t n = 2000;
    auto ds = MakeData(shape.dim, n, 11);
    auto pq = ProductQuantizer::Train(ds.base.data(), n, shape.dim,
                                      SmallPq(shape.m, shape.codes))
                  .ValueOrDie();
    std::vector<uint8_t> code(pq.code_size());
    for (const KernelDispatch* t : SupportedTables()) {
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                   " dim=" + std::to_string(shape.dim) +
                   " m=" + std::to_string(shape.m) +
                   " c_pq=" + std::to_string(shape.codes));
      size_t differing = 0;
      for (size_t i = 0; i < n; ++i) {
        const float* vec = ds.base.data() + i * shape.dim;
        pq.Encode(vec, code.data(), *t);
        differing += code != PerPairEncode(pq, vec, t->l2sqr);
      }
      EXPECT_EQ(differing, 0u);
    }
  }
}

/// A Faiss-path quantizer over a hand-written codebook (`codebooks` holds
/// m · c_pq · sub_dim floats, subspace-major), read back through
/// Deserialize, which rebuilds the dim-major copy the kernels use.
ProductQuantizer MakeQuantizer(uint32_t m, uint32_t c_pq, uint32_t sub_dim,
                               const std::vector<float>& codebooks) {
  AlignedFloats cb(codebooks.size());
  std::copy(codebooks.begin(), codebooks.end(), cb.data());
  std::vector<float> norms(static_cast<size_t>(m) * c_pq);
  for (size_t j = 0; j < norms.size(); ++j) {
    norms[j] = L2NormSqr(cb.data() + j * sub_dim, sub_dim);
  }
  const std::string path = TempPath("pq_handmade.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x5051, 1)).ValueOrDie();
    EXPECT_TRUE(writer.Fields(m * sub_dim, m, c_pq, sub_dim, false, cb, norms)
                    .ok());
    EXPECT_TRUE(writer.Close().ok());
  }
  auto reader = std::move(BinaryReader::Open(path, 0x5051, 1)).ValueOrDie();
  auto pq = ProductQuantizer::Deserialize(&reader).ValueOrDie();
  std::remove(path.c_str());
  return pq;
}

TEST(PqTest, EncodeSettlesNearTiesLikePerPairSearch) {
  // Two codewords 0.5 apart at magnitude 1000: near their midpoint the
  // ‖c‖² − 2 x·c scores differ by less than their rounding, so only the
  // near-tie re-scoring keeps the per-pair search's code.
  const size_t n = 64;
  std::vector<float> data(n * 2);
  for (size_t i = 0; i < n; ++i) {
    data[2 * i] = data[2 * i + 1] = i % 2 == 0 ? 1000.f : 1000.5f;
  }
  auto pq = ProductQuantizer::Train(data.data(), n, 2, SmallPq(2, 2))
                .ValueOrDie();
  std::vector<uint8_t> code(pq.code_size());
  for (const KernelDispatch* t : SupportedTables()) {
    SCOPED_TRACE(KernelIsaName(t->isa));
    for (int step = 0; step <= 2000; ++step) {
      const float v = 1000.f + 0.5f * static_cast<float>(step) / 2000.f;
      const float vec[2] = {v, v};
      pq.Encode(vec, code.data(), *t);
      EXPECT_EQ(code, PerPairEncode(pq, vec, t->l2sqr)) << "x=" << v;
    }
  }
  // The same walk over hand-built codebooks of every size, where the two
  // codewords (A at 1000, B at 1000.5) each appear twice at scattered
  // indices, in SIMD blocks and in tails, among far-away filler. Near the
  // midpoint x is equidistant from two pairs of identical codewords; the
  // per-pair search keeps the lowest index of the nearer pair, and so
  // must encode.
  for (uint32_t c_pq : {7u, 17u, 100u, 255u, 256u}) {
    for (uint32_t sub_dim : {1u, 3u, 8u}) {
      const uint32_t m = 3;
      // Per subspace, A sits at a and a + 5, B at b and b + 9 (mod c_pq;
      // B wins a clash).
      const uint32_t a[] = {c_pq - 1, c_pq / 2, 1};
      const uint32_t b[] = {c_pq / 3, c_pq - 2, 0};
      std::vector<float> codebooks(static_cast<size_t>(m) * c_pq * sub_dim);
      for (uint32_t sub = 0; sub < m; ++sub) {
        for (uint32_t j = 0; j < c_pq; ++j) {
          float v = -1000.f - static_cast<float>(j);  // filler
          if (j == a[sub] || j == (a[sub] + 5) % c_pq) v = 1000.f;
          if (j == b[sub] || j == (b[sub] + 9) % c_pq) v = 1000.5f;
          std::fill_n(codebooks.begin() +
                          (static_cast<size_t>(sub) * c_pq + j) * sub_dim,
                      sub_dim, v);
        }
      }
      const ProductQuantizer repeated =
          MakeQuantizer(m, c_pq, sub_dim, codebooks);
      std::vector<uint8_t> repeated_code(repeated.code_size());
      std::vector<float> x(repeated.dim());
      for (const KernelDispatch* t : SupportedTables()) {
        SCOPED_TRACE(std::string("isa=") + KernelIsaName(t->isa) +
                     " c_pq=" + std::to_string(c_pq) +
                     " sub_dim=" + std::to_string(sub_dim));
        for (int step = 0; step <= 400; ++step) {
          std::fill(x.begin(), x.end(),
                    1000.f + 0.5f * static_cast<float>(step) / 400.f);
          repeated.Encode(x.data(), repeated_code.data(), *t);
          EXPECT_EQ(repeated_code, PerPairEncode(repeated, x.data(), t->l2sqr))
              << "x=" << x[0];
        }
      }
    }
  }
}

TEST(PqTest, DeserializedQuantizerEncodesAndTablesIdentically) {
  // Deserialize rebuilds the dim-major codebook from the serialized
  // row-major one; codes and optimized tables must not change.
  auto ds = MakeData(64, 800, 13);
  auto pq = ProductQuantizer::Train(ds.base.data(), 800, 64, SmallPq(16, 64))
                .ValueOrDie();
  const std::string path = TempPath("pq_roundtrip.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x5051, 1)).ValueOrDie();
    ASSERT_TRUE(pq.Serialize(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto reader = std::move(BinaryReader::Open(path, 0x5051, 1)).ValueOrDie();
  auto loaded = ProductQuantizer::Deserialize(&reader).ValueOrDie();
  std::vector<uint8_t> a(pq.code_size()), b(pq.code_size());
  for (size_t i = 0; i < 200; ++i) {
    pq.Encode(ds.base.data() + i * 64, a.data());
    loaded.Encode(ds.base.data() + i * 64, b.data());
    EXPECT_EQ(a, b) << i;
  }
  std::vector<float> ta(pq.table_size()), tb(pq.table_size());
  for (size_t q = 0; q < ds.num_queries; ++q) {
    pq.ComputeDistanceTableOptimized(ds.query_vector(q), ta.data());
    loaded.ComputeDistanceTableOptimized(ds.query_vector(q), tb.data());
    EXPECT_EQ(ta, tb) << q;
  }
  std::remove(path.c_str());
}

TEST(PqTest, PasePathIsBitEqualToReferenceKernelLoop) {
  // The paper's PASE baseline: use_sgemm = false encodes, and the naive
  // table is built, with one L2SqrRef call per pair — on every tier.
  auto ds = MakeData(32, 600, 17);
  PqOptions opt = SmallPq(8, 32);
  opt.style = KMeansStyle::kPaseStyle;
  opt.use_sgemm = false;
  auto pq = ProductQuantizer::Train(ds.base.data(), 600, 32, opt).ValueOrDie();
  std::vector<uint8_t> code(pq.code_size());
  for (const KernelDispatch* t : SupportedTables()) {
    SCOPED_TRACE(KernelIsaName(t->isa));
    for (size_t i = 0; i < 200; ++i) {
      const float* vec = ds.base.data() + i * 32;
      pq.Encode(vec, code.data(), *t);
      EXPECT_EQ(code, PerPairEncode(pq, vec, L2SqrRef)) << i;
    }
  }
  std::vector<float> table(pq.table_size());
  for (size_t q = 0; q < ds.num_queries; ++q) {
    const float* query = ds.query_vector(q);
    pq.ComputeDistanceTableNaive(query, table.data());
    for (uint32_t sub = 0; sub < pq.num_subvectors(); ++sub) {
      for (uint32_t j = 0; j < pq.num_codes(); ++j) {
        const float ref =
            L2SqrRef(query + sub * pq.sub_dim(),
                     pq.codebook(sub) + j * pq.sub_dim(), pq.sub_dim());
        EXPECT_EQ(table[sub * pq.num_codes() + j], ref);
      }
    }
  }
}

TEST(PqTest, PaseStyleAndFaissStyleBothTrain) {
  auto ds = MakeData(16, 300, 9);
  PqOptions opt = SmallPq(4, 16);
  opt.style = KMeansStyle::kPaseStyle;
  opt.use_sgemm = false;
  EXPECT_TRUE(ProductQuantizer::Train(ds.base.data(), 300, 16, opt).ok());
  opt.style = KMeansStyle::kFaissStyle;
  opt.use_sgemm = true;
  EXPECT_TRUE(ProductQuantizer::Train(ds.base.data(), 300, 16, opt).ok());
}

}  // namespace
}  // namespace vecdb
