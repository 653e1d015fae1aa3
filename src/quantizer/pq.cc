#include "quantizer/pq.h"

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "common/serialize.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"

namespace vecdb {

Result<ProductQuantizer> ProductQuantizer::Train(const float* data, size_t n,
                                                 size_t d,
                                                 const PqOptions& options) {
  if (data == nullptr || n == 0 || d == 0) {
    return Status::InvalidArgument("PQ::Train: empty input");
  }
  if (options.num_subvectors == 0 || d % options.num_subvectors != 0) {
    return Status::InvalidArgument(
        "PQ::Train: num_subvectors must divide dim (m=" +
        std::to_string(options.num_subvectors) + ", d=" + std::to_string(d) +
        ")");
  }
  if (options.num_codes == 0 || options.num_codes > 256) {
    return Status::InvalidArgument("PQ::Train: num_codes must be in [1, 256]");
  }
  if (n < options.num_codes) {
    return Status::InvalidArgument(
        "PQ::Train: need at least c_pq training vectors");
  }

  ProductQuantizer pq;
  pq.dim_ = static_cast<uint32_t>(d);
  pq.use_ref_kernel_ = !options.use_sgemm;
  pq.m_ = options.num_subvectors;
  pq.c_pq_ = options.num_codes;
  pq.sub_dim_ = pq.dim_ / pq.m_;
  pq.codebooks_.Resize(static_cast<size_t>(pq.m_) * pq.c_pq_ * pq.sub_dim_);
  pq.codeword_norms_.resize(static_cast<size_t>(pq.m_) * pq.c_pq_);

  // Train one K-means per subspace on the sliced training set.
  AlignedFloats slice(n * pq.sub_dim_);
  for (uint32_t sub = 0; sub < pq.m_; ++sub) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(slice.data() + i * pq.sub_dim_,
                  data + i * d + static_cast<size_t>(sub) * pq.sub_dim_,
                  pq.sub_dim_ * sizeof(float));
    }
    KMeansOptions km;
    km.num_clusters = pq.c_pq_;
    km.max_iterations = options.max_iterations;
    km.sample_ratio = 1.0;  // the caller already sampled the training set
    km.style = options.style;
    km.use_sgemm = options.use_sgemm;
    km.seed = options.seed + sub;
    VECDB_ASSIGN_OR_RETURN(KMeansModel model,
                           TrainKMeans(slice.data(), n, pq.sub_dim_, km));
    std::memcpy(pq.codebooks_.data() +
                    static_cast<size_t>(sub) * pq.c_pq_ * pq.sub_dim_,
                model.centroids.data(),
                static_cast<size_t>(pq.c_pq_) * pq.sub_dim_ * sizeof(float));
  }

  // Train-time codeword norms power the optimized distance table (RC#7).
  for (uint32_t sub = 0; sub < pq.m_; ++sub) {
    RowNormsSqr(pq.codebook(sub), pq.c_pq_, pq.sub_dim_,
                pq.codeword_norms_.data() + static_cast<size_t>(sub) * pq.c_pq_);
  }
  pq.BuildDimMajorCodebooks();
  return pq;
}

Result<ProductQuantizer> ProductQuantizer::TrainOnSample(
    const float* data, size_t n, size_t d, double sample_ratio,
    PqOptions options) {
  const size_t sample_n = std::min(
      n, std::max<size_t>(options.num_codes,
                          static_cast<size_t>(sample_ratio * n)));
  Rng rng(options.seed + 1);
  const auto picks = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(n), static_cast<uint32_t>(sample_n));
  AlignedFloats sample(sample_n * d);
  for (size_t i = 0; i < sample_n; ++i) {
    std::memcpy(sample.data() + i * d,
                data + static_cast<size_t>(picks[i]) * d, d * sizeof(float));
  }
  options.seed += 2;
  return Train(sample.data(), sample_n, d, options);
}

void ProductQuantizer::BuildDimMajorCodebooks() {
  codebooks_dim_major_.Resize(codebooks_.size());
  for (uint32_t sub = 0; sub < m_; ++sub) {
    const float* cb = codebook(sub);
    float* out = codebooks_dim_major_.data() +
                 static_cast<size_t>(sub) * c_pq_ * sub_dim_;
    for (uint32_t j = 0; j < c_pq_; ++j) {
      for (uint32_t t = 0; t < sub_dim_; ++t) {
        out[static_cast<size_t>(t) * c_pq_ + j] =
            cb[static_cast<size_t>(j) * sub_dim_ + t];
      }
    }
  }
}

void ProductQuantizer::Encode(const float* vec, uint8_t* code,
                              const KernelDispatch& kernels) const {
  if (use_ref_kernel_) {
    // PASE encodes with its reference scalar kernel, one call per
    // (subspace, codeword) pair (the IVF adding-phase contrast, RC#1).
    for (uint32_t sub = 0; sub < m_; ++sub) {
      const float* x = vec + static_cast<size_t>(sub) * sub_dim_;
      const float* cb = codebook(sub);
      uint32_t best = 0;
      float best_d = std::numeric_limits<float>::infinity();
      for (uint32_t j = 0; j < c_pq_; ++j) {
        const float dist =
            L2SqrRef(x, cb + static_cast<size_t>(j) * sub_dim_, sub_dim_);
        if (dist < best_d) {
          best_d = dist;
          best = j;
        }
      }
      code[sub] = static_cast<uint8_t>(best);
    }
    return;
  }

  // Faiss path: ‖x − c‖² = ‖x‖² + ‖c‖² − 2 x·c, and ‖x‖² is shared by
  // every codeword, so one codebook_nearest call per subspace scores the
  // whole codebook as ‖c‖² − 2 x·c and returns its argmin.
  //
  // The expansion and a per-pair l2sqr round differently. Both are within
  // E_j = (sub_dim + 2)·ε·(‖x‖² + ‖c_j‖²) of exact, so only a codeword
  // scoring within 2·E_j + 2·E_best of the best can be the per-pair
  // search's pick. `slack` doubles that margin, and the kernel lists the
  // codewords inside it. When the best is alone there the pick is
  // decided; otherwise re-scoring the listed codewords with l2sqr in
  // index order returns exactly the per-pair search's code.
  const float slack = 4.f * static_cast<float>(sub_dim_ + 2) * FLT_EPSILON;
  uint8_t near[256];  // c_pq ≤ 256 (checked in Train and Deserialize)
  for (uint32_t sub = 0; sub < m_; ++sub) {
    const float* x = vec + static_cast<size_t>(sub) * sub_dim_;
    const CodewordPick pick = kernels.codebook_nearest(
        x, dim_major_codebook(sub),
        codeword_norms_.data() + static_cast<size_t>(sub) * c_pq_, sub_dim_,
        c_pq_, slack, near);
    uint32_t best = pick.best;
    if (pick.num_near > 1) {
      const float* cb = codebook(sub);
      float best_d = std::numeric_limits<float>::infinity();
      for (uint32_t k = 0; k < pick.num_near; ++k) {
        const float dist = kernels.l2sqr(
            x, cb + static_cast<size_t>(near[k]) * sub_dim_, sub_dim_);
        if (dist < best_d) {
          best_d = dist;
          best = near[k];
        }
      }
    }
    code[sub] = static_cast<uint8_t>(best);
  }
}

void ProductQuantizer::Decode(const uint8_t* code, float* vec) const {
  for (uint32_t sub = 0; sub < m_; ++sub) {
    std::memcpy(vec + static_cast<size_t>(sub) * sub_dim_,
                codebook(sub) + static_cast<size_t>(code[sub]) * sub_dim_,
                sub_dim_ * sizeof(float));
  }
}

void ProductQuantizer::ComputeDistanceTableNaive(const float* query,
                                                 float* table) const {
  // The PASE implementation: one reference scalar kernel call per
  // (subspace, codeword) pair, recomputing everything per query (RC#7).
  for (uint32_t sub = 0; sub < m_; ++sub) {
    const float* q = query + static_cast<size_t>(sub) * sub_dim_;
    const float* cb = codebook(sub);
    float* row = table + static_cast<size_t>(sub) * c_pq_;
    for (uint32_t j = 0; j < c_pq_; ++j) {
      row[j] = L2SqrRef(q, cb + static_cast<size_t>(j) * sub_dim_, sub_dim_);
    }
  }
}

void ProductQuantizer::ComputeDistanceTableOptimized(
    const float* query, float* table, const KernelDispatch& kernels) const {
  // The Faiss implementation (RC#7): codeword norms were computed once at
  // training time, so the per-query work is one codebook_ip call per
  // subspace combined as ‖q‖² + ‖c‖² − 2 q·c.
  for (uint32_t sub = 0; sub < m_; ++sub) {
    const float* q = query + static_cast<size_t>(sub) * sub_dim_;
    const float* norms = codeword_norms_.data() + static_cast<size_t>(sub) * c_pq_;
    float* row = table + static_cast<size_t>(sub) * c_pq_;
    kernels.codebook_ip(q, dim_major_codebook(sub), sub_dim_, c_pq_, row);
    const float qn = kernels.l2norm_sqr(q, sub_dim_);
    for (uint32_t j = 0; j < c_pq_; ++j) {
      const float v = qn + norms[j] - 2.f * row[j];
      row[j] = v < 0.f ? 0.f : v;
    }
  }
}

void ProductQuantizer::AdcScan(const float* table, const uint8_t* codes,
                               const uint32_t* pos, size_t n,
                               float* out) const {
  // One loop per addressing mode; `code(j)` is code j's bytes. The four
  // sums are independent, so their table loads overlap instead of waiting
  // on one accumulator's add chain.
  const uint32_t m = m_;
  const uint32_t c_pq = c_pq_;
  auto scan = [&](auto code) {
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const uint8_t* c0 = code(j);
      const uint8_t* c1 = code(j + 1);
      const uint8_t* c2 = code(j + 2);
      const uint8_t* c3 = code(j + 3);
      float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
      const float* row = table;
      for (uint32_t sub = 0; sub < m; ++sub, row += c_pq) {
        s0 += row[c0[sub]];
        s1 += row[c1[sub]];
        s2 += row[c2[sub]];
        s3 += row[c3[sub]];
      }
      out[j] = s0;
      out[j + 1] = s1;
      out[j + 2] = s2;
      out[j + 3] = s3;
    }
    for (; j < n; ++j) out[j] = AdcDistance(table, code(j));
  };
  if (pos == nullptr) {
    scan([&](size_t j) { return codes + j * m; });
  } else {
    scan([&](size_t j) { return codes + size_t{pos[j]} * m; });
  }
}

Status ProductQuantizer::Serialize(BinaryWriter* writer) const {
  return writer->Fields(dim_, m_, c_pq_, sub_dim_, use_ref_kernel_,
                        codebooks_, codeword_norms_);
}

Result<ProductQuantizer> ProductQuantizer::Deserialize(BinaryReader* reader) {
  ProductQuantizer pq;
  VECDB_RETURN_NOT_OK(reader->Fields(pq.dim_, pq.m_, pq.c_pq_, pq.sub_dim_,
                                     pq.use_ref_kernel_, pq.codebooks_,
                                     pq.codeword_norms_));
  if (pq.m_ == 0 || pq.sub_dim_ == 0 || pq.dim_ != pq.m_ * pq.sub_dim_ ||
      pq.c_pq_ == 0 || pq.c_pq_ > 256 ||
      pq.codebooks_.size() !=
          static_cast<size_t>(pq.m_) * pq.c_pq_ * pq.sub_dim_ ||
      pq.codeword_norms_.size() != static_cast<size_t>(pq.m_) * pq.c_pq_) {
    return Status::Corruption("PQ: inconsistent serialized geometry");
  }
  pq.BuildDimMajorCodebooks();
  return pq;
}

double ProductQuantizer::ReconstructionError(const float* data,
                                             size_t n) const {
  std::vector<uint8_t> code(code_size());
  std::vector<float> rec(dim_);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    Encode(data + i * dim_, code.data());
    Decode(code.data(), rec.data());
    total += L2Sqr(data + i * dim_, rec.data(), dim_);
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace vecdb
