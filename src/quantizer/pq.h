// Product quantization (Jégou et al.), the compression layer of IVF_PQ.
// Includes both precomputed-distance-table implementations the paper
// contrasts (RC#7): PASE's naive per-pair table and Faiss's optimized
// norm/inner-product decomposition with train-time centroid norms. The
// Faiss side scores a sub-vector against a whole codebook in one kernel
// call (distance/dispatch.h): codebook_nearest for encode, codebook_ip for
// the optimized table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "clustering/kmeans.h"
#include "distance/dispatch.h"

namespace vecdb {

/// Training knobs for ProductQuantizer. Names follow the paper's Table II.
struct PqOptions {
  uint32_t num_subvectors = 16;  ///< m — must divide the vector dimension
  uint32_t num_codes = 256;      ///< c_pq — codewords per subspace (≤ 256)
  int max_iterations = 10;       ///< K-means iterations per subspace
  KMeansStyle style = KMeansStyle::kFaissStyle;
  /// When false, encoding and the naive distance table run on the PASE
  /// reference scalar kernel (fvec_L2sqr_ref) — the paper's "use the same
  /// code as in PASE" configuration (Fig 6).
  bool use_sgemm = true;
  uint64_t seed = 42;
};

/// A trained product quantizer: m per-subspace codebooks of c_pq codewords.
///
/// Codes are m bytes per vector (c_pq ≤ 256). Asymmetric distance
/// computation (ADC) evaluates ‖q − decode(code)‖² as a sum of m table
/// lookups after building a per-query distance table.
class ProductQuantizer {
 public:
  /// Trains per-subspace codebooks on `n` row-major d-dim vectors.
  /// Fails if m does not divide d, c_pq > 256, or n < c_pq.
  static Result<ProductQuantizer> Train(const float* data, size_t n, size_t d,
                                        const PqOptions& options);

  /// How both IVF_PQ engines train their quantizer: on its own sample of
  /// max(c_pq, sample_ratio * n) base rows drawn with `options.seed + 1`,
  /// then Train with `options.seed + 2`.
  static Result<ProductQuantizer> TrainOnSample(const float* data, size_t n,
                                                size_t d, double sample_ratio,
                                                PqOptions options);

  uint32_t dim() const { return dim_; }
  uint32_t num_subvectors() const { return m_; }
  uint32_t num_codes() const { return c_pq_; }
  uint32_t sub_dim() const { return sub_dim_; }

  /// Bytes per encoded vector (= m).
  size_t code_size() const { return m_; }

  /// Floats per query distance table (= m * c_pq).
  size_t table_size() const { return static_cast<size_t>(m_) * c_pq_; }

  /// Quantizes `vec` (dim floats) into `code` (code_size() bytes): per
  /// subspace, the nearest codeword. The Faiss path makes one
  /// codebook_nearest call per subspace, which takes the argmin of
  /// ‖c‖² − 2 x·c over the train-time codeword norms and lists the
  /// codewords within that expansion's rounding bound of the best; those
  /// are re-scored with l2sqr unless the best is alone, so the code always
  /// equals a per-pair l2sqr search's (lowest index on ties). The PASE path
  /// (use_sgemm = false) is that per-pair search on the reference scalar
  /// kernel (RC#1). `kernels` picks the ISA tier (tests and the kernel
  /// report drive every tier).
  void Encode(const float* vec, uint8_t* code,
              const KernelDispatch& kernels = ActiveKernels()) const;

  /// Reconstructs an approximate vector from a code.
  void Decode(const uint8_t* code, float* vec) const;

  /// Builds the per-query ADC table the PASE way: an L2 kernel call per
  /// (subspace, codeword) pair (paper RC#7 naive variant).
  void ComputeDistanceTableNaive(const float* query, float* table) const;

  /// Builds the ADC table the Faiss way: centroid norms precomputed at
  /// train time, query-codeword inner products via one codebook_ip call
  /// per subspace, combined as ‖q‖² + ‖c‖² − 2 q·c (paper RC#7 optimized).
  void ComputeDistanceTableOptimized(
      const float* query, float* table,
      const KernelDispatch& kernels = ActiveKernels()) const;

  /// ADC distance: sum over subspaces of table[sub * c_pq + code[sub]].
  float AdcDistance(const float* table, const uint8_t* code) const {
    float s = 0.f;
    for (uint32_t sub = 0; sub < m_; ++sub) {
      s += table[sub * c_pq_ + code[sub]];
    }
    return s;
  }

  /// ADC over a bucket: out[j] = AdcDistance(table, code j), where code j
  /// starts at codes + pos[j] * code_size(), or at codes + j * code_size()
  /// when `pos` is null. Four codes per step with independent
  /// accumulators; each code is still summed from 0 over subspaces
  /// 0..m−1 in order, so every distance equals AdcDistance's to the bit.
  void AdcScan(const float* table, const uint8_t* codes, const uint32_t* pos,
               size_t n, float* out) const;

  /// Codebook for one subspace: c_pq rows of sub_dim floats.
  const float* codebook(uint32_t sub) const {
    return codebooks_.data() +
           static_cast<size_t>(sub) * c_pq_ * sub_dim_;
  }

  /// Mean squared reconstruction error over `n` vectors (diagnostic).
  double ReconstructionError(const float* data, size_t n) const;

  /// Appends the quantizer's state to an open writer.
  Status Serialize(class BinaryWriter* writer) const;

  /// Reads a quantizer previously written by Serialize.
  static Result<ProductQuantizer> Deserialize(class BinaryReader* reader);

 private:
  ProductQuantizer() = default;

  /// Fills codebooks_dim_major_ from codebooks_ (after Train/Deserialize).
  void BuildDimMajorCodebooks();

  /// Subspace `sub`'s codebook transposed: sub_dim rows of c_pq floats.
  const float* dim_major_codebook(uint32_t sub) const {
    return codebooks_dim_major_.data() +
           static_cast<size_t>(sub) * c_pq_ * sub_dim_;
  }

  uint32_t dim_ = 0;
  uint32_t m_ = 0;
  uint32_t c_pq_ = 0;
  uint32_t sub_dim_ = 0;
  bool use_ref_kernel_ = false;        // PASE-path scalar kernel
  AlignedFloats codebooks_;            // m * c_pq * sub_dim, serialized
  AlignedFloats codebooks_dim_major_;  // per subspace sub_dim * c_pq, derived
  std::vector<float> codeword_norms_;  // m * c_pq, ‖c‖² (encode, table)
};

}  // namespace vecdb
