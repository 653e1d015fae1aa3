// PASE IVF_PQ: page-resident inverted file over product-quantized codes.
// Reproduces RC#1 (no SGEMM), RC#2 (tuple access), RC#5 (PASE K-means),
// RC#6 (n-sized heap), RC#7 (naive per-query precomputed table), and RC#3
// (locked global heap when parallel).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pase/ivf_scan.h"
#include "quantizer/pq.h"

namespace vecdb::pase {

/// Construction knobs. Names follow the paper's Table II.
struct PaseIvfPqOptions {
  uint32_t num_clusters = 256;  ///< c
  uint32_t pq_m = 16;           ///< m
  uint32_t pq_codes = 256;      ///< c_pq
  double sample_ratio = 0.01;   ///< sr
  int train_iterations = 10;
  uint64_t seed = 42;
  std::string rel_prefix = "pase_ivfpq";
};

/// Page-resident IVF_PQ index.
class PaseIvfPqIndex final : public PaseIvfScanIndex<PaseIvfPqIndex> {
 public:
  static constexpr const char* kName = "PaseIvfPq";
  static constexpr size_t kHeaderBytes = sizeof(int64_t);  ///< row id

  PaseIvfPqIndex(PaseEnv env, uint32_t dim, PaseIvfPqOptions options)
      : PaseIvfScanIndex(env, dim), options_(options) {}

  /// The relation files plus the PQ codebook.
  size_t SizeBytes() const override;
  std::string Describe() const override;

 private:
  friend class PaseIvfScanIndex<PaseIvfPqIndex>;

  /// The PQ trains on its own sample (same sr) of the base data.
  Status TrainPayload(const float* data, size_t n);
  size_t payload_bytes() const { return pq_->code_size(); }
  const void* Payload(const float* vec, uint8_t* scratch) const {
    pq_->Encode(vec, scratch);
    return scratch;
  }

  /// ADC over page-resident codes through the naive per-query table
  /// (RC#7: one L2 kernel call per (subspace, codeword) pair, recomputed
  /// from scratch for every query).
  struct Scorer {
    static constexpr const char* kLabel = "adc_scan";
    const ProductQuantizer* pq;
    std::vector<float> table;
    void Score(const char* const* tuples, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* profiler) const;

  PaseIvfPqOptions options_;
  std::optional<ProductQuantizer> pq_;
};

}  // namespace vecdb::pase
