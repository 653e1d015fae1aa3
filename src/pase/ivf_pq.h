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
  Profiler* profiler = nullptr;
};

/// Page-resident IVF_PQ index.
class PaseIvfPqIndex final : public PaseIvfScanIndex<PaseIvfPqIndex> {
 public:
  static constexpr const char* kName = "PaseIvfPq";
  static constexpr size_t kHeaderBytes = sizeof(int64_t);  ///< row id

  PaseIvfPqIndex(PaseEnv env, uint32_t dim, PaseIvfPqOptions options)
      : PaseIvfScanIndex(env, dim), options_(options) {}

  Status Build(const float* data, size_t n) override;

  /// aminsert: encodes and appends the new row to its bucket chain.
  Status Insert(const float* vec) override;

  /// amdelete: tombstones a row (PASE marks dead tuples; VACUUM reclaims).
  /// Row ids are assigned contiguously from 0, so anything outside
  /// [0, num_vectors_) was never indexed and reports NotFound.
  Status Delete(int64_t id) override {
    if (id < 0 || id >= static_cast<int64_t>(num_vectors_)) {
      return Status::NotFound("PaseIvfPq::Delete: row " + std::to_string(id) +
                              " not indexed");
    }
    return tombstones_.Mark(id);
  }

  size_t SizeBytes() const override;
  std::string Describe() const override;

 private:
  friend class PaseIvfScanIndex<PaseIvfPqIndex>;

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
