// Specialized-engine IVF_SQ8 (paper §II-B's third quantization index, as
// in Faiss/Milvus): coarse K-means routing plus 8-bit scalar-quantized
// vectors in each bucket — 4x smaller than IVF_FLAT with far better recall
// than IVF_PQ at the same footprint class.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faisslike/ivf_scan.h"
#include "quantizer/sq8.h"

namespace vecdb::faisslike {

/// Construction knobs for IvfSq8Index.
struct IvfSq8Options {
  uint32_t num_clusters = 256;  ///< c
  double sample_ratio = 0.01;   ///< sr
  int train_iterations = 10;
  bool use_sgemm = true;
  uint64_t seed = 42;
  Profiler* profiler = nullptr;
};

/// Inverted file over SQ8-coded vectors. Buckets hold their codes in the
/// blocked Sq8CodeStore layout, scanned with the integer-SIMD fast-scan
/// kernels (one prepared query per search, one batched kernel call per
/// bucket; gated scans gather the selected codes by pointer instead).
class IvfSq8Index final : public IvfScanIndex<IvfSq8Index> {
 public:
  static constexpr const char* kName = "IvfSq8";

  IvfSq8Index(uint32_t dim, IvfSq8Options options)
      : IvfScanIndex(dim), options_(options) {}

  /// Trains the coarse codebook and the per-dimension scalar ranges.
  Status Train(const float* data, size_t n);

  /// Encodes and buckets vectors; ids default to the running count.
  Status AddBatch(const float* data, size_t n, const int64_t* ids = nullptr);

  Status Build(const float* data, size_t n) override;

  /// Incremental insert (PASE's aminsert counterpart).
  Status Insert(const float* vec) override { return AddBatch(vec, 1); }

  size_t SizeBytes() const override;
  std::string Describe() const override;

 private:
  friend class IvfScanIndex<IvfSq8Index>;

  /// SQ8 fast scan against one prepared query.
  struct Scorer {
    static constexpr const char* kLabel = "sq8_scan";
    const IvfSq8Index* index;
    Sq8Query prep;
    void Score(uint32_t bucket, const uint32_t* pos, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* /*profiler*/) const {
    return {this, sq_->PrepareQuery(query)};
  }
  const std::vector<int64_t>& bucket_ids(uint32_t b) const {
    return buckets_[b].ids();
  }

  IvfSq8Options options_;
  std::optional<ScalarQuantizer8> sq_;
  std::vector<Sq8CodeStore> buckets_;
};

}  // namespace vecdb::faisslike
