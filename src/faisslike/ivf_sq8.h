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

  size_t SizeBytes() const override;
  std::string Describe() const override;

  /// Ids in one bucket (testing/diagnostics).
  const std::vector<int64_t>& bucket_ids(uint32_t b) const {
    return buckets_[b].ids();
  }

 private:
  friend class IvfScanIndex<IvfSq8Index>;

  static constexpr uint32_t kMagic = 0x56535138;  // "VSQ8"
  /// Every version stores the whole options block.
  template <class Io, class Opts>
  static Status OptionFields(Io& io, Opts& o, uint32_t /*version*/) {
    return io.Fields(o.num_clusters, o.sample_ratio, o.train_iterations,
                     o.use_sgemm, o.seed);
  }
  /// The SQ8 ranges, then each bucket's codes in row order and its ids.
  Status SavePayload(BinaryWriter& writer) const;
  Status LoadPayload(BinaryReader& reader);

  /// The per-dimension scalar ranges, trained on every row.
  Status TrainPayload(const float* data, size_t n);
  size_t code_size() const { return sq_->code_size(); }
  void Encode(const float* vec, uint8_t* code) const {
    sq_->Encode(vec, code);
  }
  void ResetBuckets(uint32_t num_clusters) {
    buckets_ = std::vector<Sq8CodeStore>(num_clusters);
    for (auto& bucket : buckets_) bucket.Reset(sq_->code_size());
  }
  void Append(uint32_t b, int64_t id, const float* /*vec*/,
              const uint8_t* code) {
    buckets_[b].Append(code, id);
  }

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

  IvfSq8Options options_;
  std::optional<ScalarQuantizer8> sq_;
  std::vector<Sq8CodeStore> buckets_;
};

}  // namespace vecdb::faisslike
