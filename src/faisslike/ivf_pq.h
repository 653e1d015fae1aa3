// Specialized-engine IVF_PQ (Faiss analog): coarse K-means quantizer plus
// per-bucket product-quantized codes. Exercises RC#1 (SGEMM in training and
// assignment) and RC#7 (the optimized precomputed distance table).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "faisslike/ivf_scan.h"
#include "quantizer/pq.h"

namespace vecdb::faisslike {

/// Construction knobs for IvfPqIndex. Names follow the paper's Table II.
struct IvfPqOptions {
  uint32_t num_clusters = 256;  ///< c — coarse codebook size
  uint32_t pq_m = 16;           ///< m — sub-vectors per code
  uint32_t pq_codes = 256;      ///< c_pq — codewords per subspace
  double sample_ratio = 0.01;   ///< sr
  int train_iterations = 10;
  bool use_sgemm = true;        ///< RC#1 toggle (Fig 6 disables this)
  bool optimized_table = true;  ///< RC#7: Faiss-style precomputed table
  /// Re-ranking (Faiss IndexRefineFlat): keep the raw vectors and rescore
  /// the top `refine_factor * k` ADC candidates with exact distances.
  /// 0 disables refinement and raw-vector storage.
  uint32_t refine_factor = 0;
  uint64_t seed = 42;
  int num_threads = 1;
};

/// Inverted file with product-quantized residual-free codes.
class IvfPqIndex final : public IvfScanIndex<IvfPqIndex> {
 public:
  static constexpr const char* kName = "IvfPq";

  IvfPqIndex(uint32_t dim, IvfPqOptions options)
      : IvfScanIndex(dim), options_(options) {}

  size_t SizeBytes() const override;
  std::string Describe() const override;

  const ProductQuantizer* pq() const { return pq_ ? &*pq_ : nullptr; }
  /// Construction options (round-tripped by Save/Load since format v2).
  const IvfPqOptions& options() const { return options_; }
  /// Ids in one bucket (testing/diagnostics).
  const std::vector<int64_t>& bucket_ids(uint32_t b) const {
    return bucket_ids_[b];
  }
  /// PQ codes in one bucket, code_size() bytes per id (testing/diagnostics).
  const std::vector<uint8_t>& bucket_codes(uint32_t b) const {
    return bucket_codes_[b];
  }

 private:
  friend class IvfScanIndex<IvfPqIndex>;

  static constexpr uint32_t kMagic = 0x56505158;  // "VPQX"
  /// v1 stored only optimized_table; v2 appends the rest of the options.
  template <class Io, class Opts>
  static Status OptionFields(Io& io, Opts& o, uint32_t version) {
    VECDB_RETURN_NOT_OK(io.Fields(o.optimized_table));
    if (version < 2) return Status::OK();
    return io.Fields(o.num_clusters, o.pq_m, o.pq_codes, o.sample_ratio,
                     o.train_iterations, o.use_sgemm, o.refine_factor,
                     o.seed, o.num_threads);
  }
  /// The PQ, each bucket's codes then ids, and with refinement the raw
  /// vectors then each row's id.
  Status SavePayload(BinaryWriter& writer) const;
  Status LoadPayload(BinaryReader& reader);

  /// The PQ trains on its own sample (same sr) of the base data.
  Status TrainPayload(const float* data, size_t n);
  size_t code_size() const { return pq_->code_size(); }
  void Encode(const float* vec, uint8_t* code) const {
    pq_->Encode(vec, code);
  }
  void ResetBuckets(uint32_t num_clusters);
  void Append(uint32_t b, int64_t id, const float* vec, const uint8_t* code);

  /// ADC over the bucket's codes through one per-query distance table
  /// (RC#7: Faiss's optimized table, or the naive one when toggled off).
  struct Scorer {
    static constexpr const char* kLabel = "adc_scan";
    const IvfPqIndex* index;
    std::vector<float> table;
    void Score(uint32_t bucket, const uint32_t* pos, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* profiler) const;

  /// With refinement, the scan over-fetches ADC candidates and Refine
  /// rescores them exactly against the stored raw vectors (Faiss
  /// IndexRefineFlat); identity when refine_factor is 0.
  size_t FetchK(size_t k) const {
    return options_.refine_factor > 0 ? k * options_.refine_factor : k;
  }
  std::vector<Neighbor> Refine(const float* query, std::vector<Neighbor> adc,
                               size_t k, Profiler* profiler) const;

  IvfPqOptions options_;
  std::optional<ProductQuantizer> pq_;
  std::vector<std::vector<uint8_t>> bucket_codes_;
  std::vector<std::vector<int64_t>> bucket_ids_;
  /// Raw vectors for re-ranking, kept only when refine_factor > 0. Both
  /// grow (and may reallocate) on Append, so Refine reads them under
  /// `refine_latch_` shared and Append writes them under it exclusive.
  AlignedFloats refine_vectors_;
  std::unordered_map<int64_t, size_t> refine_pos_;  ///< id -> row
  std::unique_ptr<SharedMutex> refine_latch_ =
      std::make_unique<SharedMutex>();
};

}  // namespace vecdb::faisslike
