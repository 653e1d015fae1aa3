// Specialized-engine IVF_FLAT (Faiss analog): K-means codebook, per-bucket
// contiguous vector storage, SGEMM-batched assignment in the adding phase
// (paper RC#1), k-sized result heaps (RC#6), and lock-free local-heap
// parallel search (RC#3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "faisslike/ivf_scan.h"

namespace vecdb::faisslike {

/// Construction knobs for IvfFlatIndex. Names follow the paper's Table II.
struct IvfFlatOptions {
  uint32_t num_clusters = 256;  ///< c
  double sample_ratio = 0.01;   ///< sr — training sample fraction
  int train_iterations = 10;    ///< K-means Lloyd iterations
  bool use_sgemm = true;        ///< RC#1 toggle (Fig 4 disables this)
  uint64_t seed = 42;
  int num_threads = 1;          ///< build parallelism (RC#3)
};

/// In-memory inverted-file index with exact in-bucket distances.
class IvfFlatIndex final : public IvfScanIndex<IvfFlatIndex> {
 public:
  static constexpr const char* kName = "IvfFlat";

  IvfFlatIndex(uint32_t dim, IvfFlatOptions options)
      : IvfScanIndex(dim), options_(options) {}

  /// Replaces the codebook with externally supplied centroids (used by the
  /// paper's Fig 15 "Faiss*" experiment, which transplants PASE centroids).
  /// Must be called before adding; clears any existing buckets.
  Status SetCentroids(const float* centroids, uint32_t num_clusters);

  size_t SizeBytes() const override;
  std::string Describe() const override;

  /// Aborts if bucket storage is inconsistent: bucket sizes not summing to
  /// the total vector count, a bucket whose vector storage disagrees with
  /// its id list, or a truncated codebook. Test/debug hook.
  void CheckInvariants() const;

  uint32_t dim() const { return dim_; }
  /// Construction options (round-tripped by Save/Load since format v2).
  const IvfFlatOptions& options() const { return options_; }
  /// Ids in one bucket (testing/diagnostics).
  const std::vector<int64_t>& bucket_ids(uint32_t b) const {
    return bucket_ids_[b];
  }

 private:
  friend class IvfScanIndex<IvfFlatIndex>;

  static constexpr uint32_t kMagic = 0x56495646;  // "VIVF"
  /// v1 stored only use_sgemm; v2 appends the rest of the options.
  template <class Io, class Opts>
  static Status OptionFields(Io& io, Opts& o, uint32_t version) {
    VECDB_RETURN_NOT_OK(io.Fields(o.use_sgemm));
    if (version < 2) return Status::OK();
    return io.Fields(o.num_clusters, o.sample_ratio, o.train_iterations,
                     o.seed, o.num_threads);
  }
  /// Each bucket's vectors, then its ids.
  Status SavePayload(BinaryWriter& writer) const;
  Status LoadPayload(BinaryReader& reader);

  /// A bucket stores the float row itself: nothing to train or encode.
  Status TrainPayload(const float* /*data*/, size_t /*n*/) {
    return Status::OK();
  }
  size_t code_size() const { return 0; }
  void Encode(const float* /*vec*/, uint8_t* /*code*/) const {}
  void ResetBuckets(uint32_t num_clusters) {
    bucket_vecs_ = std::vector<AlignedFloats>(num_clusters);
    bucket_ids_.assign(num_clusters, {});
  }
  void Append(uint32_t b, int64_t id, const float* vec,
              const uint8_t* /*code*/) {
    bucket_vecs_[b].Append(vec, dim_);
    bucket_ids_[b].push_back(id);
  }

  /// Exact float L2 against the bucket's contiguous vectors.
  struct Scorer {
    static constexpr const char* kLabel = "fvec_L2sqr";
    const IvfFlatIndex* index;
    const float* query;
    void Score(uint32_t bucket, const uint32_t* pos, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* /*profiler*/) const {
    return {this, query};
  }

  IvfFlatOptions options_;
  std::vector<AlignedFloats> bucket_vecs_;
  std::vector<std::vector<int64_t>> bucket_ids_;
};

}  // namespace vecdb::faisslike
