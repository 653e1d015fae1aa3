// The paper's §IX-C "future generalized vector database": an IVF_FLAT that
// still lives inside the relational substrate (its buckets are durable
// pgstub pages), but with the five guideline fixes applied. Every fix is a
// toggle so the ablation benchmark can walk from PASE-equivalent to
// Faiss-equivalent one root cause at a time:
//   Step#1 memory_table  — mirror pages into contiguous memory and search
//                          pointer-direct (fixes RC#2)
//   Step#2 use_sgemm     — batched assignment in build (fixes RC#1)
//   Step#3 k_heap        — bounded k-heap instead of n-heap (fixes RC#6)
//   Step#4 local_heaps   — per-worker heaps + merge when parallel (RC#3)
//   Step#5 faiss_kmeans  — better clustering (fixes RC#5)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "pase/pase_common.h"
#include "topk/heaps.h"

namespace vecdb::bridge {

/// Guideline toggles plus the usual IVF parameters.
struct BridgedIvfFlatOptions {
  uint32_t num_clusters = 256;
  double sample_ratio = 0.01;
  int train_iterations = 10;
  uint64_t seed = 42;
  std::string rel_prefix = "bridged_ivfflat";

  bool memory_table = true;  ///< Step#1 (RC#2)
  bool use_sgemm = true;     ///< Step#2 (RC#1)
  bool k_heap = true;        ///< Step#3 (RC#6)
  bool local_heaps = true;   ///< Step#4 (RC#3)
  bool faiss_kmeans = true;  ///< Step#5 (RC#5)
};

/// Page-durable IVF_FLAT with the bridge fixes applied.
class BridgedIvfFlatIndex final : public VectorIndex {
 public:
  BridgedIvfFlatIndex(pase::PaseEnv env, uint32_t dim,
                      BridgedIvfFlatOptions options)
      : env_(env), dim_(dim), options_(options) {}

  Status Build(const float* data, size_t n) override;

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params) const override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override { return num_vectors_; }
  uint32_t Dim() const override { return dim_; }
  std::string Describe() const override;

  const float* centroids() const { return centroids_.data(); }
  uint32_t num_clusters() const { return num_clusters_; }

 private:
  struct BucketChain {
    pgstub::BlockId head = pgstub::kInvalidBlock;
    pgstub::BlockId tail = pgstub::kInvalidBlock;
  };

  Status AppendToBucket(uint32_t bucket, int64_t row_id, const float* vec);
  std::vector<uint32_t> SelectBuckets(const float* query,
                                      uint32_t nprobe) const;
  /// Page-path scan used when memory_table is off (PASE behaviour).
  /// `counters` (nullable, owned by the calling worker) picks up the
  /// probe and tuples-visited counts.
  Status ScanBucketPages(uint32_t bucket, const float* query,
                         const std::function<void(float, int64_t)>& emit,
                         Profiler* profiler,
                         obs::SearchCounters* counters) const;

  pase::PaseEnv env_;
  uint32_t dim_;
  BridgedIvfFlatOptions options_;

  uint32_t num_clusters_ = 0;
  size_t num_vectors_ = 0;
  pgstub::RelId data_rel_ = pgstub::kInvalidRel;
  std::vector<BucketChain> chains_;
  AlignedFloats centroids_;

  // Step#1 mirror: contiguous per-bucket vectors + ids, built once.
  std::vector<AlignedFloats> mirror_vecs_;
  std::vector<std::vector<int64_t>> mirror_ids_;
};

}  // namespace vecdb::bridge
