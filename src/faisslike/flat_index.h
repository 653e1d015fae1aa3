// Brute-force flat index (Faiss IndexFlat analog): exact search by scanning
// every vector. Baseline for recall measurements and small workloads.
#pragma once

#include <string>

#include "common/aligned_buffer.h"
#include "core/index.h"
#include "distance/metric.h"

namespace vecdb::faisslike {

/// Exact k-NN by linear scan over an in-memory matrix.
class FlatIndex final : public VectorIndex {
 public:
  /// Creates an empty index over `dim`-dimensional vectors.
  FlatIndex(uint32_t dim, Metric metric = Metric::kL2)
      : dim_(dim), metric_(metric) {}

  Status Build(const float* data, size_t n) override;

  /// Appends one vector with an explicit id.
  Status Add(const float* vec, int64_t id);

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params) const override;

  size_t SizeBytes() const override {
    return vectors_.size() * sizeof(float) + ids_.size() * sizeof(int64_t);
  }
  size_t NumVectors() const override { return ids_.size(); }
  uint32_t Dim() const override { return dim_; }
  std::string Describe() const override;

  uint32_t dim() const { return dim_; }
  Metric metric() const { return metric_; }

 private:
  uint32_t dim_;
  Metric metric_;
  AlignedFloats vectors_;
  std::vector<int64_t> ids_;
};

}  // namespace vecdb::faisslike
