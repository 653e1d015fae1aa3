#include "faisslike/ivf_flat.h"

#include "common/check.h"
#include "distance/kernels.h"

namespace vecdb::faisslike {

Status IvfFlatIndex::SetCentroids(const float* centroids,
                                  uint32_t num_clusters) {
  if (centroids == nullptr || num_clusters == 0) {
    return Status::InvalidArgument("IvfFlat::SetCentroids: empty codebook");
  }
  SetCodebook(centroids, num_clusters);
  return Status::OK();
}

void IvfFlatIndex::Scorer::Score(uint32_t bucket, const uint32_t* pos,
                                  size_t n, float* out,
                                  obs::SearchCounters& /*sc*/) const {
  const float* vecs = index->bucket_vecs_[bucket].data();
  const size_t dim = index->dim_;
  for (size_t j = 0; j < n; ++j) {
    out[j] = L2Sqr(query, vecs + (pos != nullptr ? pos[j] : j) * dim, dim);
  }
}

Status IvfFlatIndex::SavePayload(BinaryWriter& writer) const {
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(writer.Fields(bucket_vecs_[b], bucket_ids_[b]));
  }
  return Status::OK();
}

Status IvfFlatIndex::LoadPayload(BinaryReader& reader) {
  ResetBuckets(num_clusters_);
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(reader.Fields(bucket_vecs_[b], bucket_ids_[b]));
    if (bucket_vecs_[b].size() != bucket_ids_[b].size() * dim_) {
      return Status::Corruption("IvfFlat::Load: bucket size mismatch");
    }
  }
  return Status::OK();
}

void IvfFlatIndex::CheckInvariants() const {
  if (num_clusters_ == 0) return;  // not trained yet; nothing to audit
  VECDB_CHECK_EQ(bucket_vecs_.size(), num_clusters_);
  VECDB_CHECK_EQ(bucket_ids_.size(), num_clusters_);
  VECDB_CHECK_EQ(centroids_.size(),
                 static_cast<size_t>(num_clusters_) * dim_)
      << "codebook truncated";
  size_t stored = 0;
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_CHECK_EQ(bucket_vecs_[b].size(), bucket_ids_[b].size() * dim_)
        << "bucket " << b << " vectors vs ids";
    stored += bucket_ids_[b].size();
  }
  // RC#6 framing in the paper: ntotal is exactly the bucket populations.
  VECDB_CHECK_EQ(stored, num_vectors_) << "bucket sizes vs ntotal";
}

size_t IvfFlatIndex::SizeBytes() const {
  size_t bytes = centroids_.size() * sizeof(float);
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    bytes += bucket_vecs_[b].size() * sizeof(float);
    bytes += bucket_ids_[b].size() * sizeof(int64_t);
  }
  return bytes;
}

std::string IvfFlatIndex::Describe() const {
  return "faisslike::IVF_FLAT dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) +
         (options_.use_sgemm ? " sgemm=on" : " sgemm=off");
}

}  // namespace vecdb::faisslike
