#include "faisslike/ivf_sq8.h"

namespace vecdb::faisslike {

Status IvfSq8Index::TrainPayload(const float* data, size_t n) {
  VECDB_ASSIGN_OR_RETURN(ScalarQuantizer8 sq,
                         ScalarQuantizer8::Train(data, n, dim_));
  sq_.emplace(std::move(sq));
  return Status::OK();
}

Status IvfSq8Index::SavePayload(BinaryWriter& writer) const {
  VECDB_RETURN_NOT_OK(sq_->Serialize(&writer));
  for (const Sq8CodeStore& bucket : buckets_) {
    VECDB_RETURN_NOT_OK(writer.WriteArray(
        bucket.codes(), bucket.size() * bucket.code_size()));
    VECDB_RETURN_NOT_OK(writer.Fields(bucket.ids()));
  }
  return Status::OK();
}

Status IvfSq8Index::LoadPayload(BinaryReader& reader) {
  VECDB_ASSIGN_OR_RETURN(ScalarQuantizer8 sq,
                         ScalarQuantizer8::Deserialize(&reader));
  if (sq.dim() != dim_) {
    return Status::Corruption("IvfSq8::Load: SQ8 dim mismatch");
  }
  sq_.emplace(std::move(sq));
  ResetBuckets(num_clusters_);
  std::vector<uint8_t> codes;
  std::vector<int64_t> ids;
  for (Sq8CodeStore& bucket : buckets_) {
    VECDB_RETURN_NOT_OK(reader.Fields(codes, ids));
    if (codes.size() != ids.size() * code_size()) {
      return Status::Corruption("IvfSq8::Load: bucket size mismatch");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      bucket.Append(codes.data() + i * code_size(), ids[i]);
    }
  }
  return Status::OK();
}

void IvfSq8Index::Scorer::Score(uint32_t bucket, const uint32_t* pos,
                                size_t n, float* out,
                                obs::SearchCounters& sc) const {
  const Sq8CodeStore& codes = index->buckets_[bucket];
  if (pos == nullptr) {
    // The whole bucket: one batched kernel call over its blocked codes.
    index->sq_->DistanceToCodesBatch(prep, codes.codes(), n, out);
    sc.sq8_blocks += codes.num_blocks();
  } else {
    // A gated subset: gather the selected codes by pointer, no copies.
    thread_local std::vector<const uint8_t*> gathered;
    gathered.resize(n);
    for (size_t j = 0; j < n; ++j) gathered[j] = codes.code_at(pos[j]);
    index->sq_->DistanceToCodesGather(prep, gathered.data(), n, out);
    sc.sq8_blocks +=
        (n + Sq8CodeStore::kBlockCodes - 1) / Sq8CodeStore::kBlockCodes;
  }
  sc.sq8_codes += n;
}

size_t IvfSq8Index::SizeBytes() const {
  size_t bytes = centroids_.size() * sizeof(float);
  bytes += 2 * static_cast<size_t>(dim_) * sizeof(float);  // vmin/vscale
  for (const auto& bucket : buckets_) bytes += bucket.MemoryBytes();
  return bytes;
}

std::string IvfSq8Index::Describe() const {
  return "faisslike::IVF_SQ8 dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_);
}

}  // namespace vecdb::faisslike
