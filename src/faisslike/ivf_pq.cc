#include "faisslike/ivf_pq.h"

#include "distance/kernels.h"

namespace vecdb::faisslike {

Status IvfPqIndex::TrainPayload(const float* data, size_t n) {
  PqOptions pq_opt;
  pq_opt.num_subvectors = options_.pq_m;
  pq_opt.num_codes = options_.pq_codes;
  pq_opt.max_iterations = options_.train_iterations;
  pq_opt.style = KMeansStyle::kFaissStyle;
  pq_opt.use_sgemm = options_.use_sgemm;
  pq_opt.seed = options_.seed;
  VECDB_ASSIGN_OR_RETURN(ProductQuantizer pq,
                         ProductQuantizer::TrainOnSample(
                             data, n, dim_, options_.sample_ratio, pq_opt));
  pq_.emplace(std::move(pq));
  return Status::OK();
}

void IvfPqIndex::ResetBuckets(uint32_t num_clusters) {
  bucket_codes_.assign(num_clusters, {});
  bucket_ids_.assign(num_clusters, {});
  refine_vectors_.Resize(0);
  refine_pos_.clear();
}

void IvfPqIndex::Append(uint32_t b, int64_t id, const float* vec,
                        const uint8_t* code) {
  bucket_codes_[b].insert(bucket_codes_[b].end(), code,
                          code + pq_->code_size());
  bucket_ids_[b].push_back(id);
  if (options_.refine_factor > 0) {
    WriterMutexLock latch(*refine_latch_);
    refine_pos_[id] = refine_vectors_.size() / dim_;
    refine_vectors_.Append(vec, dim_);
  }
}

Status IvfPqIndex::SavePayload(BinaryWriter& writer) const {
  VECDB_RETURN_NOT_OK(pq_->Serialize(&writer));
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(writer.Fields(bucket_codes_[b], bucket_ids_[b]));
  }
  if (options_.refine_factor == 0) return Status::OK();
  std::vector<int64_t> row_ids(refine_vectors_.size() / dim_);
  for (const auto& [id, row] : refine_pos_) row_ids[row] = id;
  return writer.Fields(refine_vectors_, row_ids);
}

Status IvfPqIndex::LoadPayload(BinaryReader& reader) {
  VECDB_ASSIGN_OR_RETURN(ProductQuantizer pq,
                         ProductQuantizer::Deserialize(&reader));
  if (pq.dim() != dim_) {
    return Status::Corruption("IvfPq::Load: PQ dim mismatch");
  }
  options_.pq_m = pq.num_subvectors();
  options_.pq_codes = pq.num_codes();
  pq_.emplace(std::move(pq));
  ResetBuckets(num_clusters_);
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(reader.Fields(bucket_codes_[b], bucket_ids_[b]));
    if (bucket_codes_[b].size() != bucket_ids_[b].size() * code_size()) {
      return Status::Corruption("IvfPq::Load: bucket size mismatch");
    }
  }
  // A v1 file's options default to no refinement, so it has no sidecar.
  if (options_.refine_factor == 0) return Status::OK();
  std::vector<int64_t> row_ids;
  VECDB_RETURN_NOT_OK(reader.Fields(refine_vectors_, row_ids));
  if (refine_vectors_.size() != row_ids.size() * dim_) {
    return Status::Corruption("IvfPq::Load: refine sidecar mismatch");
  }
  refine_pos_.reserve(row_ids.size());
  for (size_t row = 0; row < row_ids.size(); ++row) {
    refine_pos_[row_ids[row]] = row;
  }
  return Status::OK();
}

IvfPqIndex::Scorer IvfPqIndex::MakeScorer(const float* query,
                                          Profiler* profiler) const {
  Scorer scorer{this, std::vector<float>(pq_->table_size())};
  ProfScope scope(profiler, "PrecomputedTable");
  if (options_.optimized_table) {
    pq_->ComputeDistanceTableOptimized(query, scorer.table.data());
  } else {
    pq_->ComputeDistanceTableNaive(query, scorer.table.data());
  }
  return scorer;
}

void IvfPqIndex::Scorer::Score(uint32_t bucket, const uint32_t* pos,
                               size_t n, float* out,
                               obs::SearchCounters& /*sc*/) const {
  index->pq_->AdcScan(table.data(), index->bucket_codes_[bucket].data(), pos,
                      n, out);
}

std::vector<Neighbor> IvfPqIndex::Refine(const float* query,
                                         std::vector<Neighbor> adc, size_t k,
                                         Profiler* profiler) const {
  if (options_.refine_factor == 0) return adc;
  ProfScope scope(profiler, "refine");
  KMaxHeap exact(k);
  ReaderMutexLock latch(*refine_latch_);
  for (const auto& nb : adc) {
    auto it = refine_pos_.find(nb.id);
    if (it == refine_pos_.end()) continue;
    exact.Push(L2Sqr(query, refine_vectors_.data() + it->second * dim_, dim_),
               nb.id);
  }
  return exact.TakeSorted();
}

size_t IvfPqIndex::SizeBytes() const {
  size_t bytes = centroids_.size() * sizeof(float);
  if (pq_) {
    bytes += static_cast<size_t>(pq_->num_subvectors()) * pq_->num_codes() *
             pq_->sub_dim() * sizeof(float);
  }
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    bytes += bucket_codes_[b].size();
    bytes += bucket_ids_[b].size() * sizeof(int64_t);
  }
  bytes += refine_vectors_.size() * sizeof(float);
  bytes += refine_pos_.size() * (sizeof(int64_t) + sizeof(size_t));
  return bytes;
}

std::string IvfPqIndex::Describe() const {
  return "faisslike::IVF_PQ dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) +
         " m=" + std::to_string(options_.pq_m) +
         (options_.use_sgemm ? " sgemm=on" : " sgemm=off");
}

}  // namespace vecdb::faisslike
