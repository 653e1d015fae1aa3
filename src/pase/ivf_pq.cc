#include "pase/ivf_pq.h"

namespace vecdb::pase {

PaseIvfPqIndex::Scorer PaseIvfPqIndex::MakeScorer(const float* query,
                                                  Profiler* profiler) const {
  Scorer scorer{&*pq_, std::vector<float>(pq_->table_size())};
  ProfScope scope(profiler, "PrecomputedTable");
  pq_->ComputeDistanceTableNaive(query, scorer.table.data());
  return scorer;
}

void PaseIvfPqIndex::Scorer::Score(const char* const* tuples, size_t n,
                                   float* out,
                                   obs::SearchCounters& /*sc*/) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = pq->AdcDistance(table.data(), reinterpret_cast<const uint8_t*>(
                                               tuples[i] + kHeaderBytes));
  }
}

Status PaseIvfPqIndex::TrainPayload(const float* data, size_t n) {
  // PASE-style K-means per subspace, no SGEMM anywhere.
  PqOptions pq_opt;
  pq_opt.num_subvectors = options_.pq_m;
  pq_opt.num_codes = options_.pq_codes;
  pq_opt.max_iterations = options_.train_iterations;
  pq_opt.style = KMeansStyle::kPaseStyle;
  pq_opt.use_sgemm = false;
  pq_opt.seed = options_.seed;
  VECDB_ASSIGN_OR_RETURN(ProductQuantizer pq,
                         ProductQuantizer::TrainOnSample(
                             data, n, dim_, options_.sample_ratio, pq_opt));
  pq_.emplace(std::move(pq));
  return Status::OK();
}

size_t PaseIvfPqIndex::SizeBytes() const {
  size_t bytes = PaseIvfScanIndex::SizeBytes();
  if (pq_) {
    // Codebook pages: PASE stores the PQ codebook alongside the index.
    bytes += static_cast<size_t>(pq_->num_subvectors()) * pq_->num_codes() *
             pq_->sub_dim() * sizeof(float);
  }
  return bytes;
}

std::string PaseIvfPqIndex::Describe() const {
  return "pase::IVF_PQ dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) +
         " m=" + std::to_string(options_.pq_m);
}

}  // namespace vecdb::pase
