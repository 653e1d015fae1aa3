#include "pase/ivf_pq.h"

#include <cstring>

#include "clustering/kmeans.h"
#include "common/random.h"
#include "common/timer.h"
#include "obs/metrics.h"

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

Status PaseIvfPqIndex::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("PaseIvfPq: bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("PaseIvfPq: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("PaseIvfPq: c > n");
  }
  build_stats_ = {};
  Timer timer;

  // --- Training: PASE-style coarse K-means and PQ, no SGEMM anywhere.
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kPaseStyle;
  km.use_sgemm = false;
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));

  size_t sample_n = std::max<size_t>(
      options_.pq_codes, static_cast<size_t>(options_.sample_ratio * n));
  sample_n = std::min(sample_n, n);
  Rng rng(options_.seed + 1);
  auto picks = rng.SampleWithoutReplacement(static_cast<uint32_t>(n),
                                            static_cast<uint32_t>(sample_n));
  AlignedFloats sample(sample_n * dim_);
  for (size_t i = 0; i < sample_n; ++i) {
    std::memcpy(sample.data() + i * dim_,
                data + static_cast<size_t>(picks[i]) * dim_,
                dim_ * sizeof(float));
  }
  PqOptions pq_opt;
  pq_opt.num_subvectors = options_.pq_m;
  pq_opt.num_codes = options_.pq_codes;
  pq_opt.max_iterations = options_.train_iterations;
  pq_opt.style = KMeansStyle::kPaseStyle;
  pq_opt.use_sgemm = false;
  pq_opt.seed = options_.seed + 2;
  pq_opt.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(
      ProductQuantizer pq,
      ProductQuantizer::Train(sample.data(), sample_n, dim_, pq_opt));
  pq_.emplace(std::move(pq));
  num_clusters_ = model.num_clusters;
  centroids_.Resize(0);
  centroids_.Append(model.centroids.data(),
                    static_cast<size_t>(num_clusters_) * dim_);
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();

  // --- Adding: naive assignment + encode + page-chain append.
  VECDB_ASSIGN_OR_RETURN(centroid_rel_, env_.smgr->CreateRelation(
                                            options_.rel_prefix + "_centroid"));
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});

  std::vector<uint32_t> assign(n);
  AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                  options_.profiler);
  std::vector<uint8_t> code(pq_->code_size());
  for (size_t i = 0; i < n; ++i) {
    {
      ProfScope scope(options_.profiler, "pq_encode");
      pq_->Encode(data + i * dim_, code.data());
    }
    VECDB_RETURN_NOT_OK(AppendToBucket(assign[i], static_cast<int64_t>(i),
                                       code.data(), code.size()));
  }

  VECDB_RETURN_NOT_OK(WriteCentroidPages());

  num_vectors_ = n;
  build_stats_.add_seconds = timer.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kPaseBuilds);
  registry.Record(obs::Hist::kPaseBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

Status PaseIvfPqIndex::Insert(const float* vec) {
  if (!pq_) return Status::InvalidArgument("PaseIvfPq: index not built");
  if (vec == nullptr) return Status::InvalidArgument("PaseIvfPq: null vec");
  uint32_t bucket = 0;
  AssignToNearest(vec, 1, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, &bucket, nullptr);
  std::vector<uint8_t> code(pq_->code_size());
  pq_->Encode(vec, code.data());
  VECDB_RETURN_NOT_OK(AppendToBucket(
      bucket, static_cast<int64_t>(num_vectors_), code.data(), code.size()));
  ++num_vectors_;
  return Status::OK();
}

size_t PaseIvfPqIndex::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(centroid_rel_); r.ok()) blocks += *r;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  size_t bytes = blocks * static_cast<size_t>(env_.bufmgr->page_size());
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
