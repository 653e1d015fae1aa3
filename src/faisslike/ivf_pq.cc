#include "faisslike/ivf_pq.h"

#include <algorithm>
#include <cstring>

#include "clustering/kmeans.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/thread_pool.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb::faisslike {

Status IvfPqIndex::Train(const float* data, size_t n) {
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kFaissStyle;
  km.use_sgemm = options_.use_sgemm;
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));

  // PQ trains on its own sample (same sr) of the base data.
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
  pq_opt.style = KMeansStyle::kFaissStyle;
  pq_opt.use_sgemm = options_.use_sgemm;
  pq_opt.seed = options_.seed + 2;
  pq_opt.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(
      ProductQuantizer pq,
      ProductQuantizer::Train(sample.data(), sample_n, dim_, pq_opt));
  pq_.emplace(std::move(pq));

  bucket_codes_.assign(model.num_clusters, {});
  bucket_ids_.assign(model.num_clusters, {});
  refine_vectors_.Resize(0);
  refine_pos_.clear();
  num_vectors_ = 0;
  tombstones_.Clear();
  SetCodebook(model.centroids.data(), model.num_clusters);
  return Status::OK();
}

Status IvfPqIndex::AddBatch(const float* data, size_t n, const int64_t* ids) {
  if (!pq_) return Status::InvalidArgument("IvfPq::AddBatch: not trained");
  if (data == nullptr && n > 0) {
    return Status::InvalidArgument("IvfPq::AddBatch: null data");
  }
  std::vector<uint32_t> assign(n);
  if (options_.use_sgemm) {
    CpuTimer timer;
    AssignToNearest(data, n, codebook_, assign.data(), nullptr, nullptr,
                    options_.profiler);
    build_stats_.accounting.serial_nanos += timer.ElapsedNanos();
  } else {
    CpuTimer timer;
    AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                    /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                    options_.profiler);
    if (!build_stats_.accounting.worker_busy_nanos.empty()) {
      build_stats_.accounting.worker_busy_nanos[0] += timer.ElapsedNanos();
    }
  }

  // Encoding dominates the IVF_PQ adding phase and parallelizes cleanly
  // (this is why Fig 9c/9d scale even with SGEMM enabled). A batch with
  // fewer rows than workers (every one-row Insert) stays on this thread
  // rather than paying for a pool.
  const size_t code_size = pq_->code_size();
  std::vector<uint8_t> codes(n * code_size);
  auto encode_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pq_->Encode(data + i * dim_, codes.data() + i * code_size);
    }
  };
  if (options_.num_threads > 1 &&
      n >= static_cast<size_t>(options_.num_threads)) {
    ThreadPool pool(options_.num_threads);
    auto& acct = build_stats_.accounting;
    if (acct.worker_busy_nanos.size() !=
        static_cast<size_t>(options_.num_threads)) {
      acct.Reset(options_.num_threads);
    }
    pool.ParallelFor(n, [&](int worker, size_t begin, size_t end) {
      CpuTimer timer;
      encode_range(begin, end);
      acct.worker_busy_nanos[worker] += timer.ElapsedNanos();
    });
  } else {
    CpuTimer timer;
    {
      ProfScope scope(options_.profiler, "pq_encode");
      encode_range(0, n);
    }
    if (!build_stats_.accounting.worker_busy_nanos.empty()) {
      build_stats_.accounting.worker_busy_nanos[0] += timer.ElapsedNanos();
    }
  }

  CpuTimer append_timer;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t b = assign[i];
    const uint8_t* code = codes.data() + i * code_size;
    bucket_codes_[b].insert(bucket_codes_[b].end(), code, code + code_size);
    const int64_t id = ids != nullptr
                           ? ids[i]
                           : static_cast<int64_t>(num_vectors_ + i);
    bucket_ids_[b].push_back(id);
    if (options_.refine_factor > 0) {
      refine_pos_[id] = refine_vectors_.size() / dim_;
      refine_vectors_.Append(data + i * dim_, dim_);
    }
  }
  build_stats_.accounting.serial_nanos += append_timer.ElapsedNanos();
  num_vectors_ += n;
  return Status::OK();
}

Status IvfPqIndex::Build(const float* data, size_t n) {
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("IvfPq::Build: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("IvfPq::Build: c > n");
  }
  build_stats_ = {};
  build_stats_.accounting.Reset(options_.num_threads);
  Timer timer;
  VECDB_RETURN_NOT_OK(Train(data, n));
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();
  VECDB_RETURN_NOT_OK(AddBatch(data, n));
  build_stats_.add_seconds = timer.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kFaissBuilds);
  registry.Record(obs::Hist::kFaissBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
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
  const uint8_t* codes = index->bucket_codes_[bucket].data();
  const size_t code_size = index->pq_->code_size();
  for (size_t j = 0; j < n; ++j) {
    out[j] = index->pq_->AdcDistance(
        table.data(), codes + (pos != nullptr ? pos[j] : j) * code_size);
  }
}

std::vector<Neighbor> IvfPqIndex::Refine(const float* query,
                                         std::vector<Neighbor> adc, size_t k,
                                         Profiler* profiler) const {
  if (options_.refine_factor == 0) return adc;
  ProfScope scope(profiler, "refine");
  KMaxHeap exact(k);
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
