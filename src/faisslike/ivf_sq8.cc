#include "faisslike/ivf_sq8.h"

#include "clustering/kmeans.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace vecdb::faisslike {

Status IvfSq8Index::Train(const float* data, size_t n) {
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kFaissStyle;
  km.use_sgemm = options_.use_sgemm;
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  VECDB_ASSIGN_OR_RETURN(ScalarQuantizer8 sq,
                         ScalarQuantizer8::Train(data, n, dim_));
  sq_.emplace(std::move(sq));
  buckets_ = std::vector<Sq8CodeStore>(model.num_clusters);
  for (auto& bucket : buckets_) bucket.Reset(sq_->code_size());
  num_vectors_ = 0;
  tombstones_.Clear();
  SetCodebook(model.centroids.data(), model.num_clusters);
  return Status::OK();
}

Status IvfSq8Index::AddBatch(const float* data, size_t n,
                             const int64_t* ids) {
  if (!sq_) return Status::InvalidArgument("IvfSq8::AddBatch: not trained");
  if (data == nullptr && n > 0) {
    return Status::InvalidArgument("IvfSq8::AddBatch: null data");
  }
  std::vector<uint32_t> assign(n);
  if (options_.use_sgemm) {
    AssignToNearest(data, n, codebook_, assign.data(), nullptr, nullptr,
                    options_.profiler);
  } else {
    AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                    /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                    options_.profiler);
  }
  std::vector<uint8_t> code(sq_->code_size());
  for (size_t i = 0; i < n; ++i) {
    sq_->Encode(data + i * dim_, code.data());
    buckets_[assign[i]].Append(
        code.data(),
        ids != nullptr ? ids[i] : static_cast<int64_t>(num_vectors_ + i));
  }
  num_vectors_ += n;
  return Status::OK();
}

Status IvfSq8Index::Build(const float* data, size_t n) {
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("IvfSq8::Build: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("IvfSq8::Build: c > n");
  }
  build_stats_ = {};
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
