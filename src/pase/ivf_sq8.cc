#include "pase/ivf_sq8.h"

#include "clustering/kmeans.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace vecdb::pase {

void PaseIvfSq8Index::Scorer::Score(const char* const* tuples, size_t n,
                                    float* out,
                                    obs::SearchCounters& sc) const {
  thread_local std::vector<const uint8_t*> codes;
  codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = reinterpret_cast<const uint8_t*>(tuples[i] + kHeaderBytes);
  }
  sq->DistanceToCodesGather(prep, codes.data(), n, out);
  sc.sq8_blocks +=
      (n + Sq8CodeStore::kBlockCodes - 1) / Sq8CodeStore::kBlockCodes;
  sc.sq8_codes += n;
}

Status PaseIvfSq8Index::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("PaseIvfSq8: bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("PaseIvfSq8: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("PaseIvfSq8: c > n");
  }
  build_stats_ = {};
  Timer timer;

  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kPaseStyle;
  km.use_sgemm = false;
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  VECDB_ASSIGN_OR_RETURN(ScalarQuantizer8 sq,
                         ScalarQuantizer8::Train(data, n, dim_));
  sq_.emplace(std::move(sq));
  num_clusters_ = model.num_clusters;
  centroids_.Resize(0);
  centroids_.Append(model.centroids.data(),
                    static_cast<size_t>(num_clusters_) * dim_);
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();

  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});
  std::vector<uint32_t> assign(n);
  AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                  options_.profiler);
  std::vector<uint8_t> code(sq_->code_size());
  for (size_t i = 0; i < n; ++i) {
    sq_->Encode(data + i * dim_, code.data());
    VECDB_RETURN_NOT_OK(AppendToBucket(assign[i], static_cast<int64_t>(i),
                                       code.data(), code.size()));
  }
  num_vectors_ = n;
  build_stats_.add_seconds = timer.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kPaseBuilds);
  registry.Record(obs::Hist::kPaseBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

Status PaseIvfSq8Index::Insert(const float* vec) {
  if (!sq_) return Status::InvalidArgument("PaseIvfSq8: index not built");
  if (vec == nullptr) return Status::InvalidArgument("PaseIvfSq8: null vec");
  uint32_t bucket = 0;
  AssignToNearest(vec, 1, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, &bucket, nullptr);
  std::vector<uint8_t> code(sq_->code_size());
  sq_->Encode(vec, code.data());
  VECDB_RETURN_NOT_OK(AppendToBucket(
      bucket, static_cast<int64_t>(num_vectors_), code.data(), code.size()));
  ++num_vectors_;
  return Status::OK();
}

size_t PaseIvfSq8Index::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  return blocks * static_cast<size_t>(env_.bufmgr->page_size()) +
         centroids_.size() * sizeof(float);
}

std::string PaseIvfSq8Index::Describe() const {
  return "pase::IVF_SQ8 dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_);
}

}  // namespace vecdb::pase
