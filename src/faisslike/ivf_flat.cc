#include "faisslike/ivf_flat.h"

#include "clustering/kmeans.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb::faisslike {

Status IvfFlatIndex::Train(const float* data, size_t n) {
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kFaissStyle;
  km.use_sgemm = options_.use_sgemm;
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  return SetCentroids(model.centroids.data(), model.num_clusters);
}

Status IvfFlatIndex::SetCentroids(const float* centroids,
                                  uint32_t num_clusters) {
  if (centroids == nullptr || num_clusters == 0) {
    return Status::InvalidArgument("IvfFlat::SetCentroids: empty codebook");
  }
  bucket_vecs_ = std::vector<AlignedFloats>(num_clusters);
  bucket_ids_.assign(num_clusters, {});
  num_vectors_ = 0;
  tombstones_.Clear();
  SetCodebook(centroids, num_clusters);
  return Status::OK();
}

Status IvfFlatIndex::AddBatch(const float* data, size_t n,
                              const int64_t* ids) {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("IvfFlat::AddBatch: index not trained");
  }
  if (data == nullptr && n > 0) {
    return Status::InvalidArgument("IvfFlat::AddBatch: null data");
  }
  std::vector<uint32_t> assign(n);

  if (options_.use_sgemm) {
    // Faiss delegates assignment to one big SGEMM-decomposed batch; model
    // it as a serial (BLAS-internal) section for the scaling accounting.
    CpuTimer timer;
    AssignToNearest(data, n, codebook_, assign.data(), nullptr, nullptr,
                    options_.profiler);
    build_stats_.accounting.serial_nanos += timer.ElapsedNanos();
  } else if (options_.num_threads > 1 &&
             n >= static_cast<size_t>(options_.num_threads)) {
    // Fan out only with a row per worker: a one-row Insert would pay for
    // a whole pool to assign one vector.
    ThreadPool pool(options_.num_threads);
    auto& acct = build_stats_.accounting;
    if (acct.worker_busy_nanos.size() !=
        static_cast<size_t>(options_.num_threads)) {
      acct.Reset(options_.num_threads);
    }
    pool.ParallelFor(n, [&](int worker, size_t begin, size_t end) {
      CpuTimer timer;
      AssignToNearest(data + begin * dim_, end - begin, dim_,
                      centroids_.data(), num_clusters_, /*use_sgemm=*/false,
                      assign.data() + begin, nullptr, nullptr, nullptr);
      acct.worker_busy_nanos[worker] += timer.ElapsedNanos();
    });
  } else {
    CpuTimer timer;
    AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                    /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                    options_.profiler);
    if (!build_stats_.accounting.worker_busy_nanos.empty()) {
      build_stats_.accounting.worker_busy_nanos[0] += timer.ElapsedNanos();
    }
  }

  // Bucket append is a cheap serial pass in both systems.
  CpuTimer append_timer;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t b = assign[i];
    bucket_vecs_[b].Append(data + i * dim_, dim_);
    bucket_ids_[b].push_back(ids != nullptr
                                 ? ids[i]
                                 : static_cast<int64_t>(num_vectors_ + i));
  }
  build_stats_.accounting.serial_nanos += append_timer.ElapsedNanos();
  num_vectors_ += n;
  return Status::OK();
}

Status IvfFlatIndex::Build(const float* data, size_t n) {
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("IvfFlat::Build: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("IvfFlat::Build: c > n");
  }
  build_stats_ = {};
  build_stats_.accounting.Reset(options_.num_threads);
  Timer timer;
  VECDB_RETURN_NOT_OK(Train(data, n));
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();
  VECDB_RETURN_NOT_OK(AddBatch(data, n));
  build_stats_.add_seconds = timer.ElapsedSeconds();
#ifndef NDEBUG
  CheckInvariants();
#endif
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kFaissBuilds);
  registry.Record(obs::Hist::kFaissBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
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

void IvfFlatIndex::CheckInvariants() const {
  if (num_clusters_ == 0) return;  // not trained yet; nothing to audit
  VECDB_CHECK_EQ(bucket_vecs_.size(), num_clusters_);
  VECDB_CHECK_EQ(bucket_ids_.size(), num_clusters_);
  VECDB_CHECK_EQ(centroids_.size(),
                 static_cast<size_t>(num_clusters_) * dim_)
      << "codebook truncated";
  VECDB_CHECK_LE(tombstones_.size(), num_vectors_)
      << "more tombstones than stored rows";
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
