#include "faisslike/flat_index.h"

#include "common/timer.h"
#include "distance/kernels.h"
#include "obs/metrics.h"
#include "topk/heaps.h"

namespace vecdb::faisslike {

Status FlatIndex::Build(const float* data, size_t n) {
  if (data == nullptr && n > 0) {
    return Status::InvalidArgument("FlatIndex::Build: null data");
  }
  Timer timer;
  vectors_.Resize(0);
  ids_.clear();
  vectors_.Append(data, n * dim_);
  ids_.reserve(n);
  for (size_t i = 0; i < n; ++i) ids_.push_back(static_cast<int64_t>(i));
  build_stats_ = {};
  build_stats_.add_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status FlatIndex::Add(const float* vec, int64_t id) {
  if (vec == nullptr) return Status::InvalidArgument("FlatIndex::Add: null");
  vectors_.Append(vec, dim_);
  ids_.push_back(id);
  return Status::OK();
}

Result<std::vector<Neighbor>> FlatIndex::Search(
    const float* query, const SearchParams& params) const {
  if (query == nullptr) {
    return Status::InvalidArgument("FlatIndex::Search: null query");
  }
  VECDB_RETURN_NOT_OK(
      ValidateSearchParams(params, IndexKind::kFlat, "FlatIndex::Search"));
  obs::MetricsRegistry* metrics = params.ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kFaissSearchNanos);
  KMaxHeap heap(params.k);
  for (size_t i = 0; i < ids_.size(); ++i) {
    // Cancellation checkpoint every 1024 rows: the exhaustive scan's unit
    // of uninterruptible work.
    if (i % 1024 == 0) {
      VECDB_RETURN_NOT_OK(params.ctx.CheckStop("FlatIndex::Search"));
    }
    const float dist =
        Distance(metric_, query, vectors_.data() + i * dim_, dim_);
    heap.Push(dist, ids_[i]);
  }
  if (metrics != nullptr) {
    params.ctx.CountTuples(ids_.size());
    metrics->AddUnchecked(obs::Counter::kFaissQueries);
    metrics->AddUnchecked(obs::Counter::kFaissTuplesVisited, ids_.size());
    metrics->AddUnchecked(obs::Counter::kFaissHeapPushes, ids_.size());
  }
  return heap.TakeSorted();
}

std::string FlatIndex::Describe() const {
  return "faisslike::FLAT dim=" + std::to_string(dim_) + " metric=" +
         std::string(MetricName(metric_));
}

}  // namespace vecdb::faisslike
