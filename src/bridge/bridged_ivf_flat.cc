#include "bridge/bridged_ivf_flat.h"

#include <cstring>

#include "clustering/kmeans.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb::bridge {

namespace {
struct DataPageSpecial {
  pgstub::BlockId next;
};
}  // namespace

Status BridgedIvfFlatIndex::AppendToBucket(uint32_t bucket, int64_t row_id,
                                           const float* vec) {
  const uint32_t tuple_bytes =
      sizeof(pase::PaseVectorTuple) + dim_ * sizeof(float);
  std::vector<char> tuple(tuple_bytes);
  auto* header = reinterpret_cast<pase::PaseVectorTuple*>(tuple.data());
  header->row_id = row_id;
  header->level = 0;
  std::memcpy(tuple.data() + sizeof(pase::PaseVectorTuple), vec,
              dim_ * sizeof(float));

  BucketChain& chain = chains_[bucket];
  if (chain.tail != pgstub::kInvalidBlock) {
    VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                           env_.bufmgr->Pin(data_rel_, chain.tail));
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    if (page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes)) !=
        pgstub::kInvalidOffset) {
      env_.bufmgr->Unpin(handle, true);
      return Status::OK();
    }
    env_.bufmgr->Unpin(handle, false);
  }
  VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(data_rel_));
  pgstub::PageView page(fresh.second.data, env_.bufmgr->page_size());
  page.Init(sizeof(DataPageSpecial));
  reinterpret_cast<DataPageSpecial*>(page.Special())->next =
      pgstub::kInvalidBlock;
  if (page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes)) ==
      pgstub::kInvalidOffset) {
    env_.bufmgr->Unpin(fresh.second, true);
    return Status::Internal("BridgedIvfFlat: tuple larger than a page");
  }
  env_.bufmgr->Unpin(fresh.second, true);
  if (chain.tail != pgstub::kInvalidBlock) {
    VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle prev,
                           env_.bufmgr->Pin(data_rel_, chain.tail));
    pgstub::PageView prev_page(prev.data, env_.bufmgr->page_size());
    reinterpret_cast<DataPageSpecial*>(prev_page.Special())->next =
        fresh.first;
    env_.bufmgr->Unpin(prev, true);
  } else {
    chain.head = fresh.first;
  }
  chain.tail = fresh.first;
  return Status::OK();
}

Status BridgedIvfFlatIndex::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("BridgedIvfFlat: bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("BridgedIvfFlat: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("BridgedIvfFlat: c > n");
  }
  build_stats_ = {};
  Timer timer;

  // Step#5: better K-means; Step#2: SGEMM inside training.
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = options_.faiss_kmeans ? KMeansStyle::kFaissStyle
                                   : KMeansStyle::kPaseStyle;
  km.use_sgemm = options_.use_sgemm && options_.faiss_kmeans;
  km.seed = options_.seed;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  num_clusters_ = model.num_clusters;
  centroids_.Resize(0);
  centroids_.Append(model.centroids.data(),
                    static_cast<size_t>(num_clusters_) * dim_);
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();

  // Adding phase: Step#2 batches the assignment via SGEMM; pages stay the
  // durable representation either way.
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});
  std::vector<uint32_t> assign(n);
  AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                  options_.use_sgemm, assign.data(), nullptr);
  for (size_t i = 0; i < n; ++i) {
    VECDB_RETURN_NOT_OK(AppendToBucket(assign[i], static_cast<int64_t>(i),
                                       data + i * dim_));
  }
  num_vectors_ = n;

  // Step#1: one-time mirror into contiguous memory. After this, searches
  // never touch the buffer manager.
  if (options_.memory_table) {
    mirror_vecs_ = std::vector<AlignedFloats>(num_clusters_);
    mirror_ids_.assign(num_clusters_, {});
    for (size_t i = 0; i < n; ++i) {
      const uint32_t b = assign[i];
      mirror_vecs_[b].Append(data + i * dim_, dim_);
      mirror_ids_[b].push_back(static_cast<int64_t>(i));
    }
  }
  build_stats_.add_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

std::vector<uint32_t> BridgedIvfFlatIndex::SelectBuckets(
    const float* query, uint32_t nprobe) const {
  KMaxHeap heap(nprobe);
  for (uint32_t c = 0; c < num_clusters_; ++c) {
    heap.Push(L2Sqr(query, centroids_.data() + static_cast<size_t>(c) * dim_,
                    dim_),
              c);
  }
  auto sorted = heap.TakeSorted();
  std::vector<uint32_t> out;
  out.reserve(sorted.size());
  for (const auto& nb : sorted) out.push_back(static_cast<uint32_t>(nb.id));
  return out;
}

Status BridgedIvfFlatIndex::ScanBucketPages(
    uint32_t bucket, const float* query,
    const std::function<void(float, int64_t)>& emit, Profiler* profiler,
    obs::SearchCounters* counters) const {
  if (counters != nullptr) ++counters->buckets_probed;
  pgstub::BlockId block = chains_[bucket].head;
  while (block != pgstub::kInvalidBlock) {
    pgstub::BufferHandle handle;
    {
      ProfScope scope(profiler, "TupleAccess");
      VECDB_ASSIGN_OR_RETURN(handle, env_.bufmgr->Pin(data_rel_, block));
    }
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    const uint16_t count = page.ItemCount();
    if (counters != nullptr) counters->tuples_visited += count;
    for (pgstub::OffsetNumber slot = 1; slot <= count; ++slot) {
      const char* item = page.GetItem(slot);
      const auto* header =
          reinterpret_cast<const pase::PaseVectorTuple*>(item);
      const float* vec = reinterpret_cast<const float*>(
          item + sizeof(pase::PaseVectorTuple));
      emit(L2Sqr(query, vec, dim_), header->row_id);
    }
    block = reinterpret_cast<const DataPageSpecial*>(page.Special())->next;
    env_.bufmgr->Unpin(handle, false);
  }
  return Status::OK();
}

Result<std::vector<Neighbor>> BridgedIvfFlatIndex::Search(
    const float* query, const SearchParams& params) const {
  if (query == nullptr) {
    return Status::InvalidArgument("BridgedIvfFlat: null query");
  }
  VECDB_RETURN_NOT_OK(
      ValidateSearchParams(params, IndexKind::kIvf, "BridgedIvfFlat::Search"));
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("BridgedIvfFlat: index not built");
  }
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kBridgeSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kBridgeQueries);
  const uint32_t nprobe = std::min(params.nprobe, num_clusters_);
  auto probes = SelectBuckets(query, nprobe);

  // Single emit sink whose shape depends on the Step#3 toggle.
  KMaxHeap kheap(params.k);
  NHeap nheap;
  auto emit = [&](float dist, int64_t id) {
    if (options_.k_heap) {
      kheap.Push(dist, id);
    } else {
      nheap.Push(dist, id);
    }
  };

  // Profiler is single-threaded: only an inline scan records into it.
  Profiler* profiler = params.num_threads <= 1 ? ctx.profiler : nullptr;
  auto scan_bucket = [&](uint32_t b,
                         const std::function<void(float, int64_t)>& sink,
                         obs::SearchCounters* counters) -> Status {
    // Cancellation checkpoint per bucket; parallel workers surface the
    // Cancelled status through worker_status.
    VECDB_RETURN_NOT_OK(ctx.CheckStop("BridgedIvfFlat::Search"));
    if (options_.memory_table) {
      // Step#1: pointer-direct scan over the mirror.
      const auto& ids = mirror_ids_[b];
      const float* vecs = mirror_vecs_[b].data();
      if (counters != nullptr) {
        ++counters->buckets_probed;
        counters->tuples_visited += ids.size();
      }
      ProfScope scope(profiler, "fvec_L2sqr");
      for (size_t i = 0; i < ids.size(); ++i) {
        sink(L2Sqr(query, vecs + i * dim_, dim_), ids[i]);
      }
      return Status::OK();
    }
    return ScanBucketPages(b, query, sink, profiler, counters);
  };
  auto flush_counters = [metrics, &ctx](const obs::SearchCounters& sc) {
    ctx.CountTuples(sc.tuples_visited);
    metrics->AddUnchecked(obs::Counter::kBridgeBucketsProbed,
                          sc.buckets_probed);
    metrics->AddUnchecked(obs::Counter::kBridgeTuplesVisited,
                          sc.tuples_visited);
  };

  if (params.num_threads <= 1) {
    obs::SearchCounters counters;
    obs::SearchCounters* sc = metrics != nullptr ? &counters : nullptr;
    if (options_.memory_table && options_.k_heap) {
      // Fully-fixed fast path: no per-candidate function indirection —
      // this is what "specialized-engine code quality" means in practice.
      // Counters here are derived after the scan, so the loop itself stays
      // untouched whether metrics are on or off.
      for (uint32_t b : probes) {
        VECDB_RETURN_NOT_OK(ctx.CheckStop("BridgedIvfFlat::Search"));
        const auto& ids = mirror_ids_[b];
        const float* vecs = mirror_vecs_[b].data();
        for (size_t i = 0; i < ids.size(); ++i) {
          kheap.Push(L2Sqr(query, vecs + i * dim_, dim_), ids[i]);
        }
      }
      if (metrics != nullptr) {
        counters.buckets_probed = probes.size();
        for (uint32_t b : probes) {
          counters.tuples_visited += mirror_ids_[b].size();
        }
        flush_counters(counters);
      }
      return kheap.TakeSorted();
    }
    for (uint32_t b : probes) {
      VECDB_RETURN_NOT_OK(scan_bucket(b, emit, sc));
    }
    if (metrics != nullptr) flush_counters(counters);
    ProfScope scope(ctx.profiler, "MinHeap");
    return options_.k_heap ? kheap.TakeSorted() : nheap.PopK(params.k);
  }

  ThreadPool pool(params.num_threads);
  ParallelAccounting* acct = ctx.accounting;
  if (acct != nullptr &&
      acct->worker_busy_nanos.size() != static_cast<size_t>(params.num_threads)) {
    acct->Reset(params.num_threads);
  }
  Status worker_status = Status::OK();
  Mutex status_mu;

  std::vector<obs::SearchCounters> worker_counters(
      metrics != nullptr ? params.num_threads : 0);

  if (options_.local_heaps) {
    // Step#4: lock-free local heaps + merge.
    std::vector<std::vector<Neighbor>> locals(params.num_threads);
    pool.ParallelFor(probes.size(), [&](int worker, size_t begin, size_t end) {
      CpuTimer timer;
      obs::SearchCounters* sc =
          metrics != nullptr ? &worker_counters[worker] : nullptr;
      KMaxHeap local(params.k);
      auto sink = [&](float dist, int64_t id) { local.Push(dist, id); };
      for (size_t i = begin; i < end; ++i) {
        Status s = scan_bucket(probes[i], sink, sc);
        if (!s.ok()) {
          MutexLock guard(status_mu);
          if (worker_status.ok()) worker_status = s;
        }
      }
      locals[worker] = local.TakeSorted();
      if (acct != nullptr) acct->worker_busy_nanos[worker] += timer.ElapsedNanos();
    });
    if (metrics != nullptr) {
      obs::SearchCounters merged;
      for (const auto& wc : worker_counters) merged.MergeFrom(wc);
      flush_counters(merged);
    }
    VECDB_RETURN_NOT_OK(worker_status);
    CpuTimer merge_timer;
    auto merged = MergeTopK(std::move(locals), params.k);
    if (acct != nullptr) acct->serial_nanos += merge_timer.ElapsedNanos();
    return merged;
  }

  // PASE-style global locked heap (ablation baseline for RC#3).
  Mutex mu;
  int64_t serial_nanos = 0;
  pool.ParallelFor(probes.size(), [&](int worker, size_t begin, size_t end) {
    CpuTimer timer;
    obs::SearchCounters* sc =
        metrics != nullptr ? &worker_counters[worker] : nullptr;
    auto sink = [&](float dist, int64_t id) {
      CpuTimer lock_timer;
      MutexLock guard(mu);
      if (options_.k_heap) {
        kheap.Push(dist, id);
      } else {
        nheap.Push(dist, id);
      }
      serial_nanos += lock_timer.ElapsedNanos();
    };
    for (size_t i = begin; i < end; ++i) {
      Status s = scan_bucket(probes[i], sink, sc);
      if (!s.ok()) {
        MutexLock guard(status_mu);
        if (worker_status.ok()) worker_status = s;
      }
    }
    if (acct != nullptr) acct->worker_busy_nanos[worker] += timer.ElapsedNanos();
  });
  VECDB_RETURN_NOT_OK(worker_status);
  if (acct != nullptr) acct->serial_nanos += serial_nanos;
  if (metrics != nullptr) {
    obs::SearchCounters merged;
    for (const auto& wc : worker_counters) merged.MergeFrom(wc);
    flush_counters(merged);
  }
  return options_.k_heap ? kheap.TakeSorted() : nheap.PopK(params.k);
}

size_t BridgedIvfFlatIndex::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  size_t bytes = blocks * static_cast<size_t>(env_.bufmgr->page_size());
  bytes += centroids_.size() * sizeof(float);
  for (const auto& v : mirror_vecs_) bytes += v.size() * sizeof(float);
  for (const auto& ids : mirror_ids_) bytes += ids.size() * sizeof(int64_t);
  return bytes;
}

std::string BridgedIvfFlatIndex::Describe() const {
  return "bridge::IVF_FLAT dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) + " fixes=" +
         std::string(options_.memory_table ? "M" : "-") +
         (options_.use_sgemm ? "S" : "-") + (options_.k_heap ? "K" : "-") +
         (options_.local_heaps ? "L" : "-") +
         (options_.faiss_kmeans ? "F" : "-");
}

}  // namespace vecdb::bridge
