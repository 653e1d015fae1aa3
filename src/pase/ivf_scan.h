// The generalized engine's one IVF skeleton. PASE's IVF_FLAT, IVF_PQ and
// IVF_SQ8 differ only in their payload: how it is trained (nothing, PQ or
// SQ8), what a bucket tuple stores after its row id and how that is scored
// against the query. Everything else lives here once:
//   - Build: PASE-style K-means (RC#5) with no SGEMM anywhere (RC#1),
//     naive per-pair assignment, the encode-and-append loop, the centroid
//     pages, the phase timers and pase.builds;
//   - Insert (a new row's id is the stored row count) and
//     CheckInvariants' audit of the page chains;
//   - page storage: per-bucket chains of data pages, and centroid pages
//     scanned through the buffer manager for bucket selection;
//   - the page-chain walk with one pin per page and line-pointer tuple
//     access (RC#2);
//   - PASE's n-sized result heap, popped k times at the end (RC#6);
//   - intra-query parallelism over ONE locked global heap (RC#3);
//   - pre-filter and in-filter as selection policies over that same scan;
//   - cancellation checkpoints, SearchCounters and the profiler labels;
//   - the index-level latch that lets searches run beside one Insert:
//     shared in every scan, exclusive in Insert (an append rewrites a
//     bucket's tail page and chain links in place).
//
// Every bucket tuple starts with its int64 row id; a derived index
// `D final : public PaseIvfScanIndex<D>` provides
//   static constexpr const char* kName;         // "PaseIvfFlat", ...
//   static constexpr size_t kHeaderBytes;       // tuple bytes before payload
//   Options options_;  // num_clusters, sample_ratio, train_iterations,
//                      // seed, rel_prefix
//   Status TrainPayload(const float* data, size_t n);
//   size_t payload_bytes() const;
//   const void* Payload(const float* vec, uint8_t* scratch) const;
//   Scorer MakeScorer(const float* query, Profiler* profiler) const;
// where Payload returns the row itself or its code written to `scratch`
// (payload_bytes() long), and a Scorer carries a `kLabel` profiler label
// and
//   void Score(const char* const* tuples, size_t n, float* out,
//              obs::SearchCounters& sc) const;
// scores n pinned tuples. IVF_FLAT also shadows TakeTopK (pgvector mode).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/index.h"
#include "distance/kernels.h"
#include "obs/metrics.h"
#include "pase/pase_common.h"
#include "pgstub/page.h"
#include "topk/heaps.h"

namespace vecdb::pase {

template <class Derived>
class PaseIvfScanIndex : public VectorIndex {
 public:
  /// ambuild. Training: PASE-style K-means and the payload's own training.
  /// Adding: naive per-pair assignment (the fvec_L2sqr_ref bottleneck of
  /// Fig 3), then encoding and page-chain appends through the buffer
  /// manager, then the centroid pages.
  Status Build(const float* data, size_t n) override;

  /// aminsert: assigns the new row to its bucket chain.
  Status Insert(const float* vec) override;

  /// Relation-file footprint in bytes (pages * page size), which is how a
  /// PostgreSQL index reports its size.
  size_t SizeBytes() const override {
    size_t blocks = 0;
    if (auto r = env_.smgr->NumBlocks(centroid_rel_); r.ok()) blocks += *r;
    if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
    return blocks * static_cast<size_t>(env_.bufmgr->page_size());
  }

  /// Aborts if index structure is inconsistent: chain count differing from
  /// the cluster count, page-chain tuple population not summing to the
  /// vector count, or a truncated centroid matrix. Test/debug hook.
  void CheckInvariants() const;

  Result<std::vector<Neighbor>> Search(
      const float* query, const SearchParams& params) const override;

  size_t NumVectors() const override { return num_vectors_; }
  uint32_t Dim() const override { return dim_; }
  uint32_t num_clusters() const { return num_clusters_; }
  /// Trained centroids (row-major, c * dim), e.g. for the paper's Fig 15
  /// centroid-transplant experiment.
  const float* centroids() const { return centroids_.data(); }

 protected:
  PaseIvfScanIndex(PaseEnv env, uint32_t dim) : env_(env), dim_(dim) {}

  /// Pre-filter: every bucket's page chain walked with the bitmap gating
  /// each tuple before its distance — an exhaustive filtered scan through
  /// the buffer manager (PASE has no batched kernel path, RC#1).
  Result<std::vector<Neighbor>> PreFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override {
    return FilteredScan(query, selection, params, /*exhaustive=*/true);
  }

  /// In-filter: nprobe bucket selection unchanged, the bitmap pushed into
  /// the page-chain scans so rejected tuples never reach the n-heap.
  Result<std::vector<Neighbor>> InFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override {
    return FilteredScan(query, selection, params, /*exhaustive=*/false);
  }

  struct BucketChain {
    pgstub::BlockId head = pgstub::kInvalidBlock;
    pgstub::BlockId tail = pgstub::kInvalidBlock;
  };

  /// Special space of data pages: forward link of the bucket's chain.
  struct DataPageSpecial {
    pgstub::BlockId next;
  };

  /// Centroid tuple: id + chain head + vector.
  struct CentroidTupleHeader {
    uint32_t cid;
    pgstub::BlockId head;
  };

  static int64_t TupleRowId(const char* tuple) {
    int64_t row_id;
    std::memcpy(&row_id, tuple, sizeof(row_id));
    return row_id;
  }

  /// Appends one tuple (zeroed kHeaderBytes header carrying `row_id`, then
  /// `payload`) to a bucket's page chain, chaining a fresh page when the
  /// tail is full. The append logs only its tuple (an init record for a
  /// fresh page); the chain link it sets on the old tail logs an image.
  Status AppendToBucket(uint32_t bucket, int64_t row_id, const void* payload,
                        size_t payload_bytes);

  /// Writes centroid tuples into the centroid relation pages.
  Status WriteCentroidPages();

  /// Picks the nprobe closest buckets by a scan of the centroid pages.
  Result<std::vector<uint32_t>> SelectBuckets(const float* query,
                                              uint32_t nprobe,
                                              Profiler* profiler) const;

  /// Walks a bucket's page chain with one pin per page (RC#2). Under the
  /// "TupleAccess" label it pins each page and resolves its line pointers
  /// into tuple addresses; `fn(block, tuples)` then runs while the page is
  /// still pinned, and returns false to stop the walk early.
  template <class Fn>
  Status WalkChain(uint32_t bucket, Profiler* profiler, Fn&& fn) const {
    thread_local std::vector<const char*> tuples;
    pgstub::BlockId block = chains_[bucket].head;
    while (block != pgstub::kInvalidBlock) {
      pgstub::BufferHandle handle;
      {
        ProfScope scope(profiler, "TupleAccess");
        VECDB_ASSIGN_OR_RETURN(handle, env_.bufmgr->Pin(data_rel_, block));
        const pgstub::PageView page(handle.data, env_.bufmgr->page_size());
        tuples.clear();
        for (pgstub::OffsetNumber slot = 1; slot <= page.ItemCount();
             ++slot) {
          tuples.push_back(page.GetItem(slot));
        }
      }
      const bool more = fn(block, tuples);
      const pgstub::PageView page(handle.data, env_.bufmgr->page_size());
      block = reinterpret_cast<const DataPageSpecial*>(page.Special())->next;
      env_.bufmgr->Unpin(handle, false);
      if (!more) break;
    }
    return Status::OK();
  }

  /// Result finalization over the n-sized collector; IVF_FLAT's pgvector
  /// mode shadows it.
  std::vector<Neighbor> TakeTopK(NHeap& collector, size_t k) const {
    return collector.PopK(k);
  }

  PaseEnv env_;
  uint32_t dim_;
  uint32_t num_clusters_ = 0;  ///< nonzero once built
  /// Read by NumVectors() beside an Insert, so atomic.
  std::atomic<size_t> num_vectors_{0};
  /// Shared by Search and the filtered scans, exclusive in Insert.
  mutable SharedMutex latch_;
  pgstub::RelId centroid_rel_ = pgstub::kInvalidRel;
  pgstub::RelId data_rel_ = pgstub::kInvalidRel;
  std::vector<BucketChain> chains_;
  AlignedFloats centroids_;  ///< in-memory copy for row assignment

 private:
  const Derived& derived() const { return static_cast<const Derived&>(*this); }
  Derived& derived() { return static_cast<Derived&>(*this); }

  /// Appends one row's tuple to a bucket chain: the row itself, or its
  /// code encoded into `scratch`.
  Status AppendRow(uint32_t bucket, int64_t row_id, const float* vec,
                   uint8_t* scratch) {
    return AppendToBucket(bucket, row_id, derived().Payload(vec, scratch),
                          derived().payload_bytes());
  }

  Status CheckSearchable(const SearchParams& params, IndexKind kind) const {
    VECDB_RETURN_NOT_OK(ValidateSearchParams(params, kind, Derived::kName));
    if (num_clusters_ == 0) {
      return Status::InvalidArgument(std::string(Derived::kName) +
                                     ": index not built");
    }
    return Status::OK();
  }

  static void Flush(const QueryContext& ctx, obs::MetricsRegistry* m,
                    const obs::SearchCounters& sc) {
    ctx.CountTuples(sc.tuples_visited);
    sc.FlushTo(m, obs::Counter::kPaseBucketsProbed,
               obs::Counter::kPaseTuplesVisited,
               obs::Counter::kPaseHeapPushes);
  }

  /// The one bucket scan: per pinned page, narrow the tuples to the
  /// selected ones when gated, score them, then push every one into the
  /// n-sized collector. With `mu` set the collector is the shared
  /// global heap: one lock acquisition per insertion (RC#3), the lock+push
  /// time charged to `serial_nanos`.
  template <class Scorer, class Gate>
  Status ScanBucket(const Scorer& scorer, uint32_t bucket, const Gate& gate,
                    NHeap* collector, Mutex* mu, int64_t* serial_nanos,
                    Profiler* profiler, obs::SearchCounters& sc) const {
    ++sc.buckets_probed;
    thread_local std::vector<const char*> selected;
    thread_local std::vector<float> dists;
    return WalkChain(bucket, profiler, [&](pgstub::BlockId,
                                           const std::vector<const char*>&
                                               tuples) {
      const char* const* scored = tuples.data();
      size_t n = tuples.size();
      if constexpr (Gate::kFiltered) {
        selected.clear();
        for (const char* tuple : tuples) {
          ++sc.bitmap_probes;
          if (gate(TupleRowId(tuple))) selected.push_back(tuple);
        }
        scored = selected.data();
        n = selected.size();
      }
      if (n > 0) {
        dists.resize(n);
        {
          ProfScope scope(profiler, Scorer::kLabel);
          scorer.Score(scored, n, dists.data(), sc);
        }
        ProfScope scope(profiler, "MinHeap");
        if (mu == nullptr) {
          for (size_t j = 0; j < n; ++j) {
            collector->Push(dists[j], TupleRowId(scored[j]));
          }
        } else {
          CpuTimer timer;
          for (size_t j = 0; j < n; ++j) {
            MutexLock guard(*mu);
            collector->Push(dists[j], TupleRowId(scored[j]));
          }
          MutexLock guard(*mu);
          *serial_nanos += timer.ElapsedNanos();
        }
      }
      sc.tuples_visited += n;
      sc.heap_pushes += n;
      return true;
    });
  }

  Result<std::vector<Neighbor>> FilteredScan(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params, bool exhaustive) const;
};

template <class Derived>
Status PaseIvfScanIndex<Derived>::Build(const float* data, size_t n) {
  const auto& options = derived().options_;
  const std::string name = Derived::kName;
  if (!env_.valid()) return Status::InvalidArgument(name + ": bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument(name + ": empty input");
  }
  if (options.num_clusters > n) {
    return Status::InvalidArgument(name + ": c > n");
  }
  build_stats_ = {};
  Timer timer;

  // --- Training phase: PASE-style K-means (RC#5), per-pair distances.
  KMeansOptions km;
  km.num_clusters = options.num_clusters;
  km.max_iterations = options.train_iterations;
  km.sample_ratio = options.sample_ratio;
  km.style = KMeansStyle::kPaseStyle;
  km.use_sgemm = false;  // RC#1: PASE has no SGEMM path
  km.seed = options.seed;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  VECDB_RETURN_NOT_OK(derived().TrainPayload(data, n));
  num_clusters_ = model.num_clusters;
  centroids_.Resize(0);
  centroids_.Append(model.centroids.data(),
                    static_cast<size_t>(num_clusters_) * dim_);
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();

  // --- Adding phase.
  VECDB_ASSIGN_OR_RETURN(centroid_rel_, env_.smgr->CreateRelation(
                                            options.rel_prefix + "_centroid"));
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});
  std::vector<uint32_t> assign(n);
  AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, assign.data(), nullptr);
  std::vector<uint8_t> scratch(derived().payload_bytes());
  for (size_t i = 0; i < n; ++i) {
    VECDB_RETURN_NOT_OK(AppendRow(assign[i], static_cast<int64_t>(i),
                                  data + i * dim_, scratch.data()));
  }
  VECDB_RETURN_NOT_OK(WriteCentroidPages());
  num_vectors_ = n;
  build_stats_.add_seconds = timer.ElapsedSeconds();
#ifndef NDEBUG
  CheckInvariants();
#endif
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kPaseBuilds);
  registry.Record(obs::Hist::kPaseBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

template <class Derived>
Status PaseIvfScanIndex<Derived>::Insert(const float* vec) {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   ": index not built");
  }
  if (vec == nullptr) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   ": null vec");
  }
  uint32_t bucket = 0;
  AssignToNearest(vec, 1, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, &bucket, nullptr);
  std::vector<uint8_t> scratch(derived().payload_bytes());
  WriterMutexLock latch(latch_);
  VECDB_RETURN_NOT_OK(AppendRow(bucket, static_cast<int64_t>(num_vectors_),
                                vec, scratch.data()));
  ++num_vectors_;
  return Status::OK();
}

template <class Derived>
void PaseIvfScanIndex<Derived>::CheckInvariants() const {
  if (num_clusters_ == 0) return;  // not built yet; nothing to audit
  VECDB_CHECK_EQ(chains_.size(), num_clusters_) << "chain count vs clusters";
  VECDB_CHECK_EQ(centroids_.size(),
                 static_cast<size_t>(num_clusters_) * dim_)
      << "centroid matrix truncated";
  // Walk every bucket's page chain; stored tuples must sum to num_vectors_,
  // and a tail block must terminate its chain.
  size_t stored = 0;
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    const BucketChain& chain = chains_[b];
    VECDB_CHECK_EQ(chain.head == pgstub::kInvalidBlock,
                   chain.tail == pgstub::kInvalidBlock)
        << "bucket " << b << " has a head xor a tail";
    pgstub::BlockId last = pgstub::kInvalidBlock;
    const Status walked = WalkChain(
        b, nullptr,
        [&](pgstub::BlockId block, const std::vector<const char*>& tuples) {
          stored += tuples.size();
          last = block;
          return true;
        });
    VECDB_CHECK(walked.ok())
        << "bucket " << b << " chain walk failed: " << walked.ToString();
    if (chain.head != pgstub::kInvalidBlock) {
      VECDB_CHECK_EQ(last, chain.tail)
          << "bucket " << b << " chain does not end at its tail";
    }
  }
  VECDB_CHECK_EQ(stored, num_vectors_) << "chain population vs num_vectors";
}

template <class Derived>
Status PaseIvfScanIndex<Derived>::AppendToBucket(uint32_t bucket,
                                                 int64_t row_id,
                                                 const void* payload,
                                                 size_t payload_bytes) {
  const size_t tuple_bytes = Derived::kHeaderBytes + payload_bytes;
  std::vector<char> tuple(tuple_bytes);
  std::memcpy(tuple.data(), &row_id, sizeof(row_id));
  std::memcpy(tuple.data() + Derived::kHeaderBytes, payload, payload_bytes);

  BucketChain& chain = chains_[bucket];
  if (chain.tail != pgstub::kInvalidBlock) {
    VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                           env_.bufmgr->Pin(data_rel_, chain.tail));
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    const pgstub::OffsetNumber slot =
        page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes));
    env_.bufmgr->Unpin(handle, slot != pgstub::kInvalidOffset);
    if (slot != pgstub::kInvalidOffset) return Status::OK();
  }

  // Chain a fresh page onto the bucket.
  VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(data_rel_));
  pgstub::PageView page(fresh.second.data, env_.bufmgr->page_size());
  page.Init(sizeof(DataPageSpecial));
  reinterpret_cast<DataPageSpecial*>(page.Special())->next =
      pgstub::kInvalidBlock;
  const pgstub::OffsetNumber slot =
      page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes));
  env_.bufmgr->Unpin(fresh.second, true);
  if (slot == pgstub::kInvalidOffset) {
    return Status::Internal(std::string(Derived::kName) +
                            ": tuple larger than a page");
  }

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

template <class Derived>
Status PaseIvfScanIndex<Derived>::WriteCentroidPages() {
  const uint32_t tuple_bytes =
      sizeof(CentroidTupleHeader) + dim_ * sizeof(float);
  std::vector<char> tuple(tuple_bytes);
  pgstub::BufferHandle handle;
  bool have_page = false;
  for (uint32_t c = 0; c < num_clusters_; ++c) {
    auto* header = reinterpret_cast<CentroidTupleHeader*>(tuple.data());
    header->cid = c;
    header->head = chains_[c].head;
    std::memcpy(tuple.data() + sizeof(CentroidTupleHeader),
                centroids_.data() + static_cast<size_t>(c) * dim_,
                dim_ * sizeof(float));
    if (have_page) {
      pgstub::PageView page(handle.data, env_.bufmgr->page_size());
      if (page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes)) !=
          pgstub::kInvalidOffset) {
        continue;
      }
      env_.bufmgr->Unpin(handle, true);
      have_page = false;
    }
    VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(centroid_rel_));
    handle = fresh.second;
    have_page = true;
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    page.Init(0);
    if (page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes)) ==
        pgstub::kInvalidOffset) {
      env_.bufmgr->Unpin(handle, true);
      return Status::Internal(std::string(Derived::kName) +
                              ": centroid tuple exceeds page");
    }
  }
  if (have_page) env_.bufmgr->Unpin(handle, true);
  return Status::OK();
}

template <class Derived>
Result<std::vector<uint32_t>> PaseIvfScanIndex<Derived>::SelectBuckets(
    const float* query, uint32_t nprobe, Profiler* profiler) const {
  ProfScope scope(profiler, "SelectBuckets");
  KMaxHeap heap(nprobe);
  VECDB_ASSIGN_OR_RETURN(pgstub::BlockId blocks,
                         env_.smgr->NumBlocks(centroid_rel_));
  for (pgstub::BlockId b = 0; b < blocks; ++b) {
    VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                           env_.bufmgr->Pin(centroid_rel_, b));
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    const uint16_t count = page.ItemCount();
    for (pgstub::OffsetNumber slot = 1; slot <= count; ++slot) {
      const char* item = page.GetItem(slot);
      const auto* header = reinterpret_cast<const CentroidTupleHeader*>(item);
      const float* vec =
          reinterpret_cast<const float*>(item + sizeof(CentroidTupleHeader));
      heap.Push(L2Sqr(query, vec, dim_), header->cid);
    }
    env_.bufmgr->Unpin(handle, false);
  }
  std::vector<uint32_t> out;
  for (const auto& nb : heap.TakeSorted()) {
    out.push_back(static_cast<uint32_t>(nb.id));
  }
  return out;
}

template <class Derived>
Result<std::vector<Neighbor>> PaseIvfScanIndex<Derived>::Search(
    const float* query, const SearchParams& params) const {
  if (query == nullptr) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   ": null query");
  }
  VECDB_RETURN_NOT_OK(CheckSearchable(params, IndexKind::kIvf));
  ReaderMutexLock latch(latch_);
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kPaseSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kPaseQueries);
  VECDB_ASSIGN_OR_RETURN(
      std::vector<uint32_t> probes,
      SelectBuckets(query, std::min(params.nprobe, num_clusters_),
                    ctx.profiler));
  const auto scorer = derived().MakeScorer(query, ctx.profiler);

  // RC#6: all candidates go into one n-sized heap, popped k times at the
  // end — never a bounded k-heap. Parallel PASE search (RC#3) shares this
  // ONE collector among the workers behind a lock; a single worker runs
  // inline, lock-free, with the profiler attached.
  NHeap collector;
  const int workers = std::max(params.num_threads, 1);
  Mutex mu;
  int64_t serial_nanos = 0;
  std::vector<obs::SearchCounters> counters(workers);
  std::vector<Status> worker_status(workers);
  RunWorkers(workers, probes.size(), ctx.accounting,
             [&](int worker, size_t begin, size_t end) {
               Profiler* profiler = workers == 1 ? ctx.profiler : nullptr;
               // Cancellation checkpoint per bucket, the unit of
               // uninterruptible work. Workers cannot return a Status, so
               // they stop here and the CheckStop below reports it.
               for (size_t i = begin; i < end && worker_status[worker].ok() &&
                                      !ctx.StopRequested();
                    ++i) {
                 worker_status[worker] = ScanBucket(
                     scorer, probes[i], filter::AllSelected{}, &collector,
                     workers == 1 ? nullptr : &mu, &serial_nanos, profiler,
                     counters[worker]);
               }
             });
  for (const Status& s : worker_status) VECDB_RETURN_NOT_OK(s);
  VECDB_RETURN_NOT_OK(ctx.CheckStop(Derived::kName));
  if (metrics != nullptr) {
    for (int w = 1; w < workers; ++w) counters[0].MergeFrom(counters[w]);
    Flush(ctx, metrics, counters[0]);
  }
  ParallelAccounting* acct = ctx.accounting;
  const bool account_pop = acct != nullptr && workers > 1;
  const int64_t pop_start = account_pop ? ThreadCpuNanos() : 0;
  std::vector<Neighbor> results;
  {
    ProfScope scope(ctx.profiler, "MinHeap");
    results = derived().TakeTopK(collector, params.k);
  }
  if (account_pop) {
    // Busy time already includes the serialized push section; move it to
    // the serial term so the model reflects the lock's serialization.
    acct->serial_nanos += serial_nanos + ThreadCpuNanos() - pop_start;
    for (auto& busy : acct->worker_busy_nanos) {
      busy = std::max<int64_t>(0, busy - serial_nanos / workers);
    }
  }
  return results;
}

template <class Derived>
Result<std::vector<Neighbor>> PaseIvfScanIndex<Derived>::FilteredScan(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params, bool exhaustive) const {
  // Pre-filter needs no nprobe: it walks every chain.
  VECDB_RETURN_NOT_OK(CheckSearchable(
      params, exhaustive ? IndexKind::kFlat : IndexKind::kIvf));
  ReaderMutexLock latch(latch_);
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kPaseSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kPaseQueries);
  std::vector<uint32_t> probes;
  if (exhaustive) {
    probes.resize(num_clusters_);
    std::iota(probes.begin(), probes.end(), 0u);
  } else {
    VECDB_ASSIGN_OR_RETURN(
        probes, SelectBuckets(query, std::min(params.nprobe, num_clusters_),
                              ctx.profiler));
  }
  const auto scorer = derived().MakeScorer(query, ctx.profiler);
  NHeap collector;
  obs::SearchCounters counters;
  for (uint32_t b : probes) {
    VECDB_RETURN_NOT_OK(ctx.CheckStop(Derived::kName));
    VECDB_RETURN_NOT_OK(ScanBucket(scorer, b,
                                   filter::SelectionGate{&selection},
                                   &collector, nullptr, nullptr,
                                   ctx.profiler, counters));
  }
  if (metrics != nullptr) {
    if (exhaustive) {
      // The exhaustive pass probes no buckets, and its bitmap tests are
      // the predicate's own evaluation rather than an index-side gate.
      counters.buckets_probed = 0;
      counters.bitmap_probes = 0;
    }
    Flush(ctx, metrics, counters);
  }
  return derived().TakeTopK(collector, params.k);
}

}  // namespace vecdb::pase
