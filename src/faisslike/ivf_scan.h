// The specialized engine's one IVF skeleton. IVF_FLAT, IVF_PQ and IVF_SQ8
// differ only in their payload: how it is trained (nothing, PQ or SQ8), how
// a row is encoded, what a bucket stores and how a stored entry is scored
// against the query. Everything else lives here once:
//   - Build's input checks, phase timers (train_seconds / add_seconds),
//     worker accounting and faiss.builds;
//   - coarse Faiss-style K-means, and the adding phase: one SGEMM
//     assignment pass against the packed codebook (RC#1) or per-row
//     assignment over the build workers, encoding over the same workers,
//     then a serial bucket append;
//   - coarse bucket selection over the in-memory codebook, and one
//     SGEMM-decomposed selection per SearchBatch (RC#1);
//   - the per-bucket scan over contiguous bucket arrays: a branch-free
//     compaction of the selected positions when gated, every distance in
//     one scorer call, then one pass over the bounded KMaxHeap that
//     admits only candidates under its bound (RC#6);
//   - intra-query parallelism over lock-free local heaps merged by
//     MergeTopK (RC#3);
//   - pre-filter and in-filter as selection policies over that same scan;
//   - cancellation checkpoints, SearchCounters and the profiler labels;
//   - the snapshot file: header, geometry, coarse codebook, and Load's
//     consistency checks;
//   - the bucket latches that let searches run beside one Insert: a scan
//     holds bucket b's latch shared while it scores b, an append holds it
//     exclusive (PostgreSQL's buffer content lock, one bucket at a time).
//
// A derived index `D final : public IvfScanIndex<D>` provides
//   static constexpr const char* kName;           // "IvfFlat", ...
//   static constexpr uint32_t kMagic;             // its snapshot magic
//   Options options_;  // num_clusters, sample_ratio, train_iterations,
//                      // use_sgemm, seed[, num_threads]
//   Status TrainPayload(const float* data, size_t n);
//   void ResetBuckets(uint32_t num_clusters);     // empty buckets
//   size_t code_size() const;                     // 0: stores the row
//   void Encode(const float* vec, uint8_t* code) const;
//   void Append(uint32_t b, int64_t id, const float* vec,
//               const uint8_t* code);
//   const std::vector<int64_t>& bucket_ids(uint32_t b) const;
//   Scorer MakeScorer(const float* query, Profiler* profiler) const;
// where a Scorer carries a `kLabel` profiler label and
//   void Score(uint32_t b, const uint32_t* pos, size_t n, float* out,
//              obs::SearchCounters& sc) const;
// scores positions pos[0..n) of bucket b, or its first n entries when
// `pos` is null. IVF_PQ also shadows FetchK and Refine (exact re-ranking).
// For snapshots it provides
//   template <class Io, class Opts>                // BinaryWriter + const
//   static Status OptionFields(Io&, Opts&, uint32_t version);  // or Reader
//   Status SavePayload(BinaryWriter& writer) const;
//   Status LoadPayload(BinaryReader& reader);     // codebook already set
// where OptionFields lists the options block once for both directions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "common/aligned_buffer.h"
#include "common/movable_atomic.h"
#include "common/serialize.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/parallel.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"
#include "obs/metrics.h"
#include "topk/heaps.h"

namespace vecdb::faisslike {

// Snapshot format versions. v1 carried only the options needed to search
// (IVF_FLAT's use_sgemm, IVF_PQ's optimized_table); v2 appends the full
// build-options block, so a loaded index re-trains and re-inserts exactly
// like the original, and adds IVF_PQ's refinement sidecar that v1 dropped.
// Load accepts both.
inline constexpr uint32_t kIvfMinSnapshotVersion = 1;
inline constexpr uint32_t kIvfSnapshotVersion = 2;
// Options blocks store `int` fields as 4 bytes.
static_assert(sizeof(int) == 4);

template <class Derived>
class IvfScanIndex : public VectorIndex {
 public:
  /// Training phase: the coarse codebook by Faiss-style K-means on a
  /// sample of `data`, then the payload's own training. Empties every
  /// bucket.
  Status Train(const float* data, size_t n);

  /// Adding phase: assigns, encodes and buckets `n` rows. Ids are
  /// `ids[i]`, or the running count when `ids` is null.
  Status AddBatch(const float* data, size_t n, const int64_t* ids = nullptr);

  /// Train + AddBatch with phase timing recorded in build_stats().
  Status Build(const float* data, size_t n) override;

  /// Incremental insert (PASE's aminsert counterpart).
  Status Insert(const float* vec) override { return AddBatch(vec, 1); }

  Result<std::vector<Neighbor>> Search(
      const float* query, const SearchParams& params) const override;

  /// Batched multi-query search: bucket selection for all `nq` queries via
  /// ONE SGEMM-decomposed distance batch against the packed codebook
  /// (RC#1), then inter-query parallelism with one reused KMaxHeap per
  /// worker (RC#3). Per-query results are bit-identical to single-query
  /// Search.
  Result<std::vector<std::vector<Neighbor>>> SearchBatch(
      const float* queries, size_t nq,
      const SearchParams& params) const override;

  /// Writes the header, geometry, options block, coarse codebook and
  /// payload. Refuses an unbuilt index.
  Status Save(const std::string& path) const override;

  Status Load(const std::string& path) override;

  size_t NumVectors() const override { return num_vectors_; }
  uint32_t Dim() const override { return dim_; }
  uint32_t num_clusters() const { return num_clusters_; }
  /// Row-major codebook (num_clusters * dim), valid after Train.
  const float* centroids() const { return centroids_.data(); }

 protected:
  explicit IvfScanIndex(uint32_t dim) : dim_(dim) {}

  /// Pre-filter: every bucket scanned with the bitmap gating each entry
  /// before its distance — the engine scans the predicate's survivors, not
  /// the nprobe nearest buckets.
  Result<std::vector<Neighbor>> PreFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override {
    return FilteredScan(query, selection, params, /*exhaustive=*/true);
  }

  /// In-filter: the normal nprobe bucket selection, with the bitmap gating
  /// each entry so rejected entries never reach the distance kernel.
  Result<std::vector<Neighbor>> InFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override {
    return FilteredScan(query, selection, params, /*exhaustive=*/false);
  }

  /// Installs a trained codebook and empties every bucket; a nonzero
  /// num_clusters_ is what marks the index searchable, so Train calls this
  /// last.
  void SetCodebook(const float* centroids, uint32_t num_clusters) {
    derived().ResetBuckets(num_clusters);
    latches_ = std::make_unique<SharedMutex[]>(num_clusters);
    num_vectors_ = 0;
    num_clusters_ = num_clusters;
    centroids_.Resize(0);
    centroids_.Append(centroids, static_cast<size_t>(num_clusters) * dim_);
    PackCodebook();
  }

  /// Rebuilds the packed codebook from centroids_: its squared norms (the
  /// "store those items in a table" half of the SGEMM decomposition) and
  /// its Bᵀ panels, amortized across every insert and SearchBatch.
  void PackCodebook() {
    codebook_ = PackedCodebook(centroids_.data(), num_clusters_, dim_);
  }

  /// Identity hooks; IVF_PQ shadows both for exact re-ranking.
  size_t FetchK(size_t k) const { return k; }
  std::vector<Neighbor> Refine(const float* /*query*/,
                               std::vector<Neighbor> top, size_t /*k*/,
                               Profiler* /*profiler*/) const {
    return top;
  }

  uint32_t dim_;
  uint32_t num_clusters_ = 0;
  AlignedFloats centroids_;
  PackedCodebook codebook_;  ///< centroids_ packed for SGEMM; not saved
  /// Read by NumVectors() beside an Insert, so atomic; bumped after the
  /// rows it counts are in their buckets.
  MovableAtomic<size_t> num_vectors_;
  /// One latch per bucket, sized with the codebook: shared while a scan
  /// reads the bucket, exclusive while AddBatch appends to it.
  std::unique_ptr<SharedMutex[]> latches_;

 private:
  const Derived& derived() const { return static_cast<const Derived&>(*this); }
  Derived& derived() { return static_cast<Derived&>(*this); }

  /// Build workers; IVF_SQ8's options have no num_threads, so it builds
  /// on one.
  int BuildThreads() const {
    if constexpr (requires { derived().options_.num_threads; }) {
      return std::max(derived().options_.num_threads, 1);
    }
    return 1;
  }

  Status CheckSearchable(const SearchParams& params, IndexKind kind) const {
    VECDB_RETURN_NOT_OK(ValidateSearchParams(params, kind, Derived::kName));
    if (num_clusters_ == 0) {
      return Status::InvalidArgument(std::string(Derived::kName) +
                                     ": index not built");
    }
    return Status::OK();
  }

  /// Selects the nprobe closest buckets to the query.
  std::vector<uint32_t> SelectBuckets(const float* query,
                                      uint32_t nprobe) const {
    KMaxHeap heap(nprobe);
    for (uint32_t c = 0; c < num_clusters_; ++c) {
      heap.Push(
          L2Sqr(query, centroids_.data() + static_cast<size_t>(c) * dim_,
                dim_),
          c);
    }
    std::vector<uint32_t> out;
    for (const auto& nb : heap.TakeSorted()) {
      out.push_back(static_cast<uint32_t>(nb.id));
    }
    return out;
  }

  static void Flush(const QueryContext& ctx, obs::MetricsRegistry* m,
                    const obs::SearchCounters& sc) {
    ctx.CountTuples(sc.tuples_visited);
    sc.FlushTo(m, obs::Counter::kFaissBucketsProbed,
               obs::Counter::kFaissTuplesVisited,
               obs::Counter::kFaissHeapPushes);
  }

  /// The one bucket scan. Faiss computes every distance first, then makes
  /// one heap pass: tight loops, matching the Table V profile where the
  /// distance kernel dominates. A gated scan first compacts the bucket to
  /// its selected positions without a branch (every entry writes its
  /// position, a selected one advances the count), so a rejected entry
  /// costs one bit test and is never scored. The scorer takes the whole
  /// bucket in one call (IVF_PQ scores four codes per step), and the heap
  /// pass offers every candidate but admits only those under the bound
  /// (KMaxHeap::PushAll). The bucket's latch is held shared throughout.
  template <class Scorer, class Gate>
  void ScanBucket(const Scorer& scorer, uint32_t bucket, const Gate& gate,
                  KMaxHeap& heap, Profiler* profiler,
                  obs::SearchCounters& sc) const {
    ReaderMutexLock latch(latches_[bucket]);
    ++sc.buckets_probed;
    const std::vector<int64_t>& ids = derived().bucket_ids(bucket);
    thread_local std::vector<uint32_t> pos;
    thread_local std::vector<float> dists;
    size_t n = ids.size();
    if constexpr (Gate::kFiltered) {
      pos.resize(n);
      size_t selected = 0;
      for (size_t i = 0; i < n; ++i) {
        pos[selected] = static_cast<uint32_t>(i);
        selected += gate(ids[i]) ? 1 : 0;
      }
      sc.bitmap_probes += n;
      n = selected;
    }
    sc.tuples_visited += n;
    if (n > 0) {
      dists.resize(n);
      {
        ProfScope scope(profiler, Scorer::kLabel);
        scorer.Score(bucket, Gate::kFiltered ? pos.data() : nullptr, n,
                     dists.data(), sc);
      }
      ProfScope scope(profiler, "MinHeap");
      heap.PushAll(dists.data(), n, [&](size_t j) {
        return ids[Gate::kFiltered ? pos[j] : j];
      });
    }
    sc.heap_pushes += n;
  }

  Result<std::vector<Neighbor>> FilteredScan(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params, bool exhaustive) const;
};

template <class Derived>
Status IvfScanIndex<Derived>::Train(const float* data, size_t n) {
  const auto& options = derived().options_;
  KMeansOptions km;
  km.num_clusters = options.num_clusters;
  km.max_iterations = options.train_iterations;
  km.sample_ratio = options.sample_ratio;
  km.style = KMeansStyle::kFaissStyle;
  km.use_sgemm = options.use_sgemm;
  km.seed = options.seed;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  VECDB_RETURN_NOT_OK(derived().TrainPayload(data, n));
  SetCodebook(model.centroids.data(), model.num_clusters);
  return Status::OK();
}

template <class Derived>
Status IvfScanIndex<Derived>::AddBatch(const float* data, size_t n,
                                       const int64_t* ids) {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::AddBatch: index not trained");
  }
  if (data == nullptr && n > 0) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::AddBatch: null data");
  }
  const auto& options = derived().options_;
  // Fan out only with a row per worker: a one-row Insert would pay for a
  // whole pool. Worker time is charged only to the slots Build sized.
  const int threads = BuildThreads();
  const int workers = n >= static_cast<size_t>(threads) ? threads : 1;
  ParallelAccounting& acct = build_stats_.accounting;
  ParallelAccounting* worker_acct =
      acct.worker_busy_nanos.size() == static_cast<size_t>(workers) ? &acct
                                                                    : nullptr;

  std::vector<uint32_t> assign(n);
  if (options.use_sgemm) {
    // Faiss delegates assignment to one big SGEMM-decomposed batch; model
    // it as a serial (BLAS-internal) section for the scaling accounting.
    CpuTimer timer;
    AssignToNearest(data, n, codebook_, assign.data(), nullptr);
    acct.serial_nanos += timer.ElapsedNanos();
  } else {
    RunWorkers(workers, n, worker_acct, [&](int, size_t begin, size_t end) {
      AssignToNearest(data + begin * dim_, end - begin, dim_,
                      centroids_.data(), num_clusters_, /*use_sgemm=*/false,
                      assign.data() + begin, nullptr);
    });
  }

  // Encoding dominates the quantized adding phases and parallelizes
  // cleanly (this is why Fig 9c/9d scale even with SGEMM enabled).
  const size_t code_size = derived().code_size();
  std::vector<uint8_t> codes(n * code_size);
  if (code_size > 0) {
    RunWorkers(workers, n, worker_acct, [&](int, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        derived().Encode(data + i * dim_, codes.data() + i * code_size);
      }
    });
  }

  // Bucket append is a cheap serial pass, each row under its bucket's
  // latch so a concurrent scan never sees a bucket mid-growth.
  CpuTimer append_timer;
  for (size_t i = 0; i < n; ++i) {
    WriterMutexLock latch(latches_[assign[i]]);
    derived().Append(assign[i],
                     ids != nullptr ? ids[i]
                                    : static_cast<int64_t>(num_vectors_ + i),
                     data + i * dim_, codes.data() + i * code_size);
  }
  acct.serial_nanos += append_timer.ElapsedNanos();
  num_vectors_ += n;
  return Status::OK();
}

template <class Derived>
Status IvfScanIndex<Derived>::Build(const float* data, size_t n) {
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::Build: empty input");
  }
  if (derived().options_.num_clusters > n) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::Build: c > n");
  }
  build_stats_ = {};
  build_stats_.accounting.Reset(BuildThreads());
  Timer timer;
  VECDB_RETURN_NOT_OK(Train(data, n));
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();
  VECDB_RETURN_NOT_OK(AddBatch(data, n));
  build_stats_.add_seconds = timer.ElapsedSeconds();
#ifndef NDEBUG
  if constexpr (requires { derived().CheckInvariants(); }) {
    derived().CheckInvariants();
  }
#endif
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kFaissBuilds);
  registry.Record(obs::Hist::kFaissBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

template <class Derived>
Status IvfScanIndex<Derived>::Save(const std::string& path) const {
  const std::string who = std::string(Derived::kName) + "::Save: ";
  if (num_clusters_ == 0) {
    return Status::InvalidArgument(who + "index not built");
  }
  VECDB_ASSIGN_OR_RETURN(
      BinaryWriter writer,
      BinaryWriter::Open(path, Derived::kMagic, kIvfSnapshotVersion));
  VECDB_RETURN_NOT_OK(writer.Fields(dim_, num_clusters_,
                                    static_cast<uint64_t>(num_vectors_)));
  VECDB_RETURN_NOT_OK(Derived::OptionFields(writer, derived().options_,
                                            kIvfSnapshotVersion));
  VECDB_RETURN_NOT_OK(writer.Fields(centroids_));
  VECDB_RETURN_NOT_OK(derived().SavePayload(writer));
  return writer.Close();
}

template <class Derived>
Status IvfScanIndex<Derived>::Load(const std::string& path) {
  const std::string who = std::string(Derived::kName) + "::Load: ";
  uint32_t version = 0;
  VECDB_ASSIGN_OR_RETURN(
      BinaryReader reader,
      BinaryReader::Open(path, Derived::kMagic, kIvfMinSnapshotVersion,
                         kIvfSnapshotVersion, &version));
  uint32_t dim = 0, clusters = 0;
  uint64_t num_vectors = 0;
  VECDB_RETURN_NOT_OK(reader.Fields(dim, clusters, num_vectors));
  // Options a v1 file lacks keep their defaults, and its cluster count is
  // the geometry's.
  decltype(Derived::options_) options;
  options.num_clusters = clusters;
  VECDB_RETURN_NOT_OK(Derived::OptionFields(reader, options, version));
  if (dim != dim_) {
    return Status::Corruption(who + "file dim " + std::to_string(dim) +
                              " != index dim " + std::to_string(dim_));
  }
  if (clusters == 0) return Status::Corruption(who + "bad geometry");
  Derived loaded(dim, options);
  loaded.num_clusters_ = clusters;
  loaded.latches_ = std::make_unique<SharedMutex[]>(clusters);
  loaded.num_vectors_ = num_vectors;
  VECDB_RETURN_NOT_OK(reader.Fields(loaded.centroids_));
  if (loaded.centroids_.size() != static_cast<size_t>(clusters) * dim) {
    return Status::Corruption(who + "centroid size mismatch");
  }
  VECDB_RETURN_NOT_OK(loaded.LoadPayload(reader));
  size_t total = 0;
  for (uint32_t b = 0; b < clusters; ++b) {
    total += loaded.bucket_ids(b).size();
  }
  if (total != num_vectors) {
    return Status::Corruption(who + "vector count mismatch");
  }
  loaded.PackCodebook();
  derived() = std::move(loaded);
  return Status::OK();
}

template <class Derived>
Result<std::vector<Neighbor>> IvfScanIndex<Derived>::Search(
    const float* query, const SearchParams& params) const {
  if (query == nullptr) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::Search: null query");
  }
  VECDB_RETURN_NOT_OK(CheckSearchable(params, IndexKind::kIvf));
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kFaissSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kFaissQueries);
  std::vector<uint32_t> probes;
  {
    ProfScope scope(ctx.profiler, "SelectBuckets");
    probes = SelectBuckets(query, std::min(params.nprobe, num_clusters_));
  }
  const auto scorer = derived().MakeScorer(query, ctx.profiler);
  const size_t fetch_k = derived().FetchK(params.k);

  // Intra-query parallelism, the Faiss way (RC#3): per-worker local heaps
  // over a static partition of the probed buckets, then a lock-free merge.
  // A single worker runs inline with the profiler attached.
  const int workers = std::max(params.num_threads, 1);
  std::vector<std::vector<Neighbor>> locals(workers);
  std::vector<obs::SearchCounters> counters(workers);
  RunWorkers(workers, probes.size(), ctx.accounting,
             [&](int worker, size_t begin, size_t end) {
               Profiler* profiler = workers == 1 ? ctx.profiler : nullptr;
               KMaxHeap heap(fetch_k);
               // Cancellation checkpoint per bucket, the unit of
               // uninterruptible work. Workers cannot return a Status, so
               // they stop here and the CheckStop below reports it.
               for (size_t i = begin; i < end && !ctx.StopRequested(); ++i) {
                 ScanBucket(scorer, probes[i], filter::AllSelected{}, heap,
                            profiler, counters[worker]);
               }
               ProfScope scope(profiler, "MinHeap");
               locals[worker] = heap.TakeSorted();
             });
  VECDB_RETURN_NOT_OK(ctx.CheckStop(Derived::kName));
  std::vector<Neighbor> top;
  if (workers == 1) {
    top = std::move(locals[0]);
  } else {
    CpuTimer merge_timer;
    top = MergeTopK(std::move(locals), fetch_k);
    if (ctx.accounting != nullptr) {
      ctx.accounting->serial_nanos += merge_timer.ElapsedNanos();
    }
  }
  if (metrics != nullptr) {
    for (int w = 1; w < workers; ++w) counters[0].MergeFrom(counters[w]);
    Flush(ctx, metrics, counters[0]);
  }
  return derived().Refine(query, std::move(top), params.k, ctx.profiler);
}

template <class Derived>
Result<std::vector<std::vector<Neighbor>>> IvfScanIndex<Derived>::SearchBatch(
    const float* queries, size_t nq, const SearchParams& params) const {
  if (queries == nullptr && nq > 0) {
    return Status::InvalidArgument(std::string(Derived::kName) +
                                   "::SearchBatch: null queries");
  }
  VECDB_RETURN_NOT_OK(CheckSearchable(params, IndexKind::kIvf));
  std::vector<std::vector<Neighbor>> results(nq);
  if (nq == 0) return results;
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  if (metrics != nullptr) {
    metrics->AddUnchecked(obs::Counter::kFaissQueries, nq);
    metrics->AddUnchecked(obs::Counter::kFaissBatchQueries, nq);
  }
  const uint32_t nprobe = std::min(params.nprobe, num_clusters_);

  // RC#1: one SGEMM-decomposed distance batch covers bucket selection for
  // the whole query block against the packed codebook. BLAS-internal
  // work, so it is accounted as a serial section like the adding phase.
  std::vector<float> centroid_dists(nq * static_cast<size_t>(num_clusters_));
  CpuTimer sgemm_timer;
  {
    ProfScope scope(ctx.profiler, "SelectBucketsSgemm");
    AllPairsL2Sqr(queries, nq, codebook_, /*x_norms=*/nullptr,
                  centroid_dists.data());
  }
  const int64_t sgemm_nanos = sgemm_timer.ElapsedNanos();

  // Each query's probed buckets are scanned in selection order by a single
  // worker, so per-query results are bit-identical to single-query Search;
  // the batch dimension is what parallelizes (RC#3: per-worker k-heaps, no
  // shared locked heap). One KMaxHeap per worker is recycled across all of
  // its queries via TakeSorted's reset-to-empty contract.
  const size_t fetch_k = derived().FetchK(params.k);
  const int workers = std::max(params.num_threads, 1);
  std::vector<obs::SearchCounters> counters(workers);
  RunWorkers(workers, nq, ctx.accounting,
             [&](int worker, size_t begin, size_t end) {
               Profiler* profiler = workers == 1 ? ctx.profiler : nullptr;
               KMaxHeap heap(fetch_k);
               for (size_t q = begin; q < end && !ctx.StopRequested(); ++q) {
                 const float* query = queries + q * static_cast<size_t>(dim_);
                 const float* row = centroid_dists.data() + q * num_clusters_;
                 KMaxHeap probe_heap(nprobe);
                 for (uint32_t c = 0; c < num_clusters_; ++c) {
                   probe_heap.Push(row[c], c);
                 }
                 const auto scorer = derived().MakeScorer(query, profiler);
                 for (const auto& nb : probe_heap.TakeSorted()) {
                   ScanBucket(scorer, static_cast<uint32_t>(nb.id),
                              filter::AllSelected{}, heap, profiler,
                              counters[worker]);
                 }
                 results[q] = derived().Refine(query, heap.TakeSorted(),
                                               params.k, profiler);
               }
             });
  if (ctx.accounting != nullptr) ctx.accounting->serial_nanos += sgemm_nanos;
  VECDB_RETURN_NOT_OK(ctx.CheckStop(Derived::kName));
  if (metrics != nullptr) {
    for (int w = 1; w < workers; ++w) counters[0].MergeFrom(counters[w]);
    Flush(ctx, metrics, counters[0]);
  }
  return results;
}

template <class Derived>
Result<std::vector<Neighbor>> IvfScanIndex<Derived>::FilteredScan(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params, bool exhaustive) const {
  // Pre-filter needs no nprobe: it reaches every bucket.
  VECDB_RETURN_NOT_OK(CheckSearchable(
      params, exhaustive ? IndexKind::kFlat : IndexKind::kIvf));
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kFaissSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kFaissQueries);
  std::vector<uint32_t> probes;
  if (exhaustive) {
    probes.resize(num_clusters_);
    std::iota(probes.begin(), probes.end(), 0u);
  } else {
    ProfScope scope(ctx.profiler, "SelectBuckets");
    probes = SelectBuckets(query, std::min(params.nprobe, num_clusters_));
  }
  const auto scorer = derived().MakeScorer(query, ctx.profiler);
  obs::SearchCounters counters;
  KMaxHeap heap(derived().FetchK(params.k));
  for (uint32_t b : probes) {
    VECDB_RETURN_NOT_OK(ctx.CheckStop(Derived::kName));
    ScanBucket(scorer, b, filter::SelectionGate{&selection}, heap,
               ctx.profiler, counters);
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
  return derived().Refine(query, heap.TakeSorted(), params.k, ctx.profiler);
}

}  // namespace vecdb::faisslike
