#include "pase/ivf_flat.h"

#include "clustering/kmeans.h"
#include "common/check.h"
#include "common/timer.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb::pase {

namespace {

// pgvector-mode distance evaluation: the executor dispatches the `<->`
// operator through a function pointer per tuple (SQL expression
// machinery), instead of a direct inlined kernel call.
__attribute__((noinline)) float IndirectL2Sqr(const float* a, const float* b,
                                              size_t d) {
  return L2Sqr(a, b, d);
}
using DistanceFn = float (*)(const float*, const float*, size_t);
volatile DistanceFn g_pgvector_distance = &IndirectL2Sqr;

const float* TupleVector(const char* tuple) {
  return reinterpret_cast<const float*>(tuple + sizeof(PaseVectorTuple));
}

}  // namespace

void PaseIvfFlatIndex::Scorer::Score(const char* const* tuples, size_t n,
                                     float* out,
                                     obs::SearchCounters& /*sc*/) const {
  if (pgvector_mode) {
    DistanceFn fn = g_pgvector_distance;
    for (size_t i = 0; i < n; ++i) {
      out[i] = fn(query, TupleVector(tuples[i]), dim);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = L2Sqr(query, TupleVector(tuples[i]), dim);
    }
  }
}

std::vector<Neighbor> PaseIvfFlatIndex::TakeTopK(NHeap& collector,
                                                 size_t k) const {
  if (!options_.pgvector_mode) return collector.PopK(k);
  auto all = collector.PopK(collector.size());
  if (all.size() > k) all.resize(k);
  return all;
}

Status PaseIvfFlatIndex::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("PaseIvfFlat: bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("PaseIvfFlat: empty input");
  }
  if (options_.num_clusters > n) {
    return Status::InvalidArgument("PaseIvfFlat: c > n");
  }
  build_stats_ = {};
  Timer timer;

  // --- Training phase: PASE-style K-means (RC#5), per-pair distances.
  KMeansOptions km;
  km.num_clusters = options_.num_clusters;
  km.max_iterations = options_.train_iterations;
  km.sample_ratio = options_.sample_ratio;
  km.style = KMeansStyle::kPaseStyle;
  km.use_sgemm = false;  // RC#1: PASE has no SGEMM path
  km.seed = options_.seed;
  km.profiler = options_.profiler;
  VECDB_ASSIGN_OR_RETURN(KMeansModel model, TrainKMeans(data, n, dim_, km));
  num_clusters_ = model.num_clusters;
  centroids_.Resize(0);
  centroids_.Append(model.centroids.data(),
                    static_cast<size_t>(num_clusters_) * dim_);
  build_stats_.train_seconds = timer.ElapsedSeconds();
  timer.Reset();

  // --- Adding phase: naive per-pair assignment (the fvec_L2sqr_ref
  // bottleneck of Fig 3) and page-chain appends through the buffer manager.
  VECDB_ASSIGN_OR_RETURN(centroid_rel_, env_.smgr->CreateRelation(
                                            options_.rel_prefix + "_centroid"));
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});

  std::vector<uint32_t> assign(n);
  AssignToNearest(data, n, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, assign.data(), nullptr, nullptr,
                  options_.profiler);
  for (size_t i = 0; i < n; ++i) {
    VECDB_RETURN_NOT_OK(AppendToBucket(assign[i], static_cast<int64_t>(i),
                                       data + i * dim_, dim_ * sizeof(float)));
  }
  VECDB_RETURN_NOT_OK(WriteCentroidPages());
  num_vectors_ = n;
  next_row_id_ = static_cast<int64_t>(n);
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

Status PaseIvfFlatIndex::Vacuum() {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("PaseIvfFlat: index not built");
  }
  if (tombstones_.empty()) return Status::OK();

  // Collect live tuples bucket by bucket from the old chains.
  struct LiveRow {
    int64_t row_id;
    std::vector<float> vec;
  };
  std::vector<std::vector<LiveRow>> live(num_clusters_);
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(WalkChain(
        b, nullptr,
        [&](pgstub::BlockId, const std::vector<const char*>& tuples) {
          for (const char* tuple : tuples) {
            const int64_t row_id = TupleRowId(tuple);
            if (tombstones_.Contains(row_id)) continue;
            const float* vec = TupleVector(tuple);
            live[b].push_back({row_id, {vec, vec + dim_}});
          }
          return true;
        }));
  }

  // Swap in a fresh data relation and rewrite the chains densely.
  VECDB_RETURN_NOT_OK(env_.bufmgr->InvalidateRelation(data_rel_));
  VECDB_RETURN_NOT_OK(env_.smgr->DropRelation(data_rel_));
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  chains_.assign(num_clusters_, {});
  size_t total = 0;
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    for (const auto& row : live[b]) {
      VECDB_RETURN_NOT_OK(AppendToBucket(b, row.row_id, row.vec.data(),
                                         dim_ * sizeof(float)));
      ++total;
    }
  }
  num_vectors_ = total;
  tombstones_.Clear();
#ifndef NDEBUG
  CheckInvariants();
#endif
  return Status::OK();
}

Result<bool> PaseIvfFlatIndex::ContainsRow(int64_t row_id) const {
  bool found = false;
  for (uint32_t b = 0; b < num_clusters_ && !found; ++b) {
    VECDB_RETURN_NOT_OK(WalkChain(
        b, nullptr,
        [&](pgstub::BlockId, const std::vector<const char*>& tuples) {
          for (const char* tuple : tuples) {
            if (TupleRowId(tuple) == row_id) found = true;
          }
          return !found;
        }));
  }
  return found;
}

Status PaseIvfFlatIndex::Delete(int64_t id) {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("PaseIvfFlat: index not built");
  }
  VECDB_ASSIGN_OR_RETURN(bool stored, ContainsRow(id));
  if (!stored) {
    return Status::NotFound("PaseIvfFlat::Delete: row " + std::to_string(id) +
                            " not indexed");
  }
  return tombstones_.Mark(id);
}

Status PaseIvfFlatIndex::Insert(const float* vec) {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("PaseIvfFlat: index not built");
  }
  if (vec == nullptr) return Status::InvalidArgument("PaseIvfFlat: null vec");
  uint32_t bucket = 0;
  AssignToNearest(vec, 1, dim_, centroids_.data(), num_clusters_,
                  /*use_sgemm=*/false, &bucket, nullptr);
  VECDB_RETURN_NOT_OK(
      AppendToBucket(bucket, next_row_id_, vec, dim_ * sizeof(float)));
  ++next_row_id_;
  ++num_vectors_;
  return Status::OK();
}

void PaseIvfFlatIndex::CheckInvariants() const {
  if (num_clusters_ == 0) return;  // not built yet; nothing to audit
  VECDB_CHECK_EQ(chains_.size(), num_clusters_) << "chain count vs clusters";
  VECDB_CHECK_EQ(centroids_.size(),
                 static_cast<size_t>(num_clusters_) * dim_)
      << "centroid matrix truncated";
  VECDB_CHECK_LE(tombstones_.size(), num_vectors_)
      << "more tombstones than stored rows";
  // Walk every bucket's page chain; stored tuples (live + tombstoned, which
  // stay in place until Vacuum) must sum to num_vectors_, and a tail block
  // must terminate its chain.
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

size_t PaseIvfFlatIndex::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(centroid_rel_); r.ok()) blocks += *r;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  return blocks * static_cast<size_t>(env_.bufmgr->page_size());
}

std::string PaseIvfFlatIndex::Describe() const {
  return "pase::IVF_FLAT dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) + " page=" +
         std::to_string(env_.bufmgr->page_size());
}

}  // namespace vecdb::pase
