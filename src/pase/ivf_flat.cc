#include "pase/ivf_flat.h"

#include "distance/kernels.h"

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

std::string PaseIvfFlatIndex::Describe() const {
  return "pase::IVF_FLAT dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) + " page=" +
         std::to_string(env_.bufmgr->page_size());
}

}  // namespace vecdb::pase
