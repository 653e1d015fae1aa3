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

std::string PaseIvfFlatIndex::Describe() const {
  return "pase::IVF_FLAT dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_) + " page=" +
         std::to_string(env_.bufmgr->page_size());
}

}  // namespace vecdb::pase
