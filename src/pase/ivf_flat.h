// PASE IVF_FLAT: the generalized-engine inverted file, stored in
// PostgreSQL-style pages (centroid pages + per-bucket chains of data pages)
// and searched through the buffer manager. Faithfully reproduces the
// paper's root causes: no SGEMM in the adding phase (RC#1), tuple access
// via page indirection (RC#2), an n-sized result heap (RC#6), PASE-style
// K-means (RC#5), and a locked global heap under intra-query parallelism
// (RC#3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pase/ivf_scan.h"
#include "pase/pase_common.h"

namespace vecdb::pase {

/// Construction knobs. Names follow the paper's Table II.
struct PaseIvfFlatOptions {
  uint32_t num_clusters = 256;  ///< c
  double sample_ratio = 0.01;   ///< sr (PASE expresses this as x/1000)
  int train_iterations = 10;
  uint64_t seed = 42;
  std::string rel_prefix = "pase_ivfflat";  ///< relation name prefix
  /// Fig 2 comparison point: emulate pgvector's slower executor — distance
  /// evaluated through per-tuple operator dispatch and results fully sorted
  /// instead of heap-selected.
  bool pgvector_mode = false;
};

/// Page-resident IVF_FLAT index.
class PaseIvfFlatIndex final : public PaseIvfScanIndex<PaseIvfFlatIndex> {
 public:
  static constexpr const char* kName = "PaseIvfFlat";
  static constexpr size_t kHeaderBytes = sizeof(PaseVectorTuple);

  PaseIvfFlatIndex(PaseEnv env, uint32_t dim, PaseIvfFlatOptions options)
      : PaseIvfScanIndex(env, dim), options_(options) {}

  std::string Describe() const override;

 private:
  friend class PaseIvfScanIndex<PaseIvfFlatIndex>;

  /// A tuple stores the float row itself: nothing to train or encode.
  Status TrainPayload(const float* /*data*/, size_t /*n*/) {
    return Status::OK();
  }
  size_t payload_bytes() const { return dim_ * sizeof(float); }
  const void* Payload(const float* vec, uint8_t* /*scratch*/) const {
    return vec;
  }

  /// Exact float L2 against the page-resident vectors; pgvector mode
  /// dispatches the operator through a function pointer per tuple.
  struct Scorer {
    static constexpr const char* kLabel = "fvec_L2sqr";
    const float* query;
    uint32_t dim;
    bool pgvector_mode;
    void Score(const char* const* tuples, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* /*profiler*/) const {
    return {query, dim_, options_.pgvector_mode};
  }

  /// pgvector sorts the full candidate set (ORDER BY semantics) rather
  /// than heap-selecting k of n.
  std::vector<Neighbor> TakeTopK(NHeap& collector, size_t k) const;

  PaseIvfFlatOptions options_;
};

}  // namespace vecdb::pase
