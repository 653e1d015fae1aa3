// PASE IVF_SQ8: the page-resident counterpart of faisslike::IvfSq8Index —
// per-bucket chains of SQ8 code tuples (the codebook stays in memory),
// scanned through the buffer manager with PASE's n-sized heap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pase/ivf_scan.h"
#include "quantizer/sq8.h"

namespace vecdb::pase {

/// Construction knobs.
struct PaseIvfSq8Options {
  uint32_t num_clusters = 256;
  double sample_ratio = 0.01;
  int train_iterations = 10;
  uint64_t seed = 42;
  std::string rel_prefix = "pase_ivfsq8";
  Profiler* profiler = nullptr;
};

/// Page-resident IVF_SQ8 index. Bucket selection runs over the in-memory
/// codebook: this index keeps no centroid relation.
class PaseIvfSq8Index final : public PaseIvfScanIndex<PaseIvfSq8Index> {
 public:
  static constexpr const char* kName = "PaseIvfSq8";
  static constexpr size_t kHeaderBytes = sizeof(int64_t);  ///< row id

  PaseIvfSq8Index(PaseEnv env, uint32_t dim, PaseIvfSq8Options options)
      : PaseIvfScanIndex(env, dim), options_(options) {}

  Status Build(const float* data, size_t n) override;

  /// aminsert: encodes and appends the new row to its bucket chain.
  Status Insert(const float* vec) override;

  /// amdelete: tombstones a row (PASE marks dead tuples; VACUUM reclaims).
  /// Row ids are assigned contiguously from 0, so anything outside
  /// [0, num_vectors_) was never indexed and reports NotFound.
  Status Delete(int64_t id) override {
    if (id < 0 || id >= static_cast<int64_t>(num_vectors_)) {
      return Status::NotFound("PaseIvfSq8::Delete: row " + std::to_string(id) +
                              " not indexed");
    }
    return tombstones_.Mark(id);
  }

  size_t SizeBytes() const override;
  std::string Describe() const override;

 private:
  friend class PaseIvfScanIndex<PaseIvfSq8Index>;

  /// SQ8 fast scan of one page's codes: the codes stay interleaved with
  /// their tuple headers, so they are gathered by pointer and handed to
  /// one gather-kernel call while the page is pinned.
  struct Scorer {
    static constexpr const char* kLabel = "sq8_scan";
    const ScalarQuantizer8* sq;
    Sq8Query prep;
    void Score(const char* const* tuples, size_t n, float* out,
               obs::SearchCounters& sc) const;
  };
  Scorer MakeScorer(const float* query, Profiler* /*profiler*/) const {
    return {&*sq_, sq_->PrepareQuery(query)};
  }

  PaseIvfSq8Options options_;
  std::optional<ScalarQuantizer8> sq_;
};

}  // namespace vecdb::pase
