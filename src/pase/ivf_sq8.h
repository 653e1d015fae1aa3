// PASE IVF_SQ8: the page-resident counterpart of faisslike::IvfSq8Index —
// centroid pages plus per-bucket chains of SQ8 code tuples, scanned through
// the buffer manager with PASE's n-sized heap.
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
};

/// Page-resident IVF_SQ8 index. Like its siblings it selects buckets by a
/// scan of its centroid pages.
class PaseIvfSq8Index final : public PaseIvfScanIndex<PaseIvfSq8Index> {
 public:
  static constexpr const char* kName = "PaseIvfSq8";
  static constexpr size_t kHeaderBytes = sizeof(int64_t);  ///< row id

  PaseIvfSq8Index(PaseEnv env, uint32_t dim, PaseIvfSq8Options options)
      : PaseIvfScanIndex(env, dim), options_(options) {}

  std::string Describe() const override;

 private:
  friend class PaseIvfScanIndex<PaseIvfSq8Index>;

  /// The per-dimension scalar ranges, trained on every row.
  Status TrainPayload(const float* data, size_t n);
  size_t payload_bytes() const { return sq_->code_size(); }
  const void* Payload(const float* vec, uint8_t* scratch) const {
    sq_->Encode(vec, scratch);
    return scratch;
  }

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
