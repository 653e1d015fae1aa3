#include "pase/ivf_sq8.h"

namespace vecdb::pase {

void PaseIvfSq8Index::Scorer::Score(const char* const* tuples, size_t n,
                                    float* out,
                                    obs::SearchCounters& sc) const {
  thread_local std::vector<const uint8_t*> codes;
  codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = reinterpret_cast<const uint8_t*>(tuples[i] + kHeaderBytes);
  }
  sq->DistanceToCodesGather(prep, codes.data(), n, out);
  sc.sq8_blocks +=
      (n + Sq8CodeStore::kBlockCodes - 1) / Sq8CodeStore::kBlockCodes;
  sc.sq8_codes += n;
}

Status PaseIvfSq8Index::TrainPayload(const float* data, size_t n) {
  VECDB_ASSIGN_OR_RETURN(ScalarQuantizer8 sq,
                         ScalarQuantizer8::Train(data, n, dim_));
  sq_.emplace(std::move(sq));
  return Status::OK();
}

std::string PaseIvfSq8Index::Describe() const {
  return "pase::IVF_SQ8 dim=" + std::to_string(dim_) +
         " c=" + std::to_string(num_clusters_);
}

}  // namespace vecdb::pase
