#include "quantizer/sq8.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/serialize.h"
#include "distance/dispatch.h"

namespace vecdb {

Result<ScalarQuantizer8> ScalarQuantizer8::Train(const float* data, size_t n,
                                                 size_t d) {
  if (data == nullptr || n == 0 || d == 0) {
    return Status::InvalidArgument("SQ8::Train: empty input");
  }
  ScalarQuantizer8 sq;
  sq.dim_ = static_cast<uint32_t>(d);
  sq.vmin_.assign(d, data[0]);
  std::vector<float> vmax(d, data[0]);
  for (size_t t = 0; t < d; ++t) {
    sq.vmin_[t] = vmax[t] = data[t];
  }
  for (size_t i = 1; i < n; ++i) {
    const float* x = data + i * d;
    for (size_t t = 0; t < d; ++t) {
      sq.vmin_[t] = std::min(sq.vmin_[t], x[t]);
      vmax[t] = std::max(vmax[t], x[t]);
    }
  }
  sq.vscale_.resize(d);
  for (size_t t = 0; t < d; ++t) {
    sq.vscale_[t] = (vmax[t] - sq.vmin_[t]) / 255.f;
  }
  return sq;
}

void ScalarQuantizer8::Encode(const float* vec, uint8_t* code) const {
  for (uint32_t t = 0; t < dim_; ++t) {
    if (vscale_[t] == 0.f) {
      code[t] = 0;
      continue;
    }
    float q = std::round((vec[t] - vmin_[t]) / vscale_[t]);
    q = std::clamp(q, 0.f, 255.f);
    code[t] = static_cast<uint8_t>(q);
  }
}

void ScalarQuantizer8::Decode(const uint8_t* code, float* vec) const {
  for (uint32_t t = 0; t < dim_; ++t) {
    vec[t] = vmin_[t] + (static_cast<float>(code[t]) + 0.5f) * vscale_[t];
  }
}

float ScalarQuantizer8::DistanceToCode(const float* query,
                                       const uint8_t* code) const {
  float s = 0.f;
  for (uint32_t t = 0; t < dim_; ++t) {
    const float rec = vmin_[t] + (static_cast<float>(code[t]) + 0.5f) * vscale_[t];
    const float diff = query[t] - rec;
    s += diff * diff;
  }
  return s;
}

Sq8Query ScalarQuantizer8::PrepareQuery(const float* query) const {
  Sq8Query q;
  q.qadj.resize(dim_);
  for (uint32_t t = 0; t < dim_; ++t) {
    q.qadj[t] = query[t] - vmin_[t] - 0.5f * vscale_[t];
  }
  return q;
}

float ScalarQuantizer8::DistanceToCode(const Sq8Query& q,
                                       const uint8_t* code) const {
  float out;
  ActiveKernels().sq8_l2_batch(q.qadj.data(), vscale_.data(), dim_, code, 1,
                               &out);
  return out;
}

void ScalarQuantizer8::DistanceToCodesBatch(const Sq8Query& q,
                                            const uint8_t* codes, size_t n,
                                            float* out) const {
  ActiveKernels().sq8_l2_batch(q.qadj.data(), vscale_.data(), dim_, codes, n,
                               out);
}

void ScalarQuantizer8::DistanceToCodesGather(const Sq8Query& q,
                                             const uint8_t* const* codes,
                                             size_t n, float* out) const {
  ActiveKernels().sq8_l2_gather(q.qadj.data(), vscale_.data(), dim_, codes, n,
                                out);
}

Status ScalarQuantizer8::Serialize(BinaryWriter* writer) const {
  return writer->Fields(dim_, vmin_, vscale_);
}

Result<ScalarQuantizer8> ScalarQuantizer8::Deserialize(BinaryReader* reader) {
  ScalarQuantizer8 sq;
  VECDB_RETURN_NOT_OK(reader->Fields(sq.dim_, sq.vmin_, sq.vscale_));
  if (sq.dim_ == 0 || sq.vmin_.size() != sq.dim_ ||
      sq.vscale_.size() != sq.dim_) {
    return Status::Corruption("SQ8: inconsistent serialized ranges");
  }
  return sq;
}

void Sq8CodeStore::Reset(size_t code_size) {
  code_size_ = code_size;
  ids_.clear();
}

void Sq8CodeStore::Append(const uint8_t* code, int64_t id) {
  const size_t n = ids_.size();
  if (n == capacity_codes_) {
    size_t cap = capacity_codes_ == 0 ? kBlockCodes : capacity_codes_ * 2;
    const size_t bytes = (cap * code_size_ + 63) / 64 * 64;
    uint8_t* fresh = static_cast<uint8_t*>(std::aligned_alloc(64, bytes));
    if (codes_ != nullptr) {
      std::memcpy(fresh, codes_, n * code_size_);
      std::free(codes_);
    }
    codes_ = fresh;
    capacity_codes_ = cap;
  }
  std::memcpy(codes_ + n * code_size_, code, code_size_);
  ids_.push_back(id);
}

}  // namespace vecdb
