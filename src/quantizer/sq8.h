// Scalar quantization to 8 bits per dimension (the IVF_SQ8 building block
// the paper mentions in §II-B). Provided as an extension index component.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vecdb {

/// A query pre-expanded for the asymmetric SQ8 fast-scan kernels:
/// qadj[t] = query[t] - vmin[t] - 0.5*vscale[t], so the per-code distance
/// collapses to sum_t (qadj[t] - code[t]*vscale[t])² — two FMA-shaped ops
/// per dimension instead of decode-then-subtract. Build once per query
/// with ScalarQuantizer8::PrepareQuery, reuse across every probed bucket.
struct Sq8Query {
  std::vector<float> qadj;
};

/// Per-dimension min/max affine quantizer: f -> round(255 * (f-min)/(max-min)).
class ScalarQuantizer8 {
 public:
  /// Learns per-dimension ranges from `n` row-major d-dim vectors.
  static Result<ScalarQuantizer8> Train(const float* data, size_t n, size_t d);

  uint32_t dim() const { return dim_; }
  size_t code_size() const { return dim_; }

  /// Per-dimension scale factors ((max-min)/255), dim() floats.
  const float* scales() const { return vscale_.data(); }

  /// Quantizes one vector into `code` (dim bytes). Values outside the
  /// trained range clamp to the boundary codes.
  void Encode(const float* vec, uint8_t* code) const;

  /// Reconstructs the midpoint value of each code bucket.
  void Decode(const uint8_t* code, float* vec) const;

  /// Squared L2 distance between a float query and an encoded vector,
  /// decoding on the fly. Kept as the scalar reference shape (one decode
  /// + subtract + square per dimension); the prepared-query overloads
  /// below are the fast path.
  float DistanceToCode(const float* query, const uint8_t* code) const;

  /// Expands `query` (dim floats) into the fast-scan form.
  Sq8Query PrepareQuery(const float* query) const;

  /// Prepared-query distance to one code, via the active ISA tier.
  /// Bit-identical to a 1-element DistanceToCodesBatch (same kernel).
  float DistanceToCode(const Sq8Query& q, const uint8_t* code) const;

  /// Distances from a prepared query to `n` contiguous dim-byte codes
  /// (the blocked Sq8CodeStore layout), one output per code. Within an
  /// ISA tier, out[j] is bit-identical to DistanceToCode(q, codes + j*dim)
  /// — SIMD lanes run along the dimension, never across codes.
  void DistanceToCodesBatch(const Sq8Query& q, const uint8_t* codes, size_t n,
                            float* out) const;

  /// Same scan over `n` non-contiguous codes addressed by pointer — the
  /// page-resident shape where codes sit behind tuple headers.
  void DistanceToCodesGather(const Sq8Query& q, const uint8_t* const* codes,
                             size_t n, float* out) const;

  /// Writes the dimension and the per-dimension ranges (index snapshots).
  Status Serialize(class BinaryWriter* writer) const;

  /// Reads a quantizer previously written by Serialize.
  static Result<ScalarQuantizer8> Deserialize(class BinaryReader* reader);

 private:
  ScalarQuantizer8() = default;

  uint32_t dim_ = 0;
  std::vector<float> vmin_;   // per-dimension minimum
  std::vector<float> vscale_; // per-dimension (max-min)/255, 0 if constant
};

/// Append-only code storage for one IVF bucket: all codes packed row-major
/// at code_size stride in a single 64-byte-aligned allocation (hnswlib's
/// contiguous level-0 layout), with row ids in a parallel array. This is
/// what DistanceToCodesBatch scans; kBlockCodes is the scan-block grain
/// the kernel.sq8_blocks metric counts in.
class Sq8CodeStore {
 public:
  /// Fast-scan accounting grain: one "block" is up to this many codes.
  static constexpr size_t kBlockCodes = 32;

  Sq8CodeStore() = default;
  ~Sq8CodeStore() { std::free(codes_); }

  Sq8CodeStore(Sq8CodeStore&& other) noexcept
      : code_size_(std::exchange(other.code_size_, 0)),
        codes_(std::exchange(other.codes_, nullptr)),
        capacity_codes_(std::exchange(other.capacity_codes_, 0)),
        ids_(std::move(other.ids_)) {}

  Sq8CodeStore& operator=(Sq8CodeStore&& other) noexcept {
    if (this != &other) {
      std::free(codes_);
      code_size_ = std::exchange(other.code_size_, 0);
      codes_ = std::exchange(other.codes_, nullptr);
      capacity_codes_ = std::exchange(other.capacity_codes_, 0);
      ids_ = std::move(other.ids_);
    }
    return *this;
  }

  Sq8CodeStore(const Sq8CodeStore&) = delete;
  Sq8CodeStore& operator=(const Sq8CodeStore&) = delete;

  /// Drops all codes and fixes the per-code byte width.
  void Reset(size_t code_size);

  /// Appends one code (code_size bytes) and its row id.
  void Append(const uint8_t* code, int64_t id);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  size_t code_size() const { return code_size_; }

  const uint8_t* codes() const { return codes_; }
  const uint8_t* code_at(size_t i) const { return codes_ + i * code_size_; }
  const std::vector<int64_t>& ids() const { return ids_; }

  /// kBlockCodes-grain block count covering the store (ceil division).
  size_t num_blocks() const {
    return (ids_.size() + kBlockCodes - 1) / kBlockCodes;
  }

  /// Heap footprint: allocated code bytes plus the id array.
  size_t MemoryBytes() const {
    return capacity_codes_ * code_size_ + ids_.capacity() * sizeof(int64_t);
  }

 private:
  size_t code_size_ = 0;
  uint8_t* codes_ = nullptr;
  size_t capacity_codes_ = 0;
  std::vector<int64_t> ids_;
};

}  // namespace vecdb
