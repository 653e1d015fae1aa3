// Scalar kernel tier: portable C++ the compiler auto-vectorizes to the
// x86-64 SSE2 baseline. This is both the fallback tier and the reference
// the dispatch-parity tests measure the intrinsic tiers against.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "distance/kernels_impl.h"

namespace vecdb::detail {
namespace {

float L2SqrScalar(const float* a, const float* b, size_t d) {
  // Four accumulators break the loop-carried dependence so GCC vectorizes
  // and pipelines the adds.
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < d; ++i) {
    const float di = a[i] - b[i];
    s0 += di * di;
  }
  return (s0 + s1) + (s2 + s3);
}

float InnerProductScalar(const float* a, const float* b, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < d; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

float L2NormSqrScalar(const float* a, size_t d) {
  return InnerProductScalar(a, a, d);
}

float CosineScalar(const float* a, const float* b, size_t d) {
  // One fused sweep accumulating all three reductions (dot, |a|², |b|²);
  // the pre-dispatch implementation walked the vectors three times.
  float dot0 = 0.f, dot1 = 0.f, na0 = 0.f, na1 = 0.f, nb0 = 0.f, nb1 = 0.f;
  size_t i = 0;
  for (; i + 2 <= d; i += 2) {
    dot0 += a[i] * b[i];
    na0 += a[i] * a[i];
    nb0 += b[i] * b[i];
    dot1 += a[i + 1] * b[i + 1];
    na1 += a[i + 1] * a[i + 1];
    nb1 += b[i + 1] * b[i + 1];
  }
  for (; i < d; ++i) {
    dot0 += a[i] * b[i];
    na0 += a[i] * a[i];
    nb0 += b[i] * b[i];
  }
  const float dot = dot0 + dot1;
  const float na = na0 + na1;
  const float nb = nb0 + nb1;
  if (na == 0.f || nb == 0.f) return 1.f;
  return 1.f - dot / std::sqrt(na * nb);
}

float Sq8OneScalar(const float* qadj, const float* scale, size_t d,
                   const uint8_t* code) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t t = 0;
  for (; t + 4 <= d; t += 4) {
    const float d0 = qadj[t] - static_cast<float>(code[t]) * scale[t];
    const float d1 = qadj[t + 1] - static_cast<float>(code[t + 1]) * scale[t + 1];
    const float d2 = qadj[t + 2] - static_cast<float>(code[t + 2]) * scale[t + 2];
    const float d3 = qadj[t + 3] - static_cast<float>(code[t + 3]) * scale[t + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; t < d; ++t) {
    const float dt = qadj[t] - static_cast<float>(code[t]) * scale[t];
    s0 += dt * dt;
  }
  return (s0 + s1) + (s2 + s3);
}

void Sq8BatchScalar(const float* qadj, const float* scale, size_t d,
                    const uint8_t* codes, size_t n, float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneScalar(qadj, scale, d, codes + j * d);
  }
}

void Sq8GatherScalar(const float* qadj, const float* scale, size_t d,
                     const uint8_t* const* codes, size_t n, float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneScalar(qadj, scale, d, codes[j]);
  }
}

void CodebookIpScalar(const float* x, const float* cb, size_t sub_dim,
                      size_t n, float* out) {
  // Codeword-blocked: a block of kBlock outputs stays in registers while
  // the dimensions are added into it in order, so the output is written
  // once rather than read and written once per dimension. Each output is
  // still 0 + x0·c0 + x1·c1 + ..., the same bits as a dimension-outer
  // pass. The block's inner loop is a contiguous slice of one dim-major
  // codebook row, which GCC vectorizes.
  constexpr size_t kBlock = 16;
  size_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    float acc[kBlock] = {};
    for (size_t t = 0; t < sub_dim; ++t) {
      const float xt = x[t];
      const float* row = cb + t * n + j;
      for (size_t l = 0; l < kBlock; ++l) acc[l] += xt * row[l];
    }
    for (size_t l = 0; l < kBlock; ++l) out[j + l] = acc[l];
  }
  for (; j < n; ++j) {
    float s = 0.f;
    for (size_t t = 0; t < sub_dim; ++t) s += x[t] * cb[t * n + j];
    out[j] = s;
  }
}

CodewordPick CodebookNearestScalar(const float* x, const float* cb,
                                   const float* norms, size_t sub_dim,
                                   size_t n, float slack, uint8_t* near) {
  float score[256];
  CodebookIpScalar(x, cb, sub_dim, n, score);
  // Argmin in kLanes interleaved lanes with selects instead of a branch
  // per codeword: codeword j goes to lane j % kLanes, each lane keeps its
  // first minimum, and the reduction takes the smallest value, lowest
  // index on ties. `<` never selects a NaN score; with no finite minimum
  // every lane keeps index 0, so best is 0.
  constexpr size_t kLanes = 8;
  float lane_min[kLanes];
  uint32_t lane_arg[kLanes] = {};
  std::fill_n(lane_min, kLanes, std::numeric_limits<float>::infinity());
  for (size_t j = 0; j < n; j += kLanes) {
    const size_t lanes = std::min(kLanes, n - j);
    for (size_t l = 0; l < lanes; ++l) {
      const float sj = norms[j + l] - 2.f * score[j + l];
      score[j + l] = sj;
      const bool less = sj < lane_min[l];
      lane_min[l] = less ? sj : lane_min[l];
      lane_arg[l] = less ? static_cast<uint32_t>(j + l) : lane_arg[l];
    }
  }
  uint32_t best = lane_arg[0];
  float best_s = lane_min[0];
  for (size_t l = 1; l < kLanes; ++l) {
    if (lane_min[l] < best_s ||
        (lane_min[l] == best_s && lane_arg[l] < best)) {
      best_s = lane_min[l];
      best = lane_arg[l];
    }
  }
  const float base =
      best_s + slack * (2.f * L2NormSqrScalar(x, sub_dim) + norms[best]);
  // Count first: the margin almost always holds the best alone, and best
  // is always inside it, so the list is then just best.
  uint32_t num_near = 0;
  for (size_t j = 0; j < n; ++j) {
    num_near += !(score[j] > base + slack * norms[j]);
  }
  if (num_near == 1) {
    near[0] = static_cast<uint8_t>(best);
    return {best, 1};
  }
  num_near = 0;
  for (size_t j = 0; j < n; ++j) {
    if (!(score[j] > base + slack * norms[j])) {
      near[num_near++] = static_cast<uint8_t>(j);
    }
  }
  return {best, num_near};
}

// Four float lanes as a GCC/Clang vector extension: elementwise + and *
// on the x86-64 SSE2 floor, each rounded as the scalar operation would be
// (no FMA contraction in ISO C++ mode), so a lane computes exactly what a
// plain float loop computes.
using Lanes4 = float __attribute__((vector_size(16)));

inline Lanes4 LoadLanes4(const float* p) {
  Lanes4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// One row of C against NS 16-column strips: a 1×16·NS tile held in 4·NS
// lane registers across the whole k loop (SSE2's sixteen registers leave
// no room for a second row beside the strips' operands; two and four rows
// measured slower). Each element gets the SGEMM's original per-element
// expression: four k-steps summed in order and added, no FMA, with the
// groups restarting every kSgemmBlockK.
constexpr size_t kSgemmBlockK = 256;

template <size_t NS>
void SgemmTileScalar(size_t k, const float* a, const float* strip, float* c,
                     size_t nc) {
  constexpr size_t NR = kSgemmStrip;
  constexpr size_t NV = NR / 4;
  Lanes4 acc[NS][NV] = {};
  for (size_t k0 = 0; k0 < k; k0 += kSgemmBlockK) {
    const size_t kend = k0 + std::min(kSgemmBlockK, k - k0);
    size_t p = k0;
    for (; p + 4 <= kend; p += 4) {
      for (size_t s = 0; s < NS; ++s) {
        const float* b = strip + s * k * NR + p * NR;
        for (size_t v = 0; v < NV; ++v) {
          acc[s][v] += a[p] * LoadLanes4(b + 4 * v) +
                       a[p + 1] * LoadLanes4(b + NR + 4 * v) +
                       a[p + 2] * LoadLanes4(b + 2 * NR + 4 * v) +
                       a[p + 3] * LoadLanes4(b + 3 * NR + 4 * v);
        }
      }
    }
    for (; p < kend; ++p) {
      for (size_t s = 0; s < NS; ++s) {
        for (size_t v = 0; v < NV; ++v) {
          acc[s][v] += a[p] * LoadLanes4(strip + s * k * NR + p * NR + 4 * v);
        }
      }
    }
  }
  float row[NS * NR];
  std::memcpy(row, acc, sizeof(row));
  std::copy_n(row, nc, c);
}

void SgemmScalar(size_t m, size_t n, size_t k, const float* a,
                 const float* strips, float* c) {
  constexpr size_t NR = kSgemmStrip;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j0 = 0; j0 < n; j0 += 2 * NR) {
      const size_t nc = std::min(2 * NR, n - j0);
      if (nc > NR) {
        SgemmTileScalar<2>(k, a + i * k, strips + j0 * k, c + i * n + j0, nc);
      } else {
        SgemmTileScalar<1>(k, a + i * k, strips + j0 * k, c + i * n + j0, nc);
      }
    }
  }
}

void NearestFromDotsScalar(const float* dots, size_t m, size_t n,
                           const float* x_norms, const float* y_norms,
                           uint32_t* assign, float* dist) {
  for (size_t i = 0; i < m; ++i) {
    const float* row = dots + i * n;
    const float xn = x_norms[i];
    uint32_t best = 0;
    float best_d = 0.f;
    for (size_t j = 0; j < n; ++j) {
      // The decomposition can dip below zero in float: clamp.
      float v = xn + y_norms[j] - 2.f * row[j];
      v = v < 0.f ? 0.f : v;
      if (j == 0 || v < best_d) {
        best_d = v;
        best = static_cast<uint32_t>(j);
      }
    }
    assign[i] = best;
    if (dist != nullptr) dist[i] = best_d;
  }
}

const KernelDispatch kScalarTable = {
    KernelIsa::kScalar, L2SqrScalar,      InnerProductScalar,
    L2NormSqrScalar,    CosineScalar,     Sq8BatchScalar,
    Sq8GatherScalar,    CodebookIpScalar, CodebookNearestScalar,
    SgemmScalar,        NearestFromDotsScalar,
};

}  // namespace

const KernelDispatch& ScalarKernelTable() { return kScalarTable; }

}  // namespace vecdb::detail
