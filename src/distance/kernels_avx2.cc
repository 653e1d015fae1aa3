// AVX2 + FMA kernel tier: 8-wide float lanes via function-level target
// attributes, so no -march flags leak into the rest of the build and the
// binary still boots on the x86-64 baseline (dispatch.cc gates on cpuid).
//
// Lane blocking runs along the dimension only — each output depends on
// exactly one input pair/code — which keeps batch results bit-identical
// to one-at-a-time calls within this tier (the SQ8 oracle contract). The
// PQ codebook kernels are the one exception: their lanes run across
// codewords (see the KernelDispatch contract).
#include "distance/kernels_impl.h"

#ifdef VECDB_KERNELS_X86_DISPATCH

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

namespace vecdb::detail {
namespace {

#define VECDB_AVX2 __attribute__((target("avx2,fma")))

VECDB_AVX2 inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

VECDB_AVX2 float L2SqrAvx2(const float* a, const float* b, size_t d) {
  // Four independent accumulators: one FMA per cycle needs ~4 in flight
  // to cover the 4-cycle FMA latency, or the loop is chain-bound.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 16),
                                    _mm256_loadu_ps(b + i + 16));
    const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 24),
                                    _mm256_loadu_ps(b + i + 24));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    acc2 = _mm256_fmadd_ps(d2, d2, acc2);
    acc3 = _mm256_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 8 <= d; i += 8) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
  }
  float s = Hsum256(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                  _mm256_add_ps(acc2, acc3)));
  for (; i < d; ++i) {
    const float di = a[i] - b[i];
    s += di * di;
  }
  return s;
}

VECDB_AVX2 float InnerProductAvx2(const float* a, const float* b, size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float s = Hsum256(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                  _mm256_add_ps(acc2, acc3)));
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

VECDB_AVX2 float L2NormSqrAvx2(const float* a, size_t d) {
  return InnerProductAvx2(a, a, d);
}

VECDB_AVX2 float CosineAvx2(const float* a, const float* b, size_t d) {
  // Fused single pass: three FMA accumulators per 8-lane block.
  __m256 dot = _mm256_setzero_ps();
  __m256 na = _mm256_setzero_ps();
  __m256 nb = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    dot = _mm256_fmadd_ps(va, vb, dot);
    na = _mm256_fmadd_ps(va, va, na);
    nb = _mm256_fmadd_ps(vb, vb, nb);
  }
  float sdot = Hsum256(dot);
  float sna = Hsum256(na);
  float snb = Hsum256(nb);
  for (; i < d; ++i) {
    sdot += a[i] * b[i];
    sna += a[i] * a[i];
    snb += b[i] * b[i];
  }
  if (sna == 0.f || snb == 0.f) return 1.f;
  return 1.f - sdot / std::sqrt(sna * snb);
}

VECDB_AVX2 inline float Sq8OneAvx2(const float* qadj, const float* scale,
                                   size_t d, const uint8_t* code) {
  __m256 acc = _mm256_setzero_ps();
  size_t t = 0;
  for (; t + 8 <= d; t += 8) {
    // Widen 8 code bytes u8 -> i32 -> f32, then diff = qadj - code*scale
    // as one fnmadd and square-accumulate as one fmadd.
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + t));
    const __m256 vcode = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    const __m256 diff = _mm256_fnmadd_ps(vcode, _mm256_loadu_ps(scale + t),
                                         _mm256_loadu_ps(qadj + t));
    acc = _mm256_fmadd_ps(diff, diff, acc);
  }
  float s = Hsum256(acc);
  for (; t < d; ++t) {
    const float dt = qadj[t] - static_cast<float>(code[t]) * scale[t];
    s += dt * dt;
  }
  return s;
}

VECDB_AVX2 void Sq8BatchAvx2(const float* qadj, const float* scale, size_t d,
                             const uint8_t* codes, size_t n, float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneAvx2(qadj, scale, d, codes + j * d);
  }
}

VECDB_AVX2 void Sq8GatherAvx2(const float* qadj, const float* scale, size_t d,
                              const uint8_t* const* codes, size_t n,
                              float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneAvx2(qadj, scale, d, codes[j]);
  }
}

VECDB_AVX2 void CodebookIpAvx2(const float* x, const float* cb,
                               size_t sub_dim, size_t n, float* out) {
  // Lanes across codewords: 32 codewords (four accumulators) per block,
  // one broadcast of x[t] and four FMAs per dimension.
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (size_t t = 0; t < sub_dim; ++t) {
      const __m256 xt = _mm256_set1_ps(x[t]);
      const float* row = cb + t * n + j;
      acc0 = _mm256_fmadd_ps(xt, _mm256_loadu_ps(row), acc0);
      acc1 = _mm256_fmadd_ps(xt, _mm256_loadu_ps(row + 8), acc1);
      acc2 = _mm256_fmadd_ps(xt, _mm256_loadu_ps(row + 16), acc2);
      acc3 = _mm256_fmadd_ps(xt, _mm256_loadu_ps(row + 24), acc3);
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + 8, acc1);
    _mm256_storeu_ps(out + j + 16, acc2);
    _mm256_storeu_ps(out + j + 24, acc3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t t = 0; t < sub_dim; ++t) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(x[t]),
                            _mm256_loadu_ps(cb + t * n + j), acc);
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < n; ++j) {
    float s = 0.f;
    for (size_t t = 0; t < sub_dim; ++t) s += x[t] * cb[t * n + j];
    out[j] = s;
  }
}

VECDB_AVX2 inline float Hmin256(__m256 v) {
  __m128 t =
      _mm_min_ps(_mm256_extractf128_ps(v, 1), _mm256_castps256_ps128(v));
  t = _mm_min_ps(t, _mm_movehl_ps(t, t));
  t = _mm_min_ss(t, _mm_shuffle_ps(t, t, 1));
  return _mm_cvtss_f32(t);
}

VECDB_AVX2 CodewordPick CodebookNearestAvx2(const float* x, const float* cb,
                                            const float* norms,
                                            size_t sub_dim, size_t n,
                                            float slack, uint8_t* near) {
  alignas(32) float score[256];
  CodebookIpAvx2(x, cb, sub_dim, n, score);
  // Pass 1: s = ‖c‖² − 2 x·c (2·p is exact, so this rounds once, as the
  // scalar tier does) and the running minimum; 8-wide blocks, then a
  // scalar tail. min(s, acc) returns acc when s is NaN, and so does the
  // tail's `<`, so a NaN score never becomes the minimum.
  const __m256 two = _mm256_set1_ps(2.f);
  __m256 lane_min = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const size_t blocked = n & ~size_t{7};
  for (size_t j = 0; j < blocked; j += 8) {
    const __m256 s =
        _mm256_sub_ps(_mm256_loadu_ps(norms + j),
                      _mm256_mul_ps(two, _mm256_load_ps(score + j)));
    _mm256_store_ps(score + j, s);
    lane_min = _mm256_min_ps(s, lane_min);
  }
  float best_s = Hmin256(lane_min);
  for (size_t j = blocked; j < n; ++j) {
    score[j] = norms[j] - 2.f * score[j];
    if (score[j] < best_s) best_s = score[j];
  }
  // The argmin is the first codeword scoring best_s. When every score is
  // NaN none does, and best stays 0 like the scalar tier's.
  uint32_t best = 0;
  const __m256 vbest = _mm256_set1_ps(best_s);
  size_t j = 0;
  for (; j < blocked; j += 8) {
    const int eq = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_load_ps(score + j), vbest, _CMP_EQ_OQ));
    if (eq != 0) {
      best = static_cast<uint32_t>(j) + __builtin_ctz(eq);
      break;
    }
  }
  if (j == blocked) {
    for (; j < n; ++j) {
      if (score[j] == best_s) {
        best = static_cast<uint32_t>(j);
        break;
      }
    }
  }
  // Pass 2: the rounding margin, as separate multiply and add so the
  // threshold rounds like the scalar tier's.
  const float base =
      best_s + slack * (2.f * L2NormSqrAvx2(x, sub_dim) + norms[best]);
  const __m256 vbase = _mm256_set1_ps(base);
  const __m256 vslack = _mm256_set1_ps(slack);
  uint32_t num_near = 0;
  for (j = 0; j < blocked; j += 8) {
    const __m256 threshold = _mm256_add_ps(
        vbase, _mm256_mul_ps(vslack, _mm256_loadu_ps(norms + j)));
    unsigned inside = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_load_ps(score + j), threshold, _CMP_NGT_UQ)));
    for (; inside != 0; inside &= inside - 1) {
      near[num_near++] = static_cast<uint8_t>(j + __builtin_ctz(inside));
    }
  }
  for (; j < n; ++j) {
    near[num_near] = static_cast<uint8_t>(j);
    num_near += !(score[j] > base + slack * norms[j]);
  }
  return {best, num_near};
}

// SGEMM micro-kernel: an MR×16 tile of C (one strip, two 8-lane halves)
// in 2·MR accumulators held across the whole k loop. Per k-step: two
// loads, then one broadcast FMA per accumulator, so every element is the
// same FMA chain over p = 0..k-1 wherever it sits in a tile.
constexpr size_t kSgemmRowsAvx2 = 6;

template <size_t MR>
VECDB_AVX2 void SgemmTileAvx2(size_t k, const float* a, const float* strip,
                              float* c, size_t ldc, size_t nc) {
  constexpr size_t NR = kSgemmStrip;
  __m256 acc[MR][2];
#pragma GCC unroll 8
  for (size_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (size_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(strip + p * NR);
    const __m256 b1 = _mm256_loadu_ps(strip + p * NR + 8);
#pragma GCC unroll 8
    for (size_t r = 0; r < MR; ++r) {
      const __m256 ar = _mm256_set1_ps(a[r * k + p]);
      acc[r][0] = _mm256_fmadd_ps(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < MR; ++r) {
    if (nc == NR) {
      _mm256_storeu_ps(c + r * ldc, acc[r][0]);
      _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
    } else {
      alignas(32) float tile[NR];
      _mm256_store_ps(tile, acc[r][0]);
      _mm256_store_ps(tile + 8, acc[r][1]);
      std::copy_n(tile, nc, c + r * ldc);
    }
  }
}

using SgemmTileFn = void (*)(size_t, const float*, const float*, float*,
                             size_t, size_t);

template <size_t... R>
constexpr std::array<SgemmTileFn, sizeof...(R)> SgemmTilesAvx2(
    std::index_sequence<R...>) {
  return {&SgemmTileAvx2<R + 1>...};
}

VECDB_AVX2 void SgemmAvx2(size_t m, size_t n, size_t k, const float* a,
                          const float* strips, float* c) {
  // Tiles by row count (index mr − 1).
  static constexpr auto kTiles =
      SgemmTilesAvx2(std::make_index_sequence<kSgemmRowsAvx2>());
  constexpr size_t NR = kSgemmStrip;
  // 128-column blocks of B stay cache-resident while every row passes.
  constexpr size_t kBlockN = 8 * NR;
  for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const size_t jend = std::min(n, j0 + kBlockN);
    for (size_t i0 = 0; i0 < m; i0 += kSgemmRowsAvx2) {
      const size_t mr = std::min(kSgemmRowsAvx2, m - i0);
      for (size_t j = j0; j < jend; j += NR) {
        kTiles[mr - 1](k, a + i0 * k, strips + j * k, c + i0 * n + j, n,
                       std::min(NR, jend - j));
      }
    }
  }
}

// v = (xn + yn) − 2·dot clamped at 0, NaN kept.
VECDB_AVX2 inline __m256 ClampedL2FromDots(__m256 xn, const float* yn,
                                           const float* dots) {
  const __m256 d = _mm256_loadu_ps(dots);
  const __m256 v = _mm256_sub_ps(_mm256_add_ps(xn, _mm256_loadu_ps(yn)),
                                 _mm256_add_ps(d, d));
  const __m256 zero = _mm256_setzero_ps();
  return _mm256_blendv_ps(v, zero, _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
}

VECDB_AVX2 void NearestFromDotsAvx2(const float* dots, size_t m, size_t n,
                                    const float* x_norms,
                                    const float* y_norms, uint32_t* assign,
                                    float* dist) {
  for (size_t i = 0; i < m; ++i) {
    const float* row = dots + i * n;
    const float xn = x_norms[i];
    auto v_at = [&](size_t j) {
      return std::max(xn + y_norms[j] - 2.f * row[j], 0.f);
    };
    uint32_t best = 0;
    float best_d = v_at(0);
    if (!std::isnan(best_d)) {
      // Lane minimum, then the scalar tail; min(v, acc) keeps acc when v
      // is NaN, and so does a failed v < acc.
      const __m256 vxn = _mm256_set1_ps(xn);
      __m256 lane_min = _mm256_set1_ps(std::numeric_limits<float>::infinity());
      size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        lane_min = _mm256_min_ps(
            ClampedL2FromDots(vxn, y_norms + j, row + j), lane_min);
      }
      float vmin = Hmin256(lane_min);
      for (; j < n; ++j) {
        const float v = v_at(j);
        if (v < vmin) vmin = v;
      }
      // The first j scoring the minimum; v_0 is not NaN, so one does.
      const __m256 vvmin = _mm256_set1_ps(vmin);
      for (j = 0; j + 8 <= n; j += 8) {
        const int eq = _mm256_movemask_ps(_mm256_cmp_ps(
            ClampedL2FromDots(vxn, y_norms + j, row + j), vvmin, _CMP_EQ_OQ));
        if (eq != 0) break;
      }
      while (v_at(j) != vmin) ++j;
      best = static_cast<uint32_t>(j);
      best_d = v_at(j);
    }
    assign[i] = best;
    if (dist != nullptr) dist[i] = best_d;
  }
}

#undef VECDB_AVX2

const KernelDispatch kAvx2Table = {
    KernelIsa::kAvx2, L2SqrAvx2,      InnerProductAvx2,
    L2NormSqrAvx2,    CosineAvx2,     Sq8BatchAvx2,
    Sq8GatherAvx2,    CodebookIpAvx2, CodebookNearestAvx2,
    SgemmAvx2,        NearestFromDotsAvx2,
};

}  // namespace

const KernelDispatch* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace vecdb::detail

#else  // !VECDB_KERNELS_X86_DISPATCH

namespace vecdb::detail {
const KernelDispatch* Avx2KernelTable() { return nullptr; }
}  // namespace vecdb::detail

#endif
