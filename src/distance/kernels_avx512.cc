// AVX-512F kernel tier: 16-wide float lanes with masked tails, written
// with function-level target attributes like the AVX2 tier (no -march
// flags; dispatch.cc gates on cpuid before this code ever executes).
//
// Only AVX-512F is required: float loads/FMA/reduce plus VPMOVZXBD for the
// SQ8 byte widening are all F-level, so the tier runs on every AVX-512
// machine regardless of the BW/VL/VNNI extension mix.
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

#define VECDB_AVX512 __attribute__((target("avx512f")))

VECDB_AVX512 inline __mmask16 TailMask(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

// _mm512_reduce_add_ps spelled out step for step as gcc's header does it
// (256-bit halves, then 128-bit halves, then lanes {0,1} + {2,3}, then lane
// 0 + lane 1), so sums are bit-identical to it, but with maskz extracts:
// gcc 12 expands the intrinsic's unmasked extracts with an
// _mm256_undefined_pd() passthrough that -Wuninitialized flags under
// -Werror.
VECDB_AVX512 inline float HorizontalSum(__m512 v) {
  const __m512d vd = _mm512_castps_pd(v);
  const __m256 t3 =
      _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, vd, 1)) +
      _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, vd, 0));
  const __m128 t6 = _mm256_extractf128_ps(t3, 1) + _mm256_extractf128_ps(t3, 0);
  const __m128 t8 = t6 + _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2));
  return t8[0] + t8[1];
}

// Cache-line aligned for the reason L2SqrRef is (distance/kernels.cc):
// it is the per-tuple kernel of every PASE IVF_FLAT scan on an AVX-512
// host. When a larger scalar-tier kernel moved it from 32 to 48 bytes
// past a line, perfbench pase_ivf select_p50_us read 9–25% higher in five
// of five alternating pairs with no PASE code changed.
__attribute__((aligned(64))) VECDB_AVX512 float L2SqrAvx512(const float* a,
                                                           const float* b,
                                                           size_t d) {
  // Four independent accumulators to cover the FMA latency chain (same
  // rationale as the AVX2 tier).
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    const __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 32),
                                    _mm512_loadu_ps(b + i + 32));
    const __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 48),
                                    _mm512_loadu_ps(b + i + 48));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    acc2 = _mm512_fmadd_ps(d2, d2, acc2);
    acc3 = _mm512_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 16 <= d; i += 16) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  if (i < d) {
    const __mmask16 m = TailMask(d - i);
    const __m512 d0 = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                                    _mm512_maskz_loadu_ps(m, b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  return HorizontalSum(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                     _mm512_add_ps(acc2, acc3)));
}

VECDB_AVX512 float InnerProductAvx512(const float* a, const float* b,
                                      size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                           _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                           _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < d) {
    const __mmask16 m = TailMask(d - i);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                           _mm512_maskz_loadu_ps(m, b + i), acc0);
  }
  return HorizontalSum(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                     _mm512_add_ps(acc2, acc3)));
}

VECDB_AVX512 float L2NormSqrAvx512(const float* a, size_t d) {
  return InnerProductAvx512(a, a, d);
}

VECDB_AVX512 float CosineAvx512(const float* a, const float* b, size_t d) {
  __m512 dot = _mm512_setzero_ps();
  __m512 na = _mm512_setzero_ps();
  __m512 nb = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m512 va = _mm512_loadu_ps(a + i);
    const __m512 vb = _mm512_loadu_ps(b + i);
    dot = _mm512_fmadd_ps(va, vb, dot);
    na = _mm512_fmadd_ps(va, va, na);
    nb = _mm512_fmadd_ps(vb, vb, nb);
  }
  if (i < d) {
    const __mmask16 m = TailMask(d - i);
    const __m512 va = _mm512_maskz_loadu_ps(m, a + i);
    const __m512 vb = _mm512_maskz_loadu_ps(m, b + i);
    dot = _mm512_fmadd_ps(va, vb, dot);
    na = _mm512_fmadd_ps(va, va, na);
    nb = _mm512_fmadd_ps(vb, vb, nb);
  }
  const float sdot = HorizontalSum(dot);
  const float sna = HorizontalSum(na);
  const float snb = HorizontalSum(nb);
  if (sna == 0.f || snb == 0.f) return 1.f;
  return 1.f - sdot / std::sqrt(sna * snb);
}

VECDB_AVX512 inline float Sq8OneAvx512(const float* qadj, const float* scale,
                                       size_t d, const uint8_t* code) {
  __m512 acc = _mm512_setzero_ps();
  size_t t = 0;
  for (; t + 16 <= d; t += 16) {
    // 16 code bytes widen u8 -> i32 (VPMOVZXBD) -> f32, then the diff and
    // square-accumulate are one fnmadd + one fmadd. The all-ones maskz
    // converts are the unmasked ones without an undefined passthrough
    // (see HorizontalSum).
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(code + t));
    const __m512 vcode = _mm512_maskz_cvtepi32_ps(
        0xffff, _mm512_maskz_cvtepu8_epi32(0xffff, bytes));
    const __m512 diff = _mm512_fnmadd_ps(vcode, _mm512_loadu_ps(scale + t),
                                         _mm512_loadu_ps(qadj + t));
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  float s = HorizontalSum(acc);
  // Byte tails stay scalar: a masked byte load would need AVX-512BW, and
  // this tier deliberately requires only F (see file comment).
  for (; t < d; ++t) {
    const float dt = qadj[t] - static_cast<float>(code[t]) * scale[t];
    s += dt * dt;
  }
  return s;
}

VECDB_AVX512 void Sq8BatchAvx512(const float* qadj, const float* scale,
                                 size_t d, const uint8_t* codes, size_t n,
                                 float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneAvx512(qadj, scale, d, codes + j * d);
  }
}

VECDB_AVX512 void Sq8GatherAvx512(const float* qadj, const float* scale,
                                  size_t d, const uint8_t* const* codes,
                                  size_t n, float* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = Sq8OneAvx512(qadj, scale, d, codes[j]);
  }
}

VECDB_AVX512 void CodebookIpAvx512(const float* x, const float* cb,
                                   size_t sub_dim, size_t n, float* out) {
  // Lanes across codewords: 64 codewords (four accumulators) per block,
  // then 16-wide blocks, then one masked block for the codeword tail.
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    for (size_t t = 0; t < sub_dim; ++t) {
      const __m512 xt = _mm512_set1_ps(x[t]);
      const float* row = cb + t * n + j;
      acc0 = _mm512_fmadd_ps(xt, _mm512_loadu_ps(row), acc0);
      acc1 = _mm512_fmadd_ps(xt, _mm512_loadu_ps(row + 16), acc1);
      acc2 = _mm512_fmadd_ps(xt, _mm512_loadu_ps(row + 32), acc2);
      acc3 = _mm512_fmadd_ps(xt, _mm512_loadu_ps(row + 48), acc3);
    }
    _mm512_storeu_ps(out + j, acc0);
    _mm512_storeu_ps(out + j + 16, acc1);
    _mm512_storeu_ps(out + j + 32, acc2);
    _mm512_storeu_ps(out + j + 48, acc3);
  }
  for (; j + 16 <= n; j += 16) {
    __m512 acc = _mm512_setzero_ps();
    for (size_t t = 0; t < sub_dim; ++t) {
      acc = _mm512_fmadd_ps(_mm512_set1_ps(x[t]),
                            _mm512_loadu_ps(cb + t * n + j), acc);
    }
    _mm512_storeu_ps(out + j, acc);
  }
  if (j < n) {
    const __mmask16 m = TailMask(n - j);
    __m512 acc = _mm512_setzero_ps();
    for (size_t t = 0; t < sub_dim; ++t) {
      acc = _mm512_fmadd_ps(_mm512_set1_ps(x[t]),
                            _mm512_maskz_loadu_ps(m, cb + t * n + j), acc);
    }
    _mm512_mask_storeu_ps(out + j, m, acc);
  }
}

// Minimum of the 16 lanes. min is exact, so unlike HorizontalSum the
// reduction order cannot change the result; the maskz extracts again
// avoid gcc 12's undefined-passthrough warning.
VECDB_AVX512 inline float HorizontalMin(__m512 v) {
  const __m512d vd = _mm512_castps_pd(v);
  const __m256 t3 = _mm256_min_ps(
      _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, vd, 1)),
      _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, vd, 0)));
  __m128 t =
      _mm_min_ps(_mm256_extractf128_ps(t3, 1), _mm256_castps256_ps128(t3));
  t = _mm_min_ps(t, _mm_movehl_ps(t, t));
  t = _mm_min_ss(t, _mm_shuffle_ps(t, t, 1));
  return _mm_cvtss_f32(t);
}

VECDB_AVX512 inline __mmask16 BlockMask(size_t j, size_t n) {
  return j + 16 <= n ? static_cast<__mmask16>(0xffff) : TailMask(n - j);
}

VECDB_AVX512 CodewordPick CodebookNearestAvx512(const float* x,
                                                const float* cb,
                                                const float* norms,
                                                size_t sub_dim, size_t n,
                                                float slack, uint8_t* near) {
  alignas(64) float score[256];
  CodebookIpAvx512(x, cb, sub_dim, n, score);
  // Pass 1: s = ‖c‖² − 2 x·c (2·p is exact, so this rounds once, as the
  // scalar tier does) and the running lane minimum. min(s, acc) returns
  // acc when s is NaN, so a NaN score never becomes the minimum; the
  // masked form (lanes outside m keep acc) also avoids gcc 12's
  // undefined-passthrough warning on the unmasked one.
  const __m512 two = _mm512_set1_ps(2.f);
  __m512 lane_min = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  for (size_t j = 0; j < n; j += 16) {
    const __mmask16 m = BlockMask(j, n);
    const __m512 s =
        _mm512_sub_ps(_mm512_maskz_loadu_ps(m, norms + j),
                      _mm512_mul_ps(two, _mm512_maskz_loadu_ps(m, score + j)));
    _mm512_mask_storeu_ps(score + j, m, s);
    lane_min = _mm512_mask_min_ps(lane_min, m, s, lane_min);
  }
  const float best_s = HorizontalMin(lane_min);
  // The argmin is the first codeword scoring best_s. When every score is
  // NaN none does, and best stays 0 like the scalar tier's.
  uint32_t best = 0;
  const __m512 vbest = _mm512_set1_ps(best_s);
  for (size_t j = 0; j < n; j += 16) {
    const __mmask16 m = BlockMask(j, n);
    const __mmask16 eq = _mm512_mask_cmp_ps_mask(
        m, _mm512_maskz_loadu_ps(m, score + j), vbest, _CMP_EQ_OQ);
    if (eq != 0) {
      best = static_cast<uint32_t>(j) + __builtin_ctz(eq);
      break;
    }
  }
  // Pass 2: the rounding margin, as separate multiply and add so the
  // threshold rounds like the scalar tier's.
  const __m512 base = _mm512_set1_ps(
      best_s + slack * (2.f * L2NormSqrAvx512(x, sub_dim) + norms[best]));
  const __m512 vslack = _mm512_set1_ps(slack);
  uint32_t num_near = 0;
  for (size_t j = 0; j < n; j += 16) {
    const __mmask16 m = BlockMask(j, n);
    const __m512 threshold = _mm512_add_ps(
        base, _mm512_mul_ps(vslack, _mm512_maskz_loadu_ps(m, norms + j)));
    unsigned inside = _mm512_mask_cmp_ps_mask(
        m, _mm512_maskz_loadu_ps(m, score + j), threshold, _CMP_NGT_UQ);
    for (; inside != 0; inside &= inside - 1) {
      near[num_near++] = static_cast<uint8_t>(j + __builtin_ctz(inside));
    }
  }
  return {best, num_near};
}

// SGEMM micro-kernel: an MR×(16·NS) tile of C in MR·NS accumulators held
// across the whole k loop. Per k-step: one load per strip, then one
// broadcast FMA per accumulator, so every element is the same FMA chain
// over p = 0..k-1 wherever it sits in a tile.
constexpr size_t kSgemmRowsAvx512 = 12;

template <size_t MR, size_t NS>
VECDB_AVX512 void SgemmTileAvx512(size_t k, const float* a,
                                  const float* strip, float* c, size_t ldc,
                                  size_t nc) {
  constexpr size_t NR = kSgemmStrip;
  __m512 acc[MR][NS];
#pragma GCC unroll 16
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t s = 0; s < NS; ++s) acc[r][s] = _mm512_setzero_ps();
  }
  for (size_t p = 0; p < k; ++p) {
    __m512 b[NS];
#pragma GCC unroll 4
    for (size_t s = 0; s < NS; ++s) {
      b[s] = _mm512_loadu_ps(strip + s * k * NR + p * NR);
    }
#pragma GCC unroll 16
    for (size_t r = 0; r < MR; ++r) {
      const __m512 ar = _mm512_set1_ps(a[r * k + p]);
#pragma GCC unroll 4
      for (size_t s = 0; s < NS; ++s) {
        acc[r][s] = _mm512_fmadd_ps(ar, b[s], acc[r][s]);
      }
    }
  }
#pragma GCC unroll 16
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t s = 0; s < NS; ++s) {
      _mm512_mask_storeu_ps(c + r * ldc + s * NR, BlockMask(s * NR, nc),
                            acc[r][s]);
    }
  }
}

using SgemmTileFn = void (*)(size_t, const float*, const float*, float*,
                             size_t, size_t);

template <size_t NS, size_t... R>
constexpr std::array<SgemmTileFn, sizeof...(R)> SgemmTilesAvx512(
    std::index_sequence<R...>) {
  return {&SgemmTileAvx512<R + 1, NS>...};
}

VECDB_AVX512 void SgemmAvx512(size_t m, size_t n, size_t k, const float* a,
                              const float* strips, float* c) {
  // Tiles by row count (index mr − 1), one strip wide and two.
  static constexpr auto kOne =
      SgemmTilesAvx512<1>(std::make_index_sequence<kSgemmRowsAvx512>());
  static constexpr auto kTwo =
      SgemmTilesAvx512<2>(std::make_index_sequence<kSgemmRowsAvx512>());
  constexpr size_t NR = kSgemmStrip;
  // 128-column blocks of B stay cache-resident while every row passes.
  constexpr size_t kBlockN = 8 * NR;
  for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const size_t jend = std::min(n, j0 + kBlockN);
    for (size_t i0 = 0; i0 < m; i0 += kSgemmRowsAvx512) {
      const size_t mr = std::min(kSgemmRowsAvx512, m - i0);
      for (size_t j = j0; j < jend; j += 2 * NR) {
        const size_t nc = std::min(2 * NR, jend - j);
        (nc > NR ? kTwo : kOne)[mr - 1](k, a + i0 * k, strips + j * k,
                                        c + i0 * n + j, n, nc);
      }
    }
  }
}

// v = (xn + yn) − 2·dot clamped at 0, NaN kept, lanes outside m zero.
VECDB_AVX512 inline __m512 ClampedL2FromDots(__m512 xn, const float* yn,
                                             const float* dots,
                                             __mmask16 m) {
  const __m512 d = _mm512_maskz_loadu_ps(m, dots);
  const __m512 v = _mm512_sub_ps(
      _mm512_add_ps(xn, _mm512_maskz_loadu_ps(m, yn)), _mm512_add_ps(d, d));
  const __m512 zero = _mm512_setzero_ps();
  return _mm512_mask_mov_ps(v, _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ),
                            zero);
}

VECDB_AVX512 void NearestFromDotsAvx512(const float* dots, size_t m, size_t n,
                                        const float* x_norms,
                                        const float* y_norms,
                                        uint32_t* assign, float* dist) {
  for (size_t i = 0; i < m; ++i) {
    const float* row = dots + i * n;
    const float xn = x_norms[i];
    uint32_t best = 0;
    float best_d = std::max(xn + y_norms[0] - 2.f * row[0], 0.f);
    if (!std::isnan(best_d)) {
      // Lane minimum; min(v, acc) keeps acc when v is NaN.
      const __m512 vxn = _mm512_set1_ps(xn);
      __m512 lane_min =
          _mm512_set1_ps(std::numeric_limits<float>::infinity());
      for (size_t j = 0; j < n; j += 16) {
        const __mmask16 mk = BlockMask(j, n);
        lane_min = _mm512_mask_min_ps(
            lane_min, mk, ClampedL2FromDots(vxn, y_norms + j, row + j, mk),
            lane_min);
      }
      // The first j scoring the minimum; v_0 is not NaN, so one does.
      const __m512 vmin = _mm512_set1_ps(HorizontalMin(lane_min));
      for (size_t j = 0; j < n; j += 16) {
        const __mmask16 mk = BlockMask(j, n);
        const __mmask16 eq = _mm512_mask_cmp_ps_mask(
            mk, ClampedL2FromDots(vxn, y_norms + j, row + j, mk), vmin,
            _CMP_EQ_OQ);
        if (eq != 0) {
          best = static_cast<uint32_t>(j) + __builtin_ctz(eq);
          break;
        }
      }
      best_d = std::max(xn + y_norms[best] - 2.f * row[best], 0.f);
    }
    assign[i] = best;
    if (dist != nullptr) dist[i] = best_d;
  }
}

#undef VECDB_AVX512

const KernelDispatch kAvx512Table = {
    KernelIsa::kAvx512, L2SqrAvx512,      InnerProductAvx512,
    L2NormSqrAvx512,    CosineAvx512,     Sq8BatchAvx512,
    Sq8GatherAvx512,    CodebookIpAvx512, CodebookNearestAvx512,
    SgemmAvx512,        NearestFromDotsAvx512,
};

}  // namespace

const KernelDispatch* Avx512KernelTable() { return &kAvx512Table; }

}  // namespace vecdb::detail

#else  // !VECDB_KERNELS_X86_DISPATCH

namespace vecdb::detail {
const KernelDispatch* Avx512KernelTable() { return nullptr; }
}  // namespace vecdb::detail

#endif
