// Runtime ISA dispatch for the distance kernels. The paper pins PASE's
// build/search gap on its scalar fvec_L2sqr_ref kernel (RC#1); this layer
// is the other end of that axis: one dispatch table resolved at first use
// from cpuid (scalar / AVX2+FMA / AVX-512F), so every index class gets the
// widest kernels the host can run without a single call-site edit and
// without baking -march flags into the build (the binary stays portable,
// like the CRC-32C dispatch in pgstub/crc32c.cc).
//
// The resolved tier can be forced down with the VECDB_KERNEL_ISA
// environment variable ("scalar", "avx2", "avx512"), read once at first
// kernel use. Forcing a tier the host cannot run falls back to the best
// supported tier with a one-time stderr notice — an override never turns
// into a SIGILL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace vecdb {

/// Kernel instruction-set tiers, widest last. kScalar is the portable
/// baseline (auto-vectorized to the x86-64 SSE2 floor by the compiler).
enum class KernelIsa : uint8_t {
  kScalar = 0,
  kAvx2 = 1,    ///< AVX2 + FMA, 8-wide float lanes
  kAvx512 = 2,  ///< AVX-512F, 16-wide float lanes with masked tails
};

/// Canonical lowercase tier name ("scalar", "avx2", "avx512"); also the
/// accepted VECDB_KERNEL_ISA values.
const char* KernelIsaName(KernelIsa isa);

/// What codebook_nearest found for one sub-vector.
struct CodewordPick {
  uint32_t best;      ///< argmin of ‖c‖² − 2 x·c, lowest index on ties
  uint32_t num_near;  ///< codewords written to `near` (≥ 1: best is one)
};

/// Column-strip width of a packed SGEMM B operand (see
/// KernelDispatch::sgemm): B's rows are packed 16 at a time as k×16 blocks.
constexpr size_t kSgemmStrip = 16;

/// One tier's kernel implementations. Float kernels mirror the public
/// functions in kernels.h; the sq8_* entries are the quantized fast-scan
/// family consumed through ScalarQuantizer8 (quantizer/sq8.h), and
/// codebook_ip and codebook_nearest are consumed through ProductQuantizer
/// (quantizer/pq.h).
///
/// Contract shared by every tier: each output element depends only on its
/// own input pair/code (lane blocking runs along the dimension, never
/// across codes), so batch results are bit-identical to one-at-a-time
/// calls within a tier — the property the SQ8 oracle tests pin.
///
/// The one exception is the codebook family: the codebook is stored
/// dim-major, so lanes run across codewords and each inner product
/// accumulates its dimensions in order. A product still depends only on
/// its own codeword, but its rounding differs from an inner_product call
/// on the same pair; it is within 1e-5 relative of it, and the PQ encoder
/// re-scores near ties with l2sqr (see ProductQuantizer::Encode).
/// codebook_nearest scores with exactly codebook_ip's products, so the two
/// entries agree bit for bit within a tier.
struct KernelDispatch {
  KernelIsa isa;

  float (*l2sqr)(const float* a, const float* b, size_t d);
  float (*inner_product)(const float* a, const float* b, size_t d);
  float (*l2norm_sqr)(const float* a, size_t d);
  /// Fused single-pass cosine distance: dot, |a|², |b|² accumulated in one
  /// sweep (the pre-dispatch implementation made three passes).
  float (*cosine)(const float* a, const float* b, size_t d);

  /// Asymmetric SQ8 L2 fast scan over `n` contiguous d-byte codes:
  /// out[j] = sum_t (qadj[t] - codes[j*d+t] * scale[t])², where qadj is
  /// the query pre-expanded per dimension (see ScalarQuantizer8::
  /// PrepareQuery). Codes widen u8 -> f32 in SIMD lanes.
  void (*sq8_l2_batch)(const float* qadj, const float* scale, size_t d,
                       const uint8_t* codes, size_t n, float* out);
  /// Same kernel over `n` non-contiguous codes addressed by pointer — the
  /// page-resident (PASE) scan shape, where codes sit behind tuple
  /// headers. Bit-identical to sq8_l2_batch on the same codes.
  void (*sq8_l2_gather)(const float* qadj, const float* scale, size_t d,
                        const uint8_t* const* codes, size_t n, float* out);

  /// Inner products of one sub-vector `x` (sub_dim floats) with all `n`
  /// codewords of a dim-major codebook: out[j] = sum_t x[t] * cb[t*n + j].
  /// The Faiss fvec_inner_products_ny role, with lanes across codewords
  /// (the contract exception above); PQ encode and the optimized ADC
  /// table run on it (paper RC#1/RC#7).
  void (*codebook_ip)(const float* x, const float* cb, size_t sub_dim,
                      size_t n, float* out);

  /// Nearest codeword of one sub-vector `x` among the `n` ≤ 256 codewords
  /// of a dim-major codebook, with `norms[j]` = ‖c_j‖²: the PQ encode
  /// search in one call (Faiss's batched nearest-codeword role, RC#1).
  /// Scores s_j = norms[j] − 2·p_j, where p is exactly what codebook_ip
  /// returns (lanes across codewords). Returns the argmin of s, the lowest
  /// index on ties, and writes to `near`, ascending, every j inside the
  /// rounding margin
  ///   s_j ≤ (s_best + slack·(2·‖x‖² + norms[best])) + slack·norms[j]
  /// with ‖x‖² from this tier's l2norm_sqr and each product and sum
  /// rounded as written (a NaN score counts as inside). `near` must hold
  /// n indices.
  CodewordPick (*codebook_nearest)(const float* x, const float* cb,
                                   const float* norms, size_t sub_dim,
                                   size_t n, float slack, uint8_t* near);

  /// C (m×n, row-major) = A (m×k, row-major) · Bᵀ for a B (n×k) packed
  /// into ⌈n/16⌉ column strips: strip s holds rows [16s, 16s+16) of B as a
  /// k×16 block (strips + s·16·k, element [p][j] = B[16s + j][p]), zero
  /// past n. Writes every element of C. The SGEMM Faiss calls for batched
  /// assignment (paper RC#1), behind PackedCodebook (distance/sgemm.h).
  ///
  /// Each tier keeps an MR×NR tile of C in registers across the whole k
  /// loop, and every C element is the same operation sequence over its own
  /// row of A and column of B whatever its place in a tile and whatever m
  /// and n are: rows are independent, bit for bit. The scalar tier sums
  /// c += a0·b0 + a1·b1 + a2·b2 + a3·b3 per four k-steps (restarting the
  /// groups every 256), without FMA; the SIMD tiers run one FMA per k-step.
  /// Across tiers only approximate parity holds.
  void (*sgemm)(size_t m, size_t n, size_t k, const float* a,
                const float* strips, float* c);

  /// The SGEMM assignment's argmin: for each of `m` rows of n ≥ 1 dot
  /// products (row i at dots + i·n), the first j minimizing
  ///   v_j = (x_norms[i] + y_norms[j]) − 2·dots[i·n + j], clamped at 0,
  /// into assign[i], and v at it into dist[i] when dist is not null. A NaN
  /// v is never the minimum unless it is v_0, which then stands. Every
  /// tier computes each v with the same roundings, so the picks agree bit
  /// for bit across tiers on the same dots.
  void (*nearest_from_dots)(const float* dots, size_t m, size_t n,
                            const float* x_norms, const float* y_norms,
                            uint32_t* assign, float* dist);
};

/// The table serving this process, resolved once at first use:
/// best-supported tier, clamped down by VECDB_KERNEL_ISA if set.
const KernelDispatch& ActiveKernels();

/// Tier of the table ActiveKernels() resolved to (for SHOW METRICS /
/// diagnostics).
KernelIsa ActiveKernelIsa();

/// True when `isa` is both compiled in and runnable on this CPU.
bool KernelIsaSupported(KernelIsa isa);

/// The dispatch table for one specific tier, or nullptr when the host
/// cannot run it. Lets tests and micro benches drive every supported tier
/// side by side regardless of which one is active.
const KernelDispatch* KernelTableFor(KernelIsa isa);

/// Pure resolution rule, exposed for tests: applies `override_value` (the
/// VECDB_KERNEL_ISA string, may be null) to the host's best tier. An
/// unknown value or a tier the host lacks keeps `best` and explains why
/// in `note`; a recognized, supported value selects it (notes stay empty
/// for a plain downgrade, which is the supported use).
KernelIsa ResolveKernelIsa(const char* override_value, KernelIsa best,
                           std::string* note);

}  // namespace vecdb
