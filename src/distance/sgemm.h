// Hand-written cache-blocked SGEMM. The offline build has no BLAS, so this
// stands in for the library Faiss calls through (paper RC#1). What matters
// for reproducing RC#1 is the algorithmic restructuring: computing all
// centroid-vector distances via ‖x‖² + ‖c‖² − 2·x·c with one matrix-matrix
// product and precomputed norms, instead of a per-pair L2 loop.
#pragma once

#include <cstddef>

#include "common/aligned_buffer.h"

namespace vecdb {

/// C (m×n, row-major) = A (m×k, row-major) · Bᵀ where B is (n×k, row-major).
///
/// The B-transposed convention matches vector-search use: A holds queries or
/// base vectors, B holds centroids, both stored row-major with dimension k.
/// Packs Bᵀ into 16-column strips, then runs the dispatched register-blocked
/// kernel (KernelDispatch::sgemm): rows of C are independent bit for bit,
/// so a row's products do not depend on m or on the row's place in A.
void SgemmTransB(size_t m, size_t n, size_t k, const float* a, const float* b,
                 float* c);

/// A row-major B (n×k) prepared once for repeated products against it: the
/// Bᵀ strips SgemmTransB packs on every call, plus B's squared row norms.
/// An IVF codebook is packed where it is set, so a one-row insert pays for
/// neither the repack nor the norm pass. In-memory only, never serialized.
class PackedCodebook {
 public:
  PackedCodebook() = default;
  PackedCodebook(const float* b, size_t n, size_t k);

  size_t rows() const { return n_; }
  size_t dim() const { return k_; }
  const float* strips() const { return strips_.data(); }
  const float* norms() const { return norms_.data(); }

 private:
  size_t n_ = 0;
  size_t k_ = 0;
  AlignedFloats strips_;  ///< Bᵀ, one 16-column k×16 strip after another
  AlignedFloats norms_;   ///< n squared L2 row norms
};

/// SgemmTransB(m, b.rows(), b.dim(), a, B, c) against the prepacked B,
/// bit-identical to it: the same strips feed the same kernel.
void SgemmTransB(size_t m, const float* a, const PackedCodebook& b, float* c);

/// Computes squared L2 norms of `n` row-major k-dim vectors into `out[n]`.
void RowNormsSqr(const float* x, size_t n, size_t k, float* out);

/// All-pairs squared L2 distances via the SGEMM decomposition:
/// out[i*ny + j] = ‖x_i‖² + ‖y_j‖² − 2 x_i·y_j.
///
/// `x_norms` / `y_norms` may be null, in which case norms are computed
/// internally; pass precomputed norms to amortize across calls (this is the
/// "store those items in a table" optimization the paper describes).
void AllPairsL2Sqr(const float* x, size_t nx, const float* y, size_t ny,
                   size_t d, const float* x_norms, const float* y_norms,
                   float* out);

/// AllPairsL2Sqr(x, nx, B, b.rows(), b.dim(), x_norms, b.norms(), out)
/// against a prepacked B, bit-identical to it.
void AllPairsL2Sqr(const float* x, size_t nx, const PackedCodebook& y,
                   const float* x_norms, float* out);

/// Reference all-pairs distances via the per-pair kernel (the PASE way).
/// Used by tests and the SGEMM-disabled benchmark configurations.
void AllPairsL2SqrNaive(const float* x, size_t nx, const float* y, size_t ny,
                        size_t d, float* out);

}  // namespace vecdb
