#include "distance/sgemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb {

namespace {
// Panel sizes: a packed B panel (kBlockK x kBlockN floats = 128KB) plus the
// active C rows stay cache-resident.
constexpr size_t kBlockN = 128;
constexpr size_t kBlockK = 256;

// Packed outer-product update: crow[0..nc) += sum_p a[p] * bpack[p][0..nc).
// The inner loops are contiguous over j, which GCC vectorizes with FMA.
inline void RankUpdateRow(size_t kc, size_t nc, const float* a_row,
                          const float* bpack, float* crow) {
  size_t p = 0;
  for (; p + 4 <= kc; p += 4) {
    const float a0 = a_row[p];
    const float a1 = a_row[p + 1];
    const float a2 = a_row[p + 2];
    const float a3 = a_row[p + 3];
    const float* b0 = bpack + p * nc;
    const float* b1 = b0 + nc;
    const float* b2 = b1 + nc;
    const float* b3 = b2 + nc;
    for (size_t j = 0; j < nc; ++j) {
      crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
  }
  for (; p < kc; ++p) {
    const float ap = a_row[p];
    const float* bp = bpack + p * nc;
    for (size_t j = 0; j < nc; ++j) crow[j] += ap * bp[j];
  }
}

// Packs Bᵀ one kBlockN-column panel at a time: columns [j0, j0+nc) land at
// out + j0*k as a k×nc block, contiguous in j. Its kBlockK-deep slice at k0
// is then the kc×nc panel RankUpdateRow reads, at out + j0*k + k0*nc.
void PackTransB(const float* b, size_t n, size_t k, float* out) {
  for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const size_t nc = std::min(kBlockN, n - j0);
    float* panel = out + j0 * k;
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < nc; ++j) panel[p * nc + j] = b[(j0 + j) * k + p];
    }
  }
}

void MultiplyPacked(size_t m, size_t n, size_t k, const float* a,
                    const float* panels, float* c) {
  obs::MetricsRegistry::Global().Add(obs::Counter::kSgemmCalls);
  std::memset(c, 0, m * n * sizeof(float));
  for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const size_t nc = std::min(kBlockN, n - j0);
    for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const size_t kc = std::min(kBlockK, k - k0);
      const float* bpack = panels + j0 * k + k0 * nc;
      for (size_t i = 0; i < m; ++i) {
        RankUpdateRow(kc, nc, a + i * k + k0, bpack, c + i * n + j0);
      }
    }
  }
}

// out[i*ny + j] = ‖x_i‖² + ‖y_j‖² − 2·out[i*ny + j], over the dot products
// already in `out`.
void DotsToL2Sqr(size_t nx, size_t ny, const float* x_norms,
                 const float* y_norms, float* out) {
  for (size_t i = 0; i < nx; ++i) {
    float* row = out + i * ny;
    const float xn = x_norms[i];
    for (size_t j = 0; j < ny; ++j) {
      // Clamp: the decomposition can go slightly negative in float.
      const float v = xn + y_norms[j] - 2.f * row[j];
      row[j] = v < 0.f ? 0.f : v;
    }
  }
}
}  // namespace

void SgemmTransB(size_t m, size_t n, size_t k, const float* a, const float* b,
                 float* c) {
  AlignedFloats panels(n * k);
  PackTransB(b, n, k, panels.data());
  MultiplyPacked(m, n, k, a, panels.data(), c);
}

PackedCodebook::PackedCodebook(const float* b, size_t n, size_t k)
    : n_(n), k_(k), panels_(n * k), norms_(n) {
  PackTransB(b, n, k, panels_.data());
  RowNormsSqr(b, n, k, norms_.data());
}

void SgemmTransB(size_t m, const float* a, const PackedCodebook& b, float* c) {
  MultiplyPacked(m, b.rows(), b.dim(), a, b.panels(), c);
}

void RowNormsSqr(const float* x, size_t n, size_t k, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = L2NormSqr(x + i * k, k);
}

void AllPairsL2Sqr(const float* x, size_t nx, const float* y, size_t ny,
                   size_t d, const float* x_norms, const float* y_norms,
                   float* out) {
  std::vector<float> xn_local, yn_local;
  if (x_norms == nullptr) {
    xn_local.resize(nx);
    RowNormsSqr(x, nx, d, xn_local.data());
    x_norms = xn_local.data();
  }
  if (y_norms == nullptr) {
    yn_local.resize(ny);
    RowNormsSqr(y, ny, d, yn_local.data());
    y_norms = yn_local.data();
  }
  SgemmTransB(nx, ny, d, x, y, out);
  DotsToL2Sqr(nx, ny, x_norms, y_norms, out);
}

void AllPairsL2Sqr(const float* x, size_t nx, const PackedCodebook& y,
                   const float* x_norms, float* out) {
  std::vector<float> xn_local;
  if (x_norms == nullptr) {
    xn_local.resize(nx);
    RowNormsSqr(x, nx, y.dim(), xn_local.data());
    x_norms = xn_local.data();
  }
  SgemmTransB(nx, x, y, out);
  DotsToL2Sqr(nx, y.rows(), x_norms, y.norms(), out);
}

void AllPairsL2SqrNaive(const float* x, size_t nx, const float* y, size_t ny,
                        size_t d, float* out) {
  for (size_t i = 0; i < nx; ++i) {
    for (size_t j = 0; j < ny; ++j) {
      out[i * ny + j] = L2Sqr(x + i * d, y + j * d, d);
    }
  }
}

}  // namespace vecdb
