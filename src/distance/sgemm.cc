#include "distance/sgemm.h"

#include <algorithm>
#include <vector>

#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace vecdb {

namespace {
// Packs Bᵀ into the dispatched kernel's column strips: rows [j0, j0+16) of
// B land at out + j0*k as a k×16 block, contiguous in j, zero past n.
void PackTransB(const float* b, size_t n, size_t k, float* out) {
  for (size_t j0 = 0; j0 < n; j0 += kSgemmStrip) {
    const size_t nc = std::min(kSgemmStrip, n - j0);
    float* strip = out + j0 * k;
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < kSgemmStrip; ++j) {
        strip[p * kSgemmStrip + j] = j < nc ? b[(j0 + j) * k + p] : 0.f;
      }
    }
  }
}

size_t PackedSize(size_t n, size_t k) {
  return (n + kSgemmStrip - 1) / kSgemmStrip * kSgemmStrip * k;
}

void MultiplyPacked(size_t m, size_t n, size_t k, const float* a,
                    const float* strips, float* c) {
  obs::MetricsRegistry::Global().Add(obs::Counter::kSgemmCalls);
  ActiveKernels().sgemm(m, n, k, a, strips, c);
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
  AlignedFloats strips(PackedSize(n, k));
  PackTransB(b, n, k, strips.data());
  MultiplyPacked(m, n, k, a, strips.data(), c);
}

PackedCodebook::PackedCodebook(const float* b, size_t n, size_t k)
    : n_(n), k_(k), strips_(PackedSize(n, k)), norms_(n) {
  PackTransB(b, n, k, strips_.data());
  RowNormsSqr(b, n, k, norms_.data());
}

void SgemmTransB(size_t m, const float* a, const PackedCodebook& b, float* c) {
  MultiplyPacked(m, b.rows(), b.dim(), a, b.strips(), c);
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
