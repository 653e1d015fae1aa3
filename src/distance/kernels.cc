// Public kernel entry points. These keep the historic signatures but now
// forward through the runtime-resolved dispatch table (distance/dispatch.h),
// so every caller picks up the widest ISA tier the host supports without a
// call-site edit. L2SqrRef stays here untouched: it is the deliberately
// scalar PASE reference kernel the paper profiles, never dispatched.
#include "distance/kernels.h"

#include "distance/dispatch.h"

namespace vecdb {

float L2Sqr(const float* a, const float* b, size_t d) {
  return ActiveKernels().l2sqr(a, b, d);
}

// Cache-line aligned because the loop is short enough that its placement
// decides whether it straddles a 64-byte line. When an unrelated change
// in code size made it straddle one, PASE k-means and the PASE adding
// phase ran about 1.6x slower (perfbench pase_ivf, AVX-512 Xeon host).
// Pinning the alignment keeps the paper's baseline independent of the
// layout.
__attribute__((optimize("no-tree-vectorize", "no-unroll-loops"), aligned(64)))
float L2SqrRef(const float* a, const float* b, size_t d) {
  float s = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

float InnerProduct(const float* a, const float* b, size_t d) {
  return ActiveKernels().inner_product(a, b, d);
}

float L2NormSqr(const float* a, size_t d) {
  return ActiveKernels().l2norm_sqr(a, d);
}

float CosineDistance(const float* a, const float* b, size_t d) {
  return ActiveKernels().cosine(a, b, d);
}

float Distance(Metric metric, const float* a, const float* b, size_t d) {
  const KernelDispatch& k = ActiveKernels();
  switch (metric) {
    case Metric::kL2:
      return k.l2sqr(a, b, d);
    case Metric::kInnerProduct:
      return -k.inner_product(a, b, d);
    case Metric::kCosine:
      return k.cosine(a, b, d);
  }
  return 0.f;
}

void DistanceBatch(Metric metric, const float* query, const float* base,
                   size_t n, size_t d, float* out) {
  // Hoist the table once per batch instead of re-reading the dispatch
  // static per vector.
  const KernelDispatch& k = ActiveKernels();
  switch (metric) {
    case Metric::kL2:
      for (size_t i = 0; i < n; ++i) out[i] = k.l2sqr(query, base + i * d, d);
      return;
    case Metric::kInnerProduct:
      for (size_t i = 0; i < n; ++i) {
        out[i] = -k.inner_product(query, base + i * d, d);
      }
      return;
    case Metric::kCosine:
      for (size_t i = 0; i < n; ++i) out[i] = k.cosine(query, base + i * d, d);
      return;
  }
}

std::string_view MetricName(Metric m) {
  switch (m) {
    case Metric::kL2:
      return "l2";
    case Metric::kInnerProduct:
      return "ip";
    case Metric::kCosine:
      return "cosine";
  }
  return "unknown";
}

}  // namespace vecdb
