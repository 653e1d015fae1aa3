#include "clustering/kmeans.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"

namespace vecdb {

namespace {

// Batched SGEMM assignment processes vectors in tiles of at most this many
// rows so the distance matrix stays cache-resident.
constexpr size_t kAssignTile = 1024;

}  // namespace

void AssignToNearest(const float* data, size_t n, size_t d,
                     const float* centroids, uint32_t num_clusters,
                     bool use_sgemm, uint32_t* out_assign, float* out_dist) {
  if (use_sgemm) {
    AssignToNearest(data, n, PackedCodebook(centroids, num_clusters, d),
                    out_assign, out_dist);
    return;
  }
  // The PASE adding path: one reference scalar kernel call per
  // (vector, centroid) pair — the fvec_L2sqr_ref bottleneck of Fig 3.
  for (size_t i = 0; i < n; ++i) {
    const float* x = data + i * d;
    uint32_t best = 0;
    float best_d = std::numeric_limits<float>::infinity();
    for (uint32_t j = 0; j < num_clusters; ++j) {
      const float dist = L2SqrRef(x, centroids + j * d, d);
      if (dist < best_d) {
        best_d = dist;
        best = j;
      }
    }
    out_assign[i] = best;
    if (out_dist != nullptr) out_dist[i] = best_d;
  }
}

void AssignToNearest(const float* data, size_t n,
                     const PackedCodebook& codebook, uint32_t* out_assign,
                     float* out_dist) {
  if (n == 0) return;
  const size_t d = codebook.dim();
  const size_t c = codebook.rows();
  const size_t tile = std::min(kAssignTile, n);
  std::vector<float> dots(tile * c);
  std::vector<float> x_norms(tile);
  for (size_t t0 = 0; t0 < n; t0 += tile) {
    const size_t nb = std::min(tile, n - t0);
    RowNormsSqr(data + t0 * d, nb, d, x_norms.data());
    SgemmTransB(nb, data + t0 * d, codebook, dots.data());
    ActiveKernels().nearest_from_dots(
        dots.data(), nb, c, x_norms.data(), codebook.norms(),
        out_assign + t0, out_dist != nullptr ? out_dist + t0 : nullptr);
  }
}

Result<KMeansModel> TrainKMeans(const float* data, size_t n, size_t d,
                                const KMeansOptions& options) {
  if (data == nullptr || n == 0 || d == 0) {
    return Status::InvalidArgument("TrainKMeans: empty input");
  }
  const uint32_t c = options.num_clusters;
  if (c == 0) return Status::InvalidArgument("TrainKMeans: num_clusters == 0");
  if (c > n) {
    return Status::InvalidArgument(
        "TrainKMeans: more clusters than vectors (c=" + std::to_string(c) +
        ", n=" + std::to_string(n) + ")");
  }
  if (options.sample_ratio <= 0.0 || options.sample_ratio > 1.0) {
    return Status::InvalidArgument("TrainKMeans: sample_ratio out of (0,1]");
  }

  Rng rng(options.seed);

  // --- Sampling phase: sr * n vectors, at least one per cluster.
  size_t sample_n =
      std::max<size_t>(c, static_cast<size_t>(options.sample_ratio * n));
  sample_n = std::min(sample_n, n);
  AlignedFloats sample(sample_n * d);
  {
    auto picks = rng.SampleWithoutReplacement(static_cast<uint32_t>(n),
                                              static_cast<uint32_t>(sample_n));
    if (options.style == KMeansStyle::kPaseStyle) {
      // PASE scans pages in order; keep the sample in storage order.
      std::sort(picks.begin(), picks.end());
    }
    for (size_t i = 0; i < sample_n; ++i) {
      std::memcpy(sample.data() + i * d, data + static_cast<size_t>(picks[i]) * d,
                  d * sizeof(float));
    }
  }

  KMeansModel model;
  model.num_clusters = c;
  model.dim = static_cast<uint32_t>(d);
  model.centroids.Resize(static_cast<size_t>(c) * d);

  if (options.style == KMeansStyle::kFaissStyle) {
    // Random-permutation seeding from the sample (as Faiss does).
    auto seeds =
        rng.SampleWithoutReplacement(static_cast<uint32_t>(sample_n), c);
    for (uint32_t j = 0; j < c; ++j) {
      std::memcpy(model.centroids.data() + static_cast<size_t>(j) * d,
                  sample.data() + static_cast<size_t>(seeds[j]) * d,
                  d * sizeof(float));
    }
  } else {
    // PASE-style: first k sampled vectors seed the codebook.
    std::memcpy(model.centroids.data(), sample.data(),
                static_cast<size_t>(c) * d * sizeof(float));
  }

  std::vector<uint32_t> assign(sample_n);
  std::vector<float> dist(sample_n);
  std::vector<double> sums(static_cast<size_t>(c) * d);
  std::vector<uint32_t> counts(c);
  const bool sgemm =
      options.style == KMeansStyle::kFaissStyle && options.use_sgemm;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    AssignToNearest(sample.data(), sample_n, d, model.centroids.data(), c,
                    sgemm, assign.data(), dist.data());
    double inertia = 0.0;
    for (size_t i = 0; i < sample_n; ++i) inertia += dist[i];
    model.inertia = inertia;
    model.iterations = iter + 1;

    // --- Update phase.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < sample_n; ++i) {
      const uint32_t j = assign[i];
      ++counts[j];
      const float* x = sample.data() + i * d;
      double* s = sums.data() + static_cast<size_t>(j) * d;
      for (size_t t = 0; t < d; ++t) s[t] += x[t];
    }
    for (uint32_t j = 0; j < c; ++j) {
      if (counts[j] == 0) continue;
      float* cj = model.centroids.data() + static_cast<size_t>(j) * d;
      const double* s = sums.data() + static_cast<size_t>(j) * d;
      const double inv = 1.0 / counts[j];
      for (size_t t = 0; t < d; ++t) cj[t] = static_cast<float>(s[t] * inv);
    }

    if (options.style == KMeansStyle::kFaissStyle) {
      // Repair empty clusters by splitting the most populated one: copy its
      // centroid with a tiny symmetric perturbation (Faiss's strategy).
      for (uint32_t j = 0; j < c; ++j) {
        if (counts[j] != 0) continue;
        const uint32_t big = static_cast<uint32_t>(
            std::max_element(counts.begin(), counts.end()) - counts.begin());
        if (counts[big] < 2) break;
        float* dst = model.centroids.data() + static_cast<size_t>(j) * d;
        float* src = model.centroids.data() + static_cast<size_t>(big) * d;
        const float eps = 1.f / 1024.f;
        for (size_t t = 0; t < d; ++t) {
          dst[t] = src[t] * (1.f + eps);
          src[t] = src[t] * (1.f - eps);
        }
        counts[j] = counts[big] / 2;
        counts[big] -= counts[j];
      }
    }
  }

  return model;
}

}  // namespace vecdb
