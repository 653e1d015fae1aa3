// K-means training for IVF indexes. Two deliberately different
// implementations reproduce the paper's RC#5 ("PASE and Faiss use a slightly
// different implementation of K-means"), which shifts centroids and hence
// clustering quality and search cost. The Faiss-style variant also exercises
// RC#1: its assignment step can route through the SGEMM decomposition.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "distance/sgemm.h"

namespace vecdb {

/// Which system's K-means behaviour to emulate.
enum class KMeansStyle : uint8_t {
  /// Faiss-like: random-permutation seeding from the sample, SGEMM-based
  /// assignment, empty clusters repaired by splitting the largest cluster.
  kFaissStyle = 0,
  /// PASE-like: first-k seeding, per-pair distance assignment, empty
  /// clusters left empty (centroid unchanged).
  kPaseStyle = 1,
};

/// Tuning knobs for TrainKMeans. Field names follow the paper's Table II.
struct KMeansOptions {
  uint32_t num_clusters = 256;   ///< c — codebook size
  int max_iterations = 10;       ///< Lloyd iterations over the sample
  double sample_ratio = 0.01;    ///< sr — fraction of base vectors trained on
  KMeansStyle style = KMeansStyle::kFaissStyle;
  bool use_sgemm = true;         ///< Faiss-style only: batched assignment
  uint64_t seed = 42;            ///< PRNG seed for sampling/seeding
};

/// Trained codebook plus convergence diagnostics.
struct KMeansModel {
  AlignedFloats centroids;  ///< num_clusters * dim floats, row-major
  uint32_t num_clusters = 0;
  uint32_t dim = 0;
  double inertia = 0.0;  ///< final sum of squared distances on the sample
  int iterations = 0;    ///< Lloyd iterations actually run

  const float* centroid(uint32_t c) const { return centroids.data() + c * dim; }
};

/// Trains a codebook on a sample of `n` row-major d-dim vectors.
///
/// Sampling: `max(num_clusters, sr*n)` vectors drawn without replacement.
/// Fails with InvalidArgument when inputs are degenerate (n == 0, d == 0,
/// num_clusters == 0, or num_clusters > n).
Result<KMeansModel> TrainKMeans(const float* data, size_t n, size_t d,
                                const KMeansOptions& options);

/// Assigns each of `n` vectors to its nearest centroid.
///
/// `use_sgemm` selects the batched decomposition (Faiss add phase, RC#1)
/// versus the per-pair loop (PASE add phase). `out_assign` receives `n`
/// cluster ids; `out_dist` (optional) the squared distances. The SGEMM
/// path packs the centroids once per call and then runs the overload below.
void AssignToNearest(const float* data, size_t n, size_t d,
                     const float* centroids, uint32_t num_clusters,
                     bool use_sgemm, uint32_t* out_assign, float* out_dist);

/// The SGEMM path against a codebook packed where it was set (the
/// faisslike IVF indexes): no per-call repack or centroid-norm pass, and
/// distance tiles sized to the batch (at most 1,024 rows), so a one-row
/// insert costs its 1×c product. Assignments and distances are
/// bit-identical to the per-call SGEMM path.
void AssignToNearest(const float* data, size_t n,
                     const PackedCodebook& codebook, uint32_t* out_assign,
                     float* out_dist);

}  // namespace vecdb
