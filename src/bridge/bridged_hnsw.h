// Bridged HNSW (paper §IX-C, Step#1 + Step#5 applied to the graph index):
// the authoritative graph lives in memory (built and searched with the
// specialized algorithm and 4-byte neighbor ids), while a page-resident
// persistence image is written with a memory-centric layout — adjacency
// lists packed many-per-page, optionally with compact 4-byte entries —
// eliminating the two causes of the paper's Fig 13 space blow-up (RC#4).
#pragma once

#include <cstdint>
#include <string>

#include "core/index.h"
#include "faisslike/hnsw.h"
#include "pase/pase_common.h"

namespace vecdb::bridge {

/// Layout toggles for the persisted image (ablation of Fig 13's causes).
struct BridgedHnswOptions {
  uint32_t bnn = 16;
  uint32_t efb = 40;
  uint64_t seed = 42;
  std::string rel_prefix = "bridged_hnsw";

  /// Pack many adjacency lists per page instead of PASE's page-per-vertex.
  bool pack_pages = true;
  /// Store 4-byte neighbor ids instead of 24-byte HnswNeighborTuples.
  bool compact_tuples = true;
};

/// Memory-first HNSW with a relational persistence image.
class BridgedHnswIndex final : public VectorIndex {
 public:
  BridgedHnswIndex(pase::PaseEnv env, uint32_t dim,
                   BridgedHnswOptions options);

  /// Builds the in-memory graph, then persists vectors and adjacency to
  /// pgstub pages in the configured layout.
  Status Build(const float* data, size_t n) override;

  /// Pointer-direct search on the in-memory graph (RC#2 eliminated).
  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params) const override;

  /// Size of the persisted relational image (pages * page size) — the
  /// apples-to-apples comparison against PASE's Fig 13 numbers.
  size_t SizeBytes() const override;
  size_t NumVectors() const override { return graph_.NumVectors(); }
  uint32_t Dim() const override { return dim_; }
  std::string Describe() const override;

 private:
  Status PersistImage(const float* data, size_t n);

  pase::PaseEnv env_;
  uint32_t dim_;
  BridgedHnswOptions options_;
  faisslike::HnswIndex graph_;
  pgstub::RelId data_rel_ = pgstub::kInvalidRel;
  pgstub::RelId nbr_rel_ = pgstub::kInvalidRel;
};

}  // namespace vecdb::bridge
