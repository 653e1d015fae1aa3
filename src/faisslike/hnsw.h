// Specialized-engine HNSW (Faiss analog): hierarchical proximity graph with
// contiguous 4-byte neighbor arrays, direct pointer access to vectors, and
// an epoch-stamped visited table held per thread, so concurrent searches on
// one index share no scratch. Construction is instrumented with the
// paper's Table III phases (SearchNbToAdd / AddLink / GreedyUpdate /
// ShrinkNbList) and Fig 8 sub-phases. Searches run beside one Insert
// under an index-level latch: shared in search, exclusive in Insert.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "topk/heaps.h"

namespace vecdb::faisslike {

/// Construction knobs for HnswIndex. Names follow the paper's Table II.
struct HnswOptions {
  uint32_t bnn = 16;   ///< base neighbor count M (level 0 holds 2*bnn)
  uint32_t efb = 40;   ///< construction priority-queue length
  uint64_t seed = 42;
  Profiler* profiler = nullptr;  ///< phase breakdown during Build
};

/// In-memory hierarchical navigable small world graph.
class HnswIndex final : public VectorIndex {
 public:
  HnswIndex(uint32_t dim, HnswOptions options)
      : dim_(dim), options_(options), rng_(options.seed) {}

  Status Build(const float* data, size_t n) override;

  /// Inserts one vector (id is the insertion order).
  Status Add(const float* vec);

  /// Incremental insert via the graph insertion path, under the latch.
  Status Insert(const float* vec) override {
    WriterMutexLock latch(*latch_);
    return Add(vec);
  }

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params) const override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override {
    ReaderMutexLock latch(*latch_);
    return num_nodes_;
  }
  uint32_t Dim() const override { return dim_; }
  std::string Describe() const override;

  /// Construction options (round-tripped by Save/Load since format v2).
  const HnswOptions& options() const { return options_; }

  /// Writes the options, the vectors and the graph's link arrays.
  Status Save(const std::string& path) const override;
  Status Load(const std::string& path) override;

  /// Aborts if the graph structure is inconsistent: per-node array sizes
  /// out of step, link counts above level capacity, an edge to a
  /// nonexistent node / to self / to a node that does not reach that level,
  /// or an entry point that is not a top-level node. Test/debug hook.
  void CheckInvariants() const;

  int max_level() const { return max_level_; }
  /// Top level of `node` in the hierarchy.
  int NodeLevel(uint32_t node) const { return node_level_[node]; }
  /// Neighbor ids of `node` at `level` (testing/diagnostics; `level` must
  /// be <= NodeLevel(node)).
  std::vector<uint32_t> NeighborsOf(uint32_t node, int level) const;

 protected:
  /// Pre-filter: gathers the bitmap's survivors from the contiguous vector
  /// block and brute-forces them with the batched distance kernel; the
  /// graph is not traversed at all.
  Result<std::vector<Neighbor>> PreFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override;

  /// In-filter: greedy upper-level descent unchanged, then a filtered beam
  /// search at level 0 where disallowed nodes still route the traversal
  /// but never enter the result heap (the hnswlib filtered-search rule).
  Result<std::vector<Neighbor>> InFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override;

 private:
  /// Capacity of a node's neighbor list at a level: 2*bnn at level 0
  /// (paper §II-B), bnn above.
  uint32_t LevelCapacity(int level) const {
    return level == 0 ? 2 * options_.bnn : options_.bnn;
  }

  /// Draws the level for a new node: floor(-ln(U) / ln(bnn)).
  int RandomLevel();

  /// Start offset of the neighbor slots of `node` at `level`.
  size_t LinkOffset(uint32_t node, int level) const;

  /// Greedy single-entry descent at `level` (GreedyUpdate phase).
  uint32_t GreedyClosest(const float* query, uint32_t entry, int level,
                         Profiler* profiler) const;

  /// The graph walk behind Search (AllSelected) and InFilterSearch
  /// (SelectionGate): greedy upper-level descent, then a level-0 beam.
  /// `who` prefixes error messages.
  template <class Gate>
  Result<std::vector<Neighbor>> SearchGraph(const float* query,
                                            const Gate& gate,
                                            const SearchParams& params,
                                            const char* who) const;

  /// Beam search at one level; returns up to `ef` candidates ascending.
  /// Visited nodes are tracked in this thread's stamp table, so the walk
  /// touches no index state. Instrumented with the Fig 8 sub-phase
  /// labels. `gate` admits nodes to the result heap: AllSelected for
  /// construction and unfiltered queries, a SelectionGate for in-filter
  /// queries; rejected nodes still route the frontier. `counters`
  /// (nullable, query path only) picks up nodes visited, heap pushes and
  /// bitmap probes. `ctx` (nullable, query path only) makes the beam loop
  /// poll for cancellation every few pops; the loop exits early with a
  /// partial beam and the caller converts that into a Cancelled error.
  template <class Gate>
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    uint32_t ef, int level, const Gate& gate,
                                    Profiler* profiler,
                                    obs::SearchCounters* counters = nullptr,
                                    const QueryContext* ctx = nullptr) const;

  /// HNSW neighbor-selection heuristic (ShrinkNbList phase): keeps a
  /// candidate only if it is closer to the base point than to every
  /// already-selected neighbor; caps at `max_count`.
  std::vector<uint32_t> SelectNeighbors(const std::vector<Neighbor>& cands,
                                        uint32_t max_count,
                                        Profiler* profiler) const;

  /// Connects `node` <-> `peers` at `level`, shrinking overflow lists
  /// (AddLink phase).
  void AddLinks(uint32_t node, const std::vector<uint32_t>& peers, int level,
                Profiler* profiler);

  const float* NodeVector(uint32_t node) const {
    return vectors_.data() + static_cast<size_t>(node) * dim_;
  }

  uint32_t dim_;
  HnswOptions options_;
  Rng rng_;

  AlignedFloats vectors_;
  std::vector<int> node_level_;
  std::vector<size_t> link_offset_;     // per node: start into links_
  std::vector<uint32_t> links_;         // flat neighbor slots, 4 bytes each
  std::vector<uint16_t> link_counts_;   // used slots per (node, level)
  std::vector<size_t> count_offset_;    // per node: start into link_counts_

  uint32_t num_nodes_ = 0;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
  /// Shared by searches, exclusive in Insert (the graph and every array
  /// above grow in place). Held by pointer so Load can move-assign.
  std::unique_ptr<SharedMutex> latch_ = std::make_unique<SharedMutex>();
};

}  // namespace vecdb::faisslike
