// PASE HNSW: the generalized-engine graph index, stored the way the paper
// dissects it in §V-C and §VI-C — vector tuples in heap-style data pages,
// and one adjacency page per vertex holding per-level neighbor lists of
// 24-byte HnswNeighborTuples. Every hop of graph traversal goes through the
// buffer manager (RC#2), visited checks go through a hash table behind a
// function call (HVTGet), neighbor lists are fetched via an out-of-line
// cursor (pasepfirst), and each new adjacency list starts a fresh page
// (RC#4 — the Fig 13 space blow-up). Searches run beside one Insert under
// an index-level latch: shared in search, exclusive in Insert.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "pase/pase_common.h"

namespace vecdb::pase {

/// Construction knobs. Names follow the paper's Table II.
struct PaseHnswOptions {
  uint32_t bnn = 16;  ///< base neighbor count (level 0 holds 2*bnn)
  uint32_t efb = 40;  ///< construction queue length
  uint64_t seed = 42;
  std::string rel_prefix = "pase_hnsw";
  Profiler* profiler = nullptr;
};

/// Page-resident HNSW index.
class PaseHnswIndex final : public VectorIndex {
 public:
  PaseHnswIndex(PaseEnv env, uint32_t dim, PaseHnswOptions options)
      : env_(env), dim_(dim), options_(options), rng_(options.seed) {}

  Status Build(const float* data, size_t n) override;

  /// aminsert: inserts one vector through the page-resident graph path.
  Status Insert(const float* vec) override;

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params) const override;

  /// Relation-file footprint (pages * page size) across the data and
  /// neighbor relations — the Fig 13 / Table IV metric.
  size_t SizeBytes() const override;
  size_t NumVectors() const override { return num_vectors_; }
  uint32_t Dim() const override { return dim_; }
  std::string Describe() const override;

  int max_level() const { return max_level_; }

 protected:
  /// Pre-filter: walks every data-relation page, gating each vector tuple
  /// on the bitmap before its distance — the graph is never traversed, but
  /// every tuple access still goes through the buffer manager (RC#2).
  Result<std::vector<Neighbor>> PreFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override;

  /// In-filter: greedy upper-level descent unchanged, then a filtered beam
  /// search at level 0 where disallowed vertices still route the traversal
  /// but never enter the result heap.
  Result<std::vector<Neighbor>> InFilterSearch(
      const float* query, const filter::SelectionVector& selection,
      const SearchParams& params) const override;

 private:
  /// In-memory vertex locator mirroring HnswGlobalId.
  struct VertexRef {
    pgstub::BlockId nblk = pgstub::kInvalidBlock;
    pgstub::BlockId dblk = pgstub::kInvalidBlock;
    pgstub::OffsetNumber doff = pgstub::kInvalidOffset;

    bool valid() const { return nblk != pgstub::kInvalidBlock; }
  };

  /// A scored vertex during traversal.
  struct Scored {
    float dist;
    VertexRef ref;
    int64_t row_id;
  };

  int RandomLevel();

  /// Creates the data/neighbor relations on first use.
  Status EnsureRelations();

  /// Full insertion path shared by Build and Insert.
  Status AddOne(const float* vec);

  /// Inserts the vector tuple into the data relation.
  Result<VertexRef> InsertVectorTuple(int64_t row_id, int level,
                                      const float* vec);

  /// Creates the vertex's adjacency page (one fresh page per vertex, RC#4)
  /// with empty per-level lists; fills in ref.nblk.
  Status CreateNeighborPage(VertexRef* ref, int level);

  /// Reads a vertex's vector (and row id) through the buffer manager —
  /// the paper's Tuple Access path.
  Status ReadVector(const VertexRef& ref, float* vec, int64_t* row_id,
                    Profiler* profiler) const;

  /// pasepfirst analog: fetches the neighbor entries of `ref` at `level`
  /// into `out` via page indirection. Out-of-line on purpose.
  Status FetchNeighbors(const VertexRef& ref, int level,
                        std::vector<HnswNeighborTuple>* out,
                        Profiler* profiler) const;

  /// Overwrites the neighbor list of `ref` at `level`.
  Status StoreNeighbors(const VertexRef& ref, int level,
                        const std::vector<HnswNeighborTuple>& entries);

  /// Greedy descent at `level` starting from `entry`.
  Result<Scored> GreedyClosest(const float* query, const Scored& entry,
                               int level, Profiler* profiler) const;

  /// The graph walk behind Search (AllSelected) and InFilterSearch
  /// (SelectionGate): greedy upper-level descent, then a level-0 beam.
  /// `who` names the caller in errors.
  template <class Gate>
  Result<std::vector<Neighbor>> SearchGraph(const float* query,
                                            const Gate& gate,
                                            const SearchParams& params,
                                            const char* who) const;

  /// Beam search at one level (SearchNbToAdd when called from Add).
  /// Visited vertices go through this thread's HashVisitedTable (HVTGet),
  /// reset per call, so the walk touches no index state. `gate` admits
  /// vertices to the result heap: AllSelected for construction and
  /// unfiltered queries, a SelectionGate for in-filter queries; rejected
  /// vertices still route the frontier. `counters` (nullable, query path
  /// only) picks up tuples visited, heap pushes and bitmap probes. `ctx`
  /// (nullable, query path only) makes the beam loop poll for cancellation
  /// every few pops and fail with Cancelled.
  template <class Gate>
  Result<std::vector<Scored>> SearchLayer(
      const float* query, const Scored& entry, uint32_t ef, int level,
      const Gate& gate, Profiler* profiler,
      obs::SearchCounters* counters = nullptr,
      const QueryContext* ctx = nullptr) const;

  /// Neighbor-selection heuristic over page-resident candidate vectors.
  Result<std::vector<Scored>> SelectNeighbors(
      const float* base_vec, const std::vector<Scored>& cands,
      uint32_t max_count, Profiler* profiler) const;

  /// Links node <-> peers at `level`, shrinking overflowing reverse lists.
  Status AddLinks(const VertexRef& node, const float* node_vec,
                  int64_t node_row, const std::vector<Scored>& peers,
                  int level, Profiler* profiler);

  uint32_t LevelCapacity(int level) const {
    return level == 0 ? 2 * options_.bnn : options_.bnn;
  }

  PaseEnv env_;
  uint32_t dim_;
  PaseHnswOptions options_;
  Rng rng_;

  pgstub::RelId data_rel_ = pgstub::kInvalidRel;
  pgstub::RelId nbr_rel_ = pgstub::kInvalidRel;
  /// Read by NumVectors() beside an Insert, so atomic.
  std::atomic<size_t> num_vectors_{0};
  /// Shared by searches, exclusive in Insert (which rewrites neighbor
  /// lists and the entry point in place).
  mutable SharedMutex latch_;
  VertexRef entry_point_;
  int64_t entry_row_ = -1;
  int max_level_ = -1;
};

}  // namespace vecdb::pase
