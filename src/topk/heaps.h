// Top-k collection strategies. The paper's RC#6: Faiss keeps a bounded
// max-heap of size k, while PASE pushes all n candidates into an n-sized
// heap and pops k afterwards — measurably slower. Both are implemented here
// so each engine uses its faithful variant, and benchmarks can swap them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "topk/neighbor.h"

namespace vecdb {

/// Bounded max-heap keeping the k smallest distances seen (Faiss style).
///
/// Push is O(log k) only when the candidate beats the current worst;
/// otherwise it is a single compare. `worst()` enables early pruning.
class KMaxHeap {
 public:
  /// Creates a heap retaining the `k` closest candidates (k >= 1).
  explicit KMaxHeap(size_t k) : k_(k == 0 ? 1 : k) { heap_.reserve(k_); }

  /// Offers a candidate; keeps it only if among the k best so far.
  void Push(float dist, int64_t id) {
    if (heap_.size() < k_) {
      heap_.push_back({dist, id});
      std::push_heap(heap_.begin(), heap_.end(), Less{});
    } else if (dist < heap_.front().dist) {
      std::pop_heap(heap_.begin(), heap_.end(), Less{});
      heap_.back() = {dist, id};
      std::push_heap(heap_.begin(), heap_.end(), Less{});
    }
  }

  /// Offers candidates (dists[j], id_at(j)) for j in [0, n), leaving the
  /// heap exactly as n Push calls in that order would. Push's own rule
  /// decides admission (any candidate while not full, including +inf and
  /// NaN; then only one strictly below the worst), but that state is
  /// held in locals re-read only after an admission, so a rejected
  /// candidate costs a register compare and never reaches Push.
  template <class IdAt>
  void PushAll(const float* dists, size_t n, IdAt&& id_at) {
    bool room = !full();
    float bound = worst();
    for (size_t j = 0; j < n; ++j) {
      if (room || dists[j] < bound) {
        Push(dists[j], id_at(j));
        room = !full();
        bound = worst();
      }
    }
  }

  /// Current worst retained distance, or +inf while not yet full. Candidates
  /// at or above this bound cannot enter the heap.
  float worst() const {
    return heap_.size() < k_ ? std::numeric_limits<float>::infinity()
                             : heap_.front().dist;
  }

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return k_; }
  bool full() const { return heap_.size() == k_; }

  /// Extracts the retained candidates sorted ascending by distance,
  /// leaving the heap empty and ready for reuse at the same capacity
  /// (batched search reuses one per-worker heap across many queries).
  std::vector<Neighbor> TakeSorted() {
    std::sort(heap_.begin(), heap_.end());
    std::vector<Neighbor> out = std::move(heap_);
    // Moved-from vectors are valid-but-unspecified; put heap_ back into the
    // documented "empty" state explicitly instead of relying on that.
    heap_.clear();
    heap_.reserve(k_);
    return out;
  }

  /// Read-only view of the unordered heap contents.
  const std::vector<Neighbor>& raw() const { return heap_; }

 private:
  // Max-heap on distance (worst on top) with id tie-break for determinism.
  // A function object, not a function pointer: the heap algorithms then
  // inline the comparison wherever Push itself is inlined.
  struct Less {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return a < b;
    }
  };

  size_t k_;
  std::vector<Neighbor> heap_;
};

/// Unbounded collector that heapifies all n candidates and then extracts k
/// (PASE style, paper RC#6). Deliberately inefficient in the same way.
class NHeap {
 public:
  /// Appends a candidate unconditionally (O(1) amortized, O(n) memory).
  void Push(float dist, int64_t id) { items_.push_back({dist, id}); }

  size_t size() const { return items_.size(); }

  /// Builds a heap over all n items and pops the k smallest, as PASE's
  /// executor does: k sift-downs over an n-sized heap. Consumes the
  /// collected candidates: the collector is empty afterwards, so a reused
  /// instance never double-counts a previous query's candidates.
  std::vector<Neighbor> PopK(size_t k);

 private:
  std::vector<Neighbor> items_;
};

/// Merges per-thread local top-k lists into one global top-k
/// (Faiss's lock-free reduction for parallel search).
std::vector<Neighbor> MergeTopK(std::vector<std::vector<Neighbor>> locals,
                                size_t k);

}  // namespace vecdb
