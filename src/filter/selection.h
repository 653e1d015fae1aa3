// SelectionVector: a dense bitmap over row positions, the currency of the
// filtered-search subsystem. The SQL executor evaluates a Predicate over
// the table's in-memory attribute columns into one of these, and the three
// filter strategies consume it: pre-filter and in-filter gate the engines'
// one scan loop with it (the SelectionGate policy below), post-filter tests
// it against amplified result lists. Word-packed so a test is one
// shift+mask and a popcount is word-at-a-time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vecdb::filter {

/// Fixed-size bitmap indexed by row position [0, size).
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Adopts packed words over [0, size): word w holds positions
  /// [64w, 64w + 64), bit b position 64w + b. `words` must hold
  /// (size + 63) / 64 words; bits at or past `size` are dropped.
  static SelectionVector FromWords(size_t size, std::vector<uint64_t> words) {
    SelectionVector out;
    out.size_ = size;
    out.words_ = std::move(words);
    out.words_.resize((size + 63) / 64);
    if (size % 64 != 0) out.words_.back() &= (uint64_t{1} << (size % 64)) - 1;
    return out;
  }

  /// Every position in [0, size) selected.
  static SelectionVector All(size_t size) {
    return FromWords(size,
                     std::vector<uint64_t>((size + 63) / 64, ~uint64_t{0}));
  }

  size_t size() const { return size_; }

  /// The packed words (layout as in FromWords).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Marks position `pos` as selected. Out-of-range positions are ignored
  /// (the bitmap's universe is fixed at construction).
  void Set(size_t pos) {
    if (pos >= size_) return;
    words_[pos >> 6] |= uint64_t{1} << (pos & 63);
  }

  void Clear(size_t pos) {
    if (pos >= size_) return;
    words_[pos >> 6] &= ~(uint64_t{1} << (pos & 63));
  }

  /// True if `pos` is selected. Positions outside the universe read as not
  /// selected — a row the predicate never saw cannot match it.
  bool Test(size_t pos) const {
    if (pos >= size_) return false;
    return (words_[pos >> 6] >> (pos & 63)) & 1u;
  }

  /// Clears every position selected in `other`, one word at a time.
  /// Positions at or past other.size() keep their bit.
  void AndNot(const SelectionVector& other) {
    const size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) words_[w] &= ~other.words_[w];
  }

  /// Number of selected positions.
  size_t CountSet() const {
    size_t count = 0;
    for (uint64_t w : words_) count += static_cast<size_t>(__builtin_popcountll(w));
    return count;
  }

  /// Fraction of the universe selected, in [0, 1]; 0 for an empty universe.
  double Selectivity() const {
    return size_ == 0 ? 0.0
                      : static_cast<double>(CountSet()) /
                            static_cast<double>(size_);
  }

  /// Invokes `fn(pos)` for every selected position in ascending order.
  /// `fn` may Clear(pos): each word is read before its bits are visited.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Selection policies for the engines' scan loops, which are templates
/// over one of these. AllSelected admits every row and compiles away;
/// SelectionGate admits the rows whose bit is set. `kFiltered` lets a loop
/// drop its gate bookkeeping entirely for the unfiltered instantiation.
struct AllSelected {
  static constexpr bool kFiltered = false;
  constexpr bool operator()(int64_t /*row*/) const { return true; }
};

struct SelectionGate {
  static constexpr bool kFiltered = true;
  const SelectionVector* selection;
  bool operator()(int64_t row) const {
    return row >= 0 && selection->Test(static_cast<size_t>(row));
  }
};

}  // namespace vecdb::filter
