#include "topk/heaps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"

namespace vecdb {
namespace {

std::vector<Neighbor> ReferenceTopK(std::vector<Neighbor> all, size_t k) {
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(KMaxHeapTest, KeepsKSmallest) {
  KMaxHeap heap(3);
  for (int i = 10; i >= 1; --i) {
    heap.Push(static_cast<float>(i), i);
  }
  auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 1);
  EXPECT_EQ(sorted[1].id, 2);
  EXPECT_EQ(sorted[2].id, 3);
}

TEST(KMaxHeapTest, WorstIsInfUntilFull) {
  KMaxHeap heap(2);
  EXPECT_TRUE(std::isinf(heap.worst()));
  heap.Push(1.f, 1);
  EXPECT_TRUE(std::isinf(heap.worst()));
  heap.Push(2.f, 2);
  EXPECT_FLOAT_EQ(heap.worst(), 2.f);
  heap.Push(0.5f, 3);
  EXPECT_FLOAT_EQ(heap.worst(), 1.f);
}

/// True when two heaps hold the same entries in the same layout, each
/// distance compared by its bits (so NaN entries compare too).
bool SameHeap(const KMaxHeap& a, const KMaxHeap& b) {
  if (a.raw().size() != b.raw().size()) return false;
  for (size_t i = 0; i < a.raw().size(); ++i) {
    if (std::bit_cast<uint32_t>(a.raw()[i].dist) !=
            std::bit_cast<uint32_t>(b.raw()[i].dist) ||
        a.raw()[i].id != b.raw()[i].id) {
      return false;
    }
  }
  return true;
}

TEST(KMaxHeapTest, PushAllKeepsInfAndNanWhileNotFull) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> dists = {inf, nan, inf};
  KMaxHeap bulk(3), single(3);
  bulk.PushAll(dists.data(), dists.size(),
               [](size_t j) { return static_cast<int64_t>(j); });
  for (size_t j = 0; j < dists.size(); ++j) {
    single.Push(dists[j], static_cast<int64_t>(j));
  }
  EXPECT_TRUE(SameHeap(bulk, single));
  // Each fills a free slot whatever its value.
  std::vector<int64_t> ids;
  for (const auto& nb : bulk.raw()) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2}));
}

TEST(KMaxHeapTest, PushAllMatchesPushWithTiesInfAndNan) {
  // Few distinct values, so many candidates tie with the bound.
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  Rng rng(31);
  for (size_t k : {1, 2, 5, 16}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<float> dists(rng.Uniform(40));
      for (auto& d : dists) {
        const uint64_t pick = rng.Uniform(12);
        d = pick < 2 ? specials[pick] : static_cast<float>(pick % 4);
      }
      KMaxHeap bulk(k), single(k);
      // A second batch continues from the first one's bound.
      for (int batch = 0; batch < 2; ++batch) {
        const int64_t base = batch * 100;
        bulk.PushAll(dists.data(), dists.size(),
                     [&](size_t j) { return base + static_cast<int64_t>(j); });
        for (size_t j = 0; j < dists.size(); ++j) {
          single.Push(dists[j], base + static_cast<int64_t>(j));
        }
        ASSERT_TRUE(SameHeap(bulk, single)) << "k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(KMaxHeapTest, ZeroKClampedToOne) {
  KMaxHeap heap(0);
  EXPECT_EQ(heap.capacity(), 1u);
  heap.Push(2.f, 2);
  heap.Push(1.f, 1);
  auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].id, 1);
}

TEST(KMaxHeapTest, FewerThanKCandidates) {
  KMaxHeap heap(10);
  heap.Push(3.f, 3);
  heap.Push(1.f, 1);
  auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 1);
}

TEST(KMaxHeapTest, ReusableAfterTakeSorted) {
  // The batched search path keeps one heap per worker and reuses it across
  // queries. TakeSorted used to leave the heap holding moved-from entries,
  // so the next query's Push saw a full heap of garbage; it must instead
  // reset to empty at the same capacity.
  KMaxHeap heap(3);
  for (int i = 1; i <= 5; ++i) heap.Push(static_cast<float>(i), i);
  auto first = heap.TakeSorted();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 1);

  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.capacity(), 3u);
  EXPECT_TRUE(std::isinf(heap.worst()));

  // Second fill must behave exactly like a fresh heap, including keeping
  // candidates worse than the first round's results.
  for (int i = 10; i <= 14; ++i) heap.Push(static_cast<float>(i), i);
  auto second = heap.TakeSorted();
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(second[0].id, 10);
  EXPECT_EQ(second[1].id, 11);
  EXPECT_EQ(second[2].id, 12);
}

TEST(NHeapTest, ReusableAfterPopK) {
  // PopK heapifies items_ in place; it must clear the collector so a reused
  // NHeap does not leak the previous query's candidates into the next.
  NHeap heap;
  heap.Push(2.f, 2);
  heap.Push(1.f, 1);
  auto first = heap.PopK(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 1);
  EXPECT_EQ(heap.size(), 0u);

  heap.Push(5.f, 5);
  auto second = heap.PopK(10);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 5);
}

class HeapEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HeapEquivalenceTest, KHeapAndNHeapAgreeWithPartialSort) {
  const size_t k = GetParam();
  Rng rng(k * 7 + 1);
  std::vector<Neighbor> all;
  KMaxHeap kheap(k);
  NHeap nheap;
  for (int64_t i = 0; i < 500; ++i) {
    const float d = rng.UniformFloat();
    all.push_back({d, i});
    kheap.Push(d, i);
    nheap.Push(d, i);
  }
  auto expect = ReferenceTopK(all, k);
  EXPECT_EQ(kheap.TakeSorted(), expect);
  EXPECT_EQ(nheap.PopK(k), expect);
}

INSTANTIATE_TEST_SUITE_P(KSweep, HeapEquivalenceTest,
                         ::testing::Values(1, 2, 10, 100, 499, 500, 1000));

TEST(NHeapTest, PopKBeyondSizeReturnsAll) {
  NHeap heap;
  heap.Push(2.f, 2);
  heap.Push(1.f, 1);
  auto out = heap.PopK(10);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
}

TEST(NHeapTest, TieBreakById) {
  NHeap heap;
  heap.Push(1.f, 9);
  heap.Push(1.f, 3);
  heap.Push(1.f, 5);
  auto out = heap.PopK(2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3);
  EXPECT_EQ(out[1].id, 5);
}

TEST(MergeTopKTest, MergesLocalsCorrectly) {
  Rng rng(55);
  std::vector<Neighbor> all;
  std::vector<std::vector<Neighbor>> locals(4);
  for (int64_t i = 0; i < 400; ++i) {
    const float d = rng.UniformFloat();
    all.push_back({d, i});
    locals[i % 4].push_back({d, i});
  }
  // Locals are each pre-truncated top-k lists in the real flow; merging
  // untruncated lists must also work.
  auto merged = MergeTopK(locals, 25);
  EXPECT_EQ(merged, ReferenceTopK(all, 25));
}

TEST(MergeTopKTest, EmptyLocals) {
  auto merged = MergeTopK({{}, {}}, 5);
  EXPECT_TRUE(merged.empty());
}

}  // namespace
}  // namespace vecdb
