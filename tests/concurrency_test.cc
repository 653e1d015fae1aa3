// Inter-query concurrency: many threads issuing independent queries
// against one shared index must agree with serial results. This holds for
// every index, HNSW included: graph search keeps its visited table in
// per-thread scratch, never in the index, so the SQL layer runs all index
// scans under a shared table lock. (Intra-query parallelism is covered by
// the engine tests.)
#include <gtest/gtest.h>

#include <filesystem>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "bridge/bridged_hnsw.h"
#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "pgstub/bufmgr.h"

namespace vecdb {
namespace {

Dataset TestData() {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 2000;
  opt.num_queries = 32;
  return GenerateClustered(opt);
}

struct Workload {
  SearchParams params;
  int passes = 5;  ///< per thread, over the query set
  /// When set, every query also runs as a FilteredSearch under this
  /// strategy, over one selection shared by all threads.
  std::optional<filter::FilterStrategy> filter_strategy;
  /// The rows that selection keeps.
  bool (*selected)(size_t row) = [](size_t row) { return row % 3 == 0; };
};

Workload IvfWorkload() {
  Workload w;
  w.params.k = 10;
  w.params.nprobe = 8;
  return w;
}

/// HNSW: Search plus a filtered graph walk, so both instantiations of the
/// one search driver run concurrently. Enough passes that shared visited
/// scratch shows up as mismatches or crashes.
Workload HnswWorkload(filter::FilterStrategy strategy) {
  Workload w;
  w.params.k = 10;
  w.params.efs = 64;
  w.passes = 100;
  w.filter_strategy = strategy;
  return w;
}

/// HNSW in-filter over a selection that clears every 5th row: cleared
/// nodes are rejected mid-beam, so they route the walk but never enter
/// the results.
Workload HnswInFilterWorkload() {
  Workload w = HnswWorkload(filter::FilterStrategy::kInFilter);
  w.selected = [](size_t row) { return row % 5 != 0; };
  return w;
}

template <typename IndexT>
void RunConcurrentQueries(const IndexT& index, const Dataset& ds,
                          const Workload& w) {
  filter::SelectionVector selection(ds.num_base);
  for (size_t i = 0; i < ds.num_base; ++i) {
    if (w.selected(i)) selection.Set(i);
  }
  FilterRequest request;
  request.selection = &selection;
  if (w.filter_strategy) request.strategy = *w.filter_strategy;
  const int kinds = w.filter_strategy ? 2 : 1;
  auto run = [&](size_t q, int kind) {
    return kind == 0
               ? index.Search(ds.query_vector(q), w.params)
               : index.FilteredSearch(ds.query_vector(q), request, w.params);
  };
  // Serial reference answers, one list per kind.
  std::vector<std::vector<Neighbor>> expected[2];
  for (int kind = 0; kind < kinds; ++kind) {
    for (size_t q = 0; q < ds.num_queries; ++q) {
      expected[kind].push_back(run(q, kind).ValueOrDie());
    }
  }
  // 8 threads x multiple passes over the query set.
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < w.passes; ++pass) {
        const size_t q = (t * 7 + pass * 3) % ds.num_queries;
        for (int kind = 0; kind < kinds; ++kind) {
          auto result = run(q, kind);
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (*result != expected[kind][q]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Concurrent readers must leave the index structurally intact.
  if constexpr (requires { index.CheckInvariants(); }) {
    index.CheckInvariants();
  }
}

/// A fresh storage manager + buffer pool for the page-resident engines.
struct PageEnv {
  explicit PageEnv(const std::string& name, size_t pool_pages = 4096)
      : smgr(std::make_unique<pgstub::StorageManager>(
            pgstub::StorageManager::Open(Dir(name), 8192).ValueOrDie())),
        bufmgr(smgr.get(), pool_pages) {}

  static std::string Dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  pase::PaseEnv env() { return {smgr.get(), &bufmgr}; }

  std::unique_ptr<pgstub::StorageManager> smgr;
  pgstub::BufferManager bufmgr;
};

TEST(ConcurrencyTest, FaissIvfFlatSharedAcrossThreads) {
  auto ds = TestData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds, IvfWorkload());
}

TEST(ConcurrencyTest, PaseIvfFlatSharedAcrossThreads) {
  // Every concurrent query goes through the same buffer manager — its
  // mutex-guarded pin path must stay correct under contention.
  PageEnv page_env("conc_pase");
  auto ds = TestData();
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  pase::PaseIvfFlatIndex index(page_env.env(), ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds, IvfWorkload());
}

TEST(ConcurrencyTest, PaseSurvivesEvictionUnderConcurrency) {
  // A pool smaller than the working set forces concurrent eviction.
  PageEnv page_env("conc_evict", 24);
  auto ds = TestData();
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  pase::PaseIvfFlatIndex index(page_env.env(), ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds, IvfWorkload());
  EXPECT_GT(page_env.bufmgr.stats().evictions, 0u);
}

TEST(ConcurrencyTest, FaissHnswSharedAcrossThreads) {
  auto ds = TestData();
  faisslike::HnswIndex index(ds.dim, faisslike::HnswOptions{});
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds, HnswInFilterWorkload());
}

TEST(ConcurrencyTest, PaseHnswSharedAcrossThreads) {
  PageEnv page_env("conc_pase_hnsw");
  auto ds = TestData();
  pase::PaseHnswIndex index(page_env.env(), ds.dim, pase::PaseHnswOptions{});
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds, HnswInFilterWorkload());
}

TEST(ConcurrencyTest, BridgedHnswSharedAcrossThreads) {
  // The bridge delegates Search to an in-memory faisslike graph and has no
  // in-filter of its own; post-filter drives that Search with a wider k.
  PageEnv page_env("conc_bridge_hnsw");
  auto ds = TestData();
  bridge::BridgedHnswIndex index(page_env.env(), ds.dim,
                                 bridge::BridgedHnswOptions{});
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  RunConcurrentQueries(index, ds,
                       HnswWorkload(filter::FilterStrategy::kPostFilter));
}

}  // namespace
}  // namespace vecdb
