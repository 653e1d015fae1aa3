// QueryContext plumbing: uniform knob validation across all eleven index
// classes and per-query metrics routing.
#include "core/query_context.h"

#include <gtest/gtest.h>

#include <filesystem>

#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/index.h"
#include "datasets/synthetic.h"
#include "filter/selection.h"
#include "obs/metrics.h"
#include "pgstub/bufmgr.h"

namespace vecdb {
namespace {

TEST(QueryContextTest, ContextCarriesObservabilityPointers) {
  Profiler prof;
  ParallelAccounting acct;
  SearchParams params;
  params.ctx.profiler = &prof;
  params.ctx.accounting = &acct;
  const QueryContext& ctx = params.ctx;
  EXPECT_EQ(ctx.profiler, &prof);
  EXPECT_EQ(ctx.accounting, &acct);
}

TEST(QueryContextTest, LiveMetricsNullWhenDisabled) {
  obs::MetricsRegistry local;
  QueryContext ctx;
  ctx.metrics = &local;
  EXPECT_EQ(ctx.live_metrics(), nullptr);
  local.SetEnabled(true);
  EXPECT_EQ(ctx.live_metrics(), &local);
}

TEST(QueryContextTest, NullMetricsResolvesToGlobal) {
  auto& global = obs::MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.SetEnabled(false);
  QueryContext ctx;
  EXPECT_EQ(ctx.live_metrics(), nullptr);
  global.SetEnabled(true);
  EXPECT_EQ(ctx.live_metrics(), &global);
  global.SetEnabled(was_enabled);
}

// --- Validation + metrics across every index class -----------------------

class AllIndexesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir =
        ::testing::TempDir() + "/qctx_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 2048);
    SyntheticOptions opt;
    opt.dim = 8;
    opt.num_base = 300;
    opt.num_queries = 2;
    ds_ = GenerateClustered(opt);
  }

  Result<std::unique_ptr<VectorIndex>> MakeBuilt(const std::string& method,
                                                 const std::string& engine) {
    IndexSpec spec;
    spec.method = method;
    spec.engine = engine;
    spec.dim = ds_.dim;
    spec.options = {{"clusters", 4}, {"sample_ratio", 1},
                    {"m", 4},        {"pq_codes", 16},
                    {"bnn", 8},      {"efb", 16}};
    spec.rel_prefix = "q" + std::to_string(counter_++);
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<VectorIndex> index,
                           CreateIndex(spec, {smgr_.get(), bufmgr_.get()}));
    VECDB_RETURN_NOT_OK(index->Build(ds_.base.data(), ds_.num_base));
    return index;
  }

  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
  Dataset ds_;
  int counter_ = 0;
};

struct Combo {
  const char* method;
  const char* engine;
};
constexpr Combo kAllCombos[] = {
    {"flat", "faiss"},     {"ivfflat", "faiss"}, {"ivfpq", "faiss"},
    {"ivfsq8", "faiss"},   {"hnsw", "faiss"},    {"ivfflat", "pase"},
    {"ivfpq", "pase"},     {"ivfsq8", "pase"},   {"hnsw", "pase"},
    {"ivfflat", "bridge"}, {"hnsw", "bridge"},
};
constexpr Combo kIvfCombos[] = {
    {"ivfflat", "faiss"}, {"ivfpq", "faiss"}, {"ivfsq8", "faiss"},
    {"ivfflat", "pase"},  {"ivfpq", "pase"},  {"ivfsq8", "pase"},
};

/// The per-engine names of the three SearchCounters fields.
struct EngineCounters {
  obs::Counter buckets;
  obs::Counter tuples;
  obs::Counter pushes;
};
EngineCounters CountersFor(const std::string& engine) {
  if (engine == "pase") {
    return {obs::Counter::kPaseBucketsProbed, obs::Counter::kPaseTuplesVisited,
            obs::Counter::kPaseHeapPushes};
  }
  return {obs::Counter::kFaissBucketsProbed, obs::Counter::kFaissTuplesVisited,
          obs::Counter::kFaissHeapPushes};
}

TEST_F(AllIndexesTest, KnobValidationIsUniform) {
  for (const auto& combo : kAllCombos) {
    SCOPED_TRACE(std::string(combo.method) + "/" + combo.engine);
    auto index = MakeBuilt(combo.method, combo.engine);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const bool is_ivf = std::string(combo.method).rfind("ivf", 0) == 0;
    const bool is_graph = std::string(combo.method) == "hnsw";

    SearchParams good;
    good.k = 5;
    good.nprobe = 4;
    good.efs = 32;
    EXPECT_TRUE((*index)->Search(ds_.queries.data(), good).ok());

    SearchParams zero_k = good;
    zero_k.k = 0;
    auto r = (*index)->Search(ds_.queries.data(), zero_k);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();

    SearchParams zero_probe = good;
    zero_probe.nprobe = 0;
    r = (*index)->Search(ds_.queries.data(), zero_probe);
    if (is_ivf) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    } else {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }

    SearchParams small_efs = good;
    small_efs.k = 20;
    small_efs.efs = 10;
    r = (*index)->Search(ds_.queries.data(), small_efs);
    if (is_graph) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    } else {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }

    // SearchBatch validates the same way.
    r = Status::OK();
    auto batch = (*index)->SearchBatch(ds_.queries.data(), 2, zero_k);
    EXPECT_TRUE(batch.status().IsInvalidArgument())
        << batch.status().ToString();
  }
}

TEST_F(AllIndexesTest, LocalRegistryCollectsPerQueryCounters) {
  struct Expect {
    obs::Counter queries;
    obs::Counter tuples;
  };
  for (const auto& combo : kAllCombos) {
    SCOPED_TRACE(std::string(combo.method) + "/" + combo.engine);
    auto index = MakeBuilt(combo.method, combo.engine);
    ASSERT_TRUE(index.ok()) << index.status().ToString();

    obs::MetricsRegistry local;
    local.SetEnabled(true);
    SearchParams params;
    params.k = 5;
    params.nprobe = 4;
    params.efs = 32;
    params.ctx.metrics = &local;
    ASSERT_TRUE((*index)->Search(ds_.queries.data(), params).ok());

    const std::string engine = combo.engine;
    Expect e{obs::Counter::kFaissQueries, obs::Counter::kFaissTuplesVisited};
    if (engine == "pase") {
      e = {obs::Counter::kPaseQueries, obs::Counter::kPaseTuplesVisited};
    } else if (engine == "bridge") {
      e = {obs::Counter::kBridgeQueries, obs::Counter::kBridgeTuplesVisited};
    }
    EXPECT_EQ(local.Value(e.queries), 1u);
    // The bridged HNSW delegates its traversal to the in-memory graph, so
    // its tuple traffic lands under faiss.*.
    if (engine == "bridge" && std::string(combo.method) == "hnsw") {
      EXPECT_GT(local.Value(obs::Counter::kFaissTuplesVisited), 0u);
    } else {
      EXPECT_GT(local.Value(e.tuples), 0u);
    }
  }
}

TEST_F(AllIndexesTest, ParallelSearchCountsMatchSerial) {
  for (const auto& combo : kIvfCombos) {
    SCOPED_TRACE(std::string(combo.method) + "/" + combo.engine);
    auto index = MakeBuilt(combo.method, combo.engine);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const EngineCounters c = CountersFor(combo.engine);

    obs::MetricsRegistry serial_reg;
    serial_reg.SetEnabled(true);
    SearchParams params;
    params.k = 5;
    params.nprobe = 4;
    params.ctx.metrics = &serial_reg;
    auto serial = (*index)->Search(ds_.queries.data(), params);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    obs::MetricsRegistry parallel_reg;
    parallel_reg.SetEnabled(true);
    params.num_threads = 4;
    params.ctx.metrics = &parallel_reg;
    auto parallel = (*index)->Search(ds_.queries.data(), params);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    // Worker-local counters must merge to the same totals as one thread,
    // and the parallel merge must return the serial result list.
    EXPECT_EQ(*parallel, *serial);
    EXPECT_EQ(parallel_reg.Value(c.buckets), serial_reg.Value(c.buckets));
    EXPECT_EQ(parallel_reg.Value(c.tuples), serial_reg.Value(c.tuples));
    EXPECT_EQ(parallel_reg.Value(c.pushes), serial_reg.Value(c.pushes));
  }
}

TEST_F(AllIndexesTest, ProfilingChangesNoResult) {
  for (const auto& combo : kAllCombos) {
    SCOPED_TRACE(std::string(combo.method) + "/" + combo.engine);
    auto index = MakeBuilt(combo.method, combo.engine);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    SearchParams plain;
    plain.k = 5;
    plain.nprobe = 4;
    plain.efs = 32;
    Profiler profiler;
    ParallelAccounting accounting;
    SearchParams profiled = plain;
    profiled.ctx.profiler = &profiler;
    profiled.ctx.accounting = &accounting;
    for (size_t q = 0; q < ds_.num_queries; ++q) {
      auto want = (*index)->Search(ds_.query_vector(q), plain);
      auto got = (*index)->Search(ds_.query_vector(q), profiled);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want);
    }
  }
}

TEST_F(AllIndexesTest, PageEnginesDriveBufmgrCounters) {
  auto& global = obs::MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.SetEnabled(true);
  global.ResetAll();

  auto index = MakeBuilt("ivfflat", "pase");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  SearchParams params;
  params.k = 5;
  params.nprobe = 4;
  ASSERT_TRUE((*index)->Search(ds_.queries.data(), params).ok());

  EXPECT_GT(global.Value(obs::Counter::kBufmgrPin), 0u);
  EXPECT_GT(global.Value(obs::Counter::kBufmgrHit), 0u);
  // NewPage pins during the build are neither hits nor misses, so pins
  // bound the sum from above rather than matching it exactly.
  EXPECT_GE(global.Value(obs::Counter::kBufmgrPin),
            global.Value(obs::Counter::kBufmgrHit) +
                global.Value(obs::Counter::kBufmgrMiss));
  EXPECT_GT(global.Value(obs::Counter::kPaseQueries), 0u);
  EXPECT_EQ(global.histogram(obs::Hist::kPaseSearchNanos).TotalCount(), 1u);
  EXPECT_GT(global.Value(obs::Counter::kPaseBuilds), 0u);

  // A pool smaller than the relation forces evictions during the build and
  // re-read misses during the search.
  {
    const std::string dir = ::testing::TempDir() + "/qctx_small_pool";
    std::filesystem::remove_all(dir);
    auto small_smgr = pgstub::StorageManager::Open(dir, 1024).ValueOrDie();
    pgstub::BufferManager small_bufmgr(&small_smgr, 6);
    IndexSpec spec;
    spec.method = "ivfflat";
    spec.engine = "pase";
    spec.dim = ds_.dim;
    spec.options = {{"clusters", 4}, {"sample_ratio", 1}};
    spec.rel_prefix = "small";
    auto small_index =
        CreateIndex(spec, {&small_smgr, &small_bufmgr}).ValueOrDie();
    ASSERT_TRUE(small_index->Build(ds_.base.data(), ds_.num_base).ok());
    const uint64_t misses_before = global.Value(obs::Counter::kBufmgrMiss);
    ASSERT_TRUE(small_index->Search(ds_.queries.data(), params).ok());
    EXPECT_GT(global.Value(obs::Counter::kBufmgrMiss), misses_before);
    EXPECT_GT(global.Value(obs::Counter::kBufmgrEviction), 0u);
  }

  global.ResetAll();
  global.SetEnabled(was_enabled);
}

TEST_F(AllIndexesTest, ScanCountersFollowTheSelection) {
  for (const auto& combo : kIvfCombos) {
    SCOPED_TRACE(std::string(combo.method) + "/" + combo.engine);
    auto index = MakeBuilt(combo.method, combo.engine);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const EngineCounters c = CountersFor(combo.engine);
    const uint64_t n = ds_.num_base;

    // Unfiltered: every stored tuple of a probed bucket is visited and
    // pushed.
    obs::MetricsRegistry local;
    local.SetEnabled(true);
    SearchParams params;
    params.k = 5;
    params.nprobe = 4;  // all 4 buckets
    params.ctx.metrics = &local;
    ASSERT_TRUE((*index)->Search(ds_.queries.data(), params).ok());
    EXPECT_EQ(local.Value(c.tuples), local.Value(c.pushes));
    EXPECT_EQ(local.Value(c.buckets), 4u);
    EXPECT_EQ(local.Value(c.tuples), n);
    EXPECT_EQ(local.Value(obs::Counter::kFilterBitmapProbes), 0u);

    // Filtered: even ids selected. Only selected tuples count as visited;
    // the exhaustive pre-filter pass reports no probed buckets.
    filter::SelectionVector selection(n);
    for (size_t i = 0; i < n; i += 2) selection.Set(i);
    const uint64_t selected = n / 2;
    for (const auto strategy : {filter::FilterStrategy::kPreFilter,
                                filter::FilterStrategy::kInFilter}) {
      const bool pre = strategy == filter::FilterStrategy::kPreFilter;
      SCOPED_TRACE(pre ? "pre-filter" : "in-filter");
      obs::MetricsRegistry filtered;
      filtered.SetEnabled(true);
      params.ctx.metrics = &filtered;
      FilterRequest request;
      request.selection = &selection;
      request.strategy = strategy;
      auto result =
          (*index)->FilteredSearch(ds_.queries.data(), request, params);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(filtered.Value(c.buckets), pre ? 0u : 4u);
      EXPECT_EQ(filtered.Value(c.tuples), selected);
      EXPECT_EQ(filtered.Value(c.pushes), selected);
      EXPECT_EQ(filtered.Value(obs::Counter::kFilterBitmapProbes),
                pre ? 0u : n);
    }
  }
}

}  // namespace
}  // namespace vecdb
