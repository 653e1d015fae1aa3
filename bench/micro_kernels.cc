// google-benchmark micro benches over the kernels the root causes hinge on:
// per-pair vs SGEMM-decomposed distance batches (RC#1), k-heap vs n-heap
// (RC#6), naive vs optimized PQ tables (RC#7), and direct vs page-mediated
// tuple access (RC#2); plus the SQL ingest path (one-row IVF assignment,
// INSERT parsing).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "clustering/kmeans.h"
#include "common/random.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"
#include "faisslike/ivf_flat.h"
#include "obs/metrics.h"
#include "pgstub/bufmgr.h"
#include "pgstub/crc32c.h"
#include "pgstub/heap_table.h"
#include "pgstub/wal.h"
#include "quantizer/pq.h"
#include "quantizer/sq8.h"
#include "sql/parser.h"
#include "topk/heaps.h"

namespace vecdb {
namespace {

std::vector<float> RandomVectors(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n * d);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

void BM_L2SqrSingle(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  auto data = RandomVectors(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2Sqr(data.data(), data.data() + d, d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2SqrSingle)->Arg(96)->Arg(128)->Arg(256)->Arg(960);

// --- Per-ISA kernel tiers -------------------------------------------------
// range(0) selects the tier (KernelIsa value); unsupported tiers skip, so
// one binary covers every host. Pair with BENCH_kernels.json, which records
// the same measurements machine-readably.

const KernelDispatch* TierOrSkip(benchmark::State& state) {
  const auto isa = static_cast<KernelIsa>(state.range(0));
  const KernelDispatch* t = KernelTableFor(isa);
  if (t == nullptr) {
    state.SkipWithError("ISA tier not supported on this host");
    return nullptr;
  }
  state.SetLabel(KernelIsaName(isa));
  return t;
}

void BM_L2SqrTier(benchmark::State& state) {
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1));
  auto data = RandomVectors(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->l2sqr(data.data(), data.data() + d, d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2SqrTier)->ArgsProduct({{0, 1, 2}, {128, 960}});

void BM_InnerProductTier(benchmark::State& state) {
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1));
  auto data = RandomVectors(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t->inner_product(data.data(), data.data() + d, d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InnerProductTier)->ArgsProduct({{0, 1, 2}, {128}});

void BM_CosineTier(benchmark::State& state) {
  // Fused single-pass cosine per tier (the pre-dispatch code walked the
  // vectors three times).
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1));
  auto data = RandomVectors(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->cosine(data.data(), data.data() + d, d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CosineTier)->ArgsProduct({{0, 1, 2}, {128}});

void BM_DistanceBatchTier(benchmark::State& state) {
  // The bucket-scan shape: one query against n contiguous vectors.
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1)), n = 1024;
  auto base = RandomVectors(n, d, 2);
  auto query = RandomVectors(1, d, 3);
  std::vector<float> dists(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      dists[i] = t->l2sqr(query.data(), base.data() + i * d, d);
    }
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DistanceBatchTier)->ArgsProduct({{0, 1, 2}, {128}});

// --- SQ8 fast scan --------------------------------------------------------

struct Sq8BenchSetup {
  ScalarQuantizer8 sq;
  Sq8CodeStore store;
  std::vector<float> query;

  static Sq8BenchSetup Make(size_t n, size_t d) {
    auto data = RandomVectors(n, d, 21);
    Sq8BenchSetup out{
        ScalarQuantizer8::Train(data.data(), n, d).ValueOrDie(),
        Sq8CodeStore{},
        RandomVectors(1, d, 22)};
    out.store.Reset(d);
    std::vector<uint8_t> code(d);
    for (size_t i = 0; i < n; ++i) {
      out.sq.Encode(data.data() + i * d, code.data());
      out.store.Append(code.data(), static_cast<int64_t>(i));
    }
    return out;
  }
};

void BM_Sq8PerCode(benchmark::State& state) {
  // Baseline: decode-on-the-fly distance, one code at a time — the
  // pre-fast-scan IVF_SQ8 bucket loop.
  const size_t d = static_cast<size_t>(state.range(0)), n = 1024;
  auto setup = Sq8BenchSetup::Make(n, d);
  std::vector<float> dists(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      dists[i] = setup.sq.DistanceToCode(setup.query.data(),
                                         setup.store.code_at(i));
    }
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sq8PerCode)->Arg(128);

void BM_Sq8FastScanTier(benchmark::State& state) {
  // Blocked fast scan per tier: query pre-expanded once, codes widened in
  // integer SIMD lanes, one kernel call per bucket.
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1)), n = 1024;
  auto setup = Sq8BenchSetup::Make(n, d);
  const Sq8Query prep = setup.sq.PrepareQuery(setup.query.data());
  std::vector<float> dists(n);
  for (auto _ : state) {
    t->sq8_l2_batch(prep.qadj.data(), setup.sq.scales(), d,
                    setup.store.codes(), n, dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sq8FastScanTier)->ArgsProduct({{0, 1, 2}, {128}});

void BM_Sq8GatherTier(benchmark::State& state) {
  // The page-resident shape: same kernel, codes addressed by pointer.
  const KernelDispatch* t = TierOrSkip(state);
  if (t == nullptr) return;
  const size_t d = static_cast<size_t>(state.range(1)), n = 1024;
  auto setup = Sq8BenchSetup::Make(n, d);
  const Sq8Query prep = setup.sq.PrepareQuery(setup.query.data());
  std::vector<const uint8_t*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = setup.store.code_at(i);
  std::vector<float> dists(n);
  for (auto _ : state) {
    t->sq8_l2_gather(prep.qadj.data(), setup.sq.scales(), d, ptrs.data(), n,
                     dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sq8GatherTier)->ArgsProduct({{0, 1, 2}, {128}});

void BM_AssignNaive(benchmark::State& state) {
  // RC#1 baseline: per-pair distance loops over 256 centroids.
  const size_t d = 128, n = 1024, c = 256;
  auto base = RandomVectors(n, d, 2);
  auto centroids = RandomVectors(c, d, 3);
  std::vector<float> dists(n * c);
  for (auto _ : state) {
    AllPairsL2SqrNaive(base.data(), n, centroids.data(), c, d, dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n * c);
}
BENCHMARK(BM_AssignNaive);

void BM_AssignSgemm(benchmark::State& state) {
  // RC#1 fix: one SGEMM + norm tables.
  const size_t d = 128, n = 1024, c = 256;
  auto base = RandomVectors(n, d, 2);
  auto centroids = RandomVectors(c, d, 3);
  std::vector<float> cnorms(c);
  RowNormsSqr(centroids.data(), c, d, cnorms.data());
  std::vector<float> dists(n * c);
  for (auto _ : state) {
    AllPairsL2Sqr(base.data(), n, centroids.data(), c, d, nullptr,
                  cnorms.data(), dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * n * c);
}
BENCHMARK(BM_AssignSgemm);

void BM_AssignOneRow(benchmark::State& state) {
  // A one-row faisslike IVF insert's bucket choice at filtered_rw's shape:
  // one 1×c product against the codebook packed when it was set.
  const size_t d = 128;
  const uint32_t c = 173;
  auto row = RandomVectors(1, d, 2);
  auto centroids = RandomVectors(c, d, 3);
  const PackedCodebook codebook(centroids.data(), c, d);
  uint32_t bucket = 0;
  for (auto _ : state) {
    AssignToNearest(row.data(), 1, codebook, &bucket, nullptr);
    benchmark::DoNotOptimize(bucket);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssignOneRow);

void BM_ParseInsert500(benchmark::State& state) {
  // One set-up INSERT: 500 rows of 128 shortest-repr floats, lexed and
  // parsed into rows.
  const std::string sql = bench::InsertStatement(500, 128, 4);
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations() * 500 * 128);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(sql.size()));
}
BENCHMARK(BM_ParseInsert500);

void BM_SearchPerQuery(benchmark::State& state) {
  // Multi-query baseline: one Search call per query, so bucket selection
  // re-runs the per-pair centroid loop for every query.
  const size_t d = 64, n = 4096, nq = 64;
  auto base = RandomVectors(n, d, 10);
  auto queries = RandomVectors(nq, d, 11);
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 64;
  faisslike::IvfFlatIndex index(d, opt);
  if (!index.Build(base.data(), n).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (auto _ : state) {
    for (size_t q = 0; q < nq; ++q) {
      benchmark::DoNotOptimize(index.Search(queries.data() + q * d, params));
    }
  }
  state.SetItemsProcessed(state.iterations() * nq);
}
BENCHMARK(BM_SearchPerQuery);

void BM_SearchBatched(benchmark::State& state) {
  // RC#1 applied across queries: the whole block's bucket selection is one
  // SGEMM-decomposed batch against the codebook.
  const size_t d = 64, n = 4096, nq = 64;
  auto base = RandomVectors(n, d, 10);
  auto queries = RandomVectors(nq, d, 11);
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 64;
  faisslike::IvfFlatIndex index(d, opt);
  if (!index.Build(base.data(), n).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.SearchBatch(queries.data(), nq, params));
  }
  state.SetItemsProcessed(state.iterations() * nq);
}
BENCHMARK(BM_SearchBatched);

void BM_SearchPerQueryMetricsOn(benchmark::State& state) {
  // Counterpart to BM_SearchPerQuery with a live registry: every query pays
  // the latency scope plus one counter flush. Compare against the metrics-
  // disabled run to bound the instrumentation overhead (target: <2%).
  const size_t d = 64, n = 4096, nq = 64;
  auto base = RandomVectors(n, d, 10);
  auto queries = RandomVectors(nq, d, 11);
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 64;
  faisslike::IvfFlatIndex index(d, opt);
  if (!index.Build(base.data(), n).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  params.ctx.metrics = &registry;
  for (auto _ : state) {
    for (size_t q = 0; q < nq; ++q) {
      benchmark::DoNotOptimize(index.Search(queries.data() + q * d, params));
    }
  }
  state.SetItemsProcessed(state.iterations() * nq);
  state.counters["queries"] = static_cast<double>(
      registry.Value(obs::Counter::kFaissQueries));
}
BENCHMARK(BM_SearchPerQueryMetricsOn);

void BM_SearchBatchedMetricsOn(benchmark::State& state) {
  // Batched search with worker threads flushing into one shared registry;
  // doubles as the TSan smoke target for the sharded counters.
  const size_t d = 64, n = 4096, nq = 64;
  auto base = RandomVectors(n, d, 10);
  auto queries = RandomVectors(nq, d, 11);
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 64;
  faisslike::IvfFlatIndex index(d, opt);
  if (!index.Build(base.data(), n).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  params.num_threads = 4;
  params.ctx.metrics = &registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.SearchBatch(queries.data(), nq, params));
  }
  state.SetItemsProcessed(state.iterations() * nq);
  state.counters["queries"] = static_cast<double>(
      registry.Value(obs::Counter::kFaissQueries));
}
BENCHMARK(BM_SearchBatchedMetricsOn);

void BM_TopKKHeap(benchmark::State& state) {
  // RC#6 fix: bounded heap of k over n candidates.
  const size_t n = static_cast<size_t>(state.range(0)), k = 100;
  Rng rng(4);
  std::vector<float> dists(n);
  for (auto& v : dists) v = rng.UniformFloat();
  for (auto _ : state) {
    KMaxHeap heap(k);
    for (size_t i = 0; i < n; ++i) {
      heap.Push(dists[i], static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(heap.TakeSorted());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKKHeap)->Arg(10000)->Arg(100000);

void BM_TopKNHeap(benchmark::State& state) {
  // RC#6 defect: heapify all n, pop k.
  const size_t n = static_cast<size_t>(state.range(0)), k = 100;
  Rng rng(4);
  std::vector<float> dists(n);
  for (auto& v : dists) v = rng.UniformFloat();
  for (auto _ : state) {
    NHeap heap;
    for (size_t i = 0; i < n; ++i) {
      heap.Push(dists[i], static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(heap.PopK(k));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKNHeap)->Arg(10000)->Arg(100000);

void BM_PqTableNaive(benchmark::State& state) {
  const size_t d = 128, n = 2000;
  auto data = RandomVectors(n, d, 5);
  PqOptions opt;
  opt.num_subvectors = 16;
  opt.num_codes = 256;
  opt.max_iterations = 3;
  auto pq = ProductQuantizer::Train(data.data(), n, d, opt).ValueOrDie();
  auto query = RandomVectors(1, d, 6);
  std::vector<float> table(pq.table_size());
  for (auto _ : state) {
    pq.ComputeDistanceTableNaive(query.data(), table.data());
    benchmark::DoNotOptimize(table.data());
  }
}
BENCHMARK(BM_PqTableNaive);

void BM_PqTableOptimized(benchmark::State& state) {
  const size_t d = 128, n = 2000;
  auto data = RandomVectors(n, d, 5);
  PqOptions opt;
  opt.num_subvectors = 16;
  opt.num_codes = 256;
  opt.max_iterations = 3;
  auto pq = ProductQuantizer::Train(data.data(), n, d, opt).ValueOrDie();
  auto query = RandomVectors(1, d, 6);
  std::vector<float> table(pq.table_size());
  for (auto _ : state) {
    pq.ComputeDistanceTableOptimized(query.data(), table.data());
    benchmark::DoNotOptimize(table.data());
  }
}
BENCHMARK(BM_PqTableOptimized);

// IVF_PQ's bucket scorer: 1024 codes at m = 16, c_pq = 256, scored whole
// (Arg 100) or through the positions of a 20% selection (Arg 20). The
// per-code AdcDistance loop is the scorer AdcScan replaced.
struct AdcBucket {
  explicit AdcBucket(uint64_t percent) {
    const size_t d = 128, n = 2000;
    auto data = RandomVectors(n, d, 5);
    PqOptions opt;
    opt.num_subvectors = 16;
    opt.num_codes = 256;
    opt.max_iterations = 3;
    pq = std::make_unique<ProductQuantizer>(
        ProductQuantizer::Train(data.data(), n, d, opt).ValueOrDie());
    table.resize(pq->table_size());
    pq->ComputeDistanceTableOptimized(RandomVectors(1, d, 6).data(),
                                      table.data());
    Rng rng(9);
    codes.resize(kCodes * pq->code_size());
    for (auto& c : codes) c = static_cast<uint8_t>(rng.Uniform(256));
    for (uint32_t i = 0; i < kCodes; ++i) {
      if (rng.Uniform(100) < percent) pos.push_back(i);
    }
    out.resize(kCodes);
  }
  /// Null for a whole bucket, scored without positions as the unfiltered
  /// scan does.
  const uint32_t* Positions() const {
    return pos.size() == kCodes ? nullptr : pos.data();
  }
  static constexpr size_t kCodes = 1024;
  std::unique_ptr<ProductQuantizer> pq;
  std::vector<float> table;
  std::vector<uint8_t> codes;
  std::vector<uint32_t> pos;
  std::vector<float> out;
};

void BM_PqAdcPerCode(benchmark::State& state) {
  AdcBucket b(static_cast<uint64_t>(state.range(0)));
  const uint32_t* pos = b.Positions();
  const size_t m = b.pq->code_size();
  for (auto _ : state) {
    for (size_t j = 0; j < b.pos.size(); ++j) {
      b.out[j] = b.pq->AdcDistance(
          b.table.data(), b.codes.data() + (pos != nullptr ? pos[j] : j) * m);
    }
    benchmark::DoNotOptimize(b.out.data());
  }
  state.SetItemsProcessed(state.iterations() * b.pos.size());
}
BENCHMARK(BM_PqAdcPerCode)->Arg(100)->Arg(20);

void BM_PqAdcScan(benchmark::State& state) {
  AdcBucket b(static_cast<uint64_t>(state.range(0)));
  const uint32_t* pos = b.Positions();
  for (auto _ : state) {
    b.pq->AdcScan(b.table.data(), b.codes.data(), pos, b.pos.size(),
                  b.out.data());
    benchmark::DoNotOptimize(b.out.data());
  }
  state.SetItemsProcessed(state.iterations() * b.pos.size());
}
BENCHMARK(BM_PqAdcScan)->Arg(100)->Arg(20);

void BM_TupleAccessDirect(benchmark::State& state) {
  // RC#2 baseline: pointer-direct vector reads.
  const size_t d = 128, n = 1000;
  auto data = RandomVectors(n, d, 7);
  auto query = RandomVectors(1, d, 8);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        L2Sqr(query.data(), data.data() + (i % n) * d, d));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleAccessDirect);

void BM_TupleAccessBufferManager(benchmark::State& state) {
  // RC#2 defect: Pin -> line pointer -> copy -> Unpin per access, even
  // with a 100% buffer hit rate.
  const size_t d = 128, n = 1000;
  auto data = RandomVectors(n, d, 7);
  auto query = RandomVectors(1, d, 8);
  const std::string dir = "/tmp/vecdb_micro_tuple";
  const std::string cmd = "rm -rf " + dir;
  if (std::system(cmd.c_str()) != 0) state.SkipWithError("cleanup failed");
  auto smgr = std::move(pgstub::StorageManager::Open(dir, 8192)).ValueOrDie();
  pgstub::BufferManager bufmgr(&smgr, 4096);
  auto table = std::move(pgstub::HeapTable::Create(&bufmgr, &smgr, "t",
                                                   static_cast<uint32_t>(d)))
                   .ValueOrDie();
  std::vector<pgstub::TupleId> tids;
  for (size_t i = 0; i < n; ++i) {
    tids.push_back(
        std::move(table.Insert(static_cast<int64_t>(i), data.data() + i * d))
            .ValueOrDie());
  }
  std::vector<float> vec(d);
  size_t i = 0;
  for (auto _ : state) {
    int64_t row_id;
    if (!table.Read(tids[i % n], &row_id, vec.data()).ok()) {
      state.SkipWithError("read failed");
      break;
    }
    benchmark::DoNotOptimize(L2Sqr(query.data(), vec.data(), d));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleAccessBufferManager);

void BM_HeapInsertNoWal(benchmark::State& state) {
  // Relational insert path without durability logging.
  const size_t d = 128;
  auto data = RandomVectors(1, d, 9);
  const std::string dir = "/tmp/vecdb_micro_nowal";
  if (std::system(("rm -rf " + dir).c_str()) != 0) {
    state.SkipWithError("cleanup failed");
  }
  auto smgr = std::move(pgstub::StorageManager::Open(dir, 8192)).ValueOrDie();
  pgstub::BufferManager bufmgr(&smgr, 4096);
  auto table = std::move(pgstub::HeapTable::Create(&bufmgr, &smgr, "t",
                                                   static_cast<uint32_t>(d)))
                   .ValueOrDie();
  int64_t id = 0;
  for (auto _ : state) {
    if (!table.Insert(id++, data.data()).ok()) {
      state.SkipWithError("insert failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsertNoWal);

void BM_HeapInsertWal(benchmark::State& state) {
  // The same insert path with the WAL attached (an init record per fresh
  // page, then one item record per row): the durability tax a generalized
  // vector database pays on writes.
  const size_t d = 128;
  auto data = RandomVectors(1, d, 9);
  const std::string dir = "/tmp/vecdb_micro_wal";
  if (std::system(("rm -rf " + dir).c_str()) != 0) {
    state.SkipWithError("cleanup failed");
  }
  auto smgr = std::move(pgstub::StorageManager::Open(dir, 8192)).ValueOrDie();
  auto wal = std::move(pgstub::WalManager::Open(dir + "/wal.log")).ValueOrDie();
  pgstub::BufferManager bufmgr(&smgr, 4096);
  bufmgr.SetWal(&wal);
  auto table = std::move(pgstub::HeapTable::Create(&bufmgr, &smgr, "t",
                                                   static_cast<uint32_t>(d)))
                   .ValueOrDie();
  int64_t id = 0;
  for (auto _ : state) {
    if (!table.Insert(id++, data.data()).ok()) {
      state.SkipWithError("insert failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsertWal);

void BM_Crc32cBitwise(benchmark::State& state) {
  // Reference implementation; the floor the fast paths are measured against.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(n, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pgstub::Crc32cBitwise(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32cBitwise)->Arg(64)->Arg(8192);

void BM_Crc32cTable(benchmark::State& state) {
  // Portable slicing-by-8: what the WAL pays per record without SSE4.2.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(n, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pgstub::Crc32cTable(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32cTable)->Arg(64)->Arg(8192);

void BM_Crc32cDispatched(benchmark::State& state) {
  // Runtime-dispatched fast path (SSE4.2 _mm_crc32_* where available):
  // what WalManager actually calls when framing records.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(n, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pgstub::Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32cDispatched)->Arg(64)->Arg(8192);

}  // namespace
}  // namespace vecdb

BENCHMARK_MAIN();
