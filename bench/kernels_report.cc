// Machine-readable kernel-speedup report: BENCH_kernels.json.
//
// Times every compiled-and-runnable ISA tier (scalar / AVX2+FMA / AVX-512F)
// on the float kernels and the SQ8 fast scan at d=128, plus the legacy
// per-code decode-on-the-fly SQ8 distance as the fast-scan baseline, and
// writes the ns/op numbers and speedup ratios as JSON. This is the artifact
// backing the acceptance bars: AVX2 >= 2x scalar on L2Sqr/DistanceBatch and
// blocked fast scan >= 3x per-code at d=128. The "pq" block times product
// quantization at m=16, c_pq=256, d=128 per tier: encode per vector with
// a per-pair l2sqr search versus the codebook kernel, and the ADC table
// built the naive (PASE) versus the optimized (Faiss) way (RC#1/RC#7).
// The float-kernel, "pq" and "sgemm" rows alternate every tier and kernel
// through kRounds rounds, so drift on the host reaches all of them alike,
// and report each row's median with its min and max; speedups are ratios
// of medians. The "sgemm" block gives the dispatched SGEMM's GFLOP/s per
// tier at the shapes the Faiss-side build runs: filtered_rw's assignment
// (30000×173×128), a 256-list codebook (4096×256×128), PQ training
// (300×256×8) and a one-row insert (1×173×128).
// The "ingest" block times what one SQL INSERT costs before it reaches
// the heap: lexing and parsing a 500-row INSERT of 128-d shortest-repr
// floats (beside the strtof reading the parser replaced), and one row's
// SGEMM-path bucket assignment at c=173 against a packed codebook (beside
// the per-call path that packs the centroids every time).
// The "pq_adc" block times IVF_PQ's bucket scorer in ns per code at the
// same m and c_pq: the per-code AdcDistance loop against the four-code
// AdcScan, over a whole 1024-code bucket and through the positions of a
// 20% selection.
// The "wal" block times heap inserts of 128-d rows through the buffer
// manager with and without a write-ahead log attached (alternating loads,
// median with min and max), and the log bytes each row costs: the
// durability tax on the generalized engine's writes.
// Its "sql" rows time PASE ivfflat and hnsw through a MiniDatabase with the
// WAL on: CREATE INDEX over a loaded table, then one-row INSERTs, each
// with the WAL bytes it logged.
//
// Usage: kernels_report [output.json]   (default ./BENCH_kernels.json)
//
// Unlike the micro_kernels google-benchmark binary this has no framework
// dependency — it is meant to run in CI-ish contexts and produce one small
// file, not interactive tables.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "clustering/kmeans.h"
#include "common/random.h"
#include "common/timer.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"
#include "pgstub/bufmgr.h"
#include "pgstub/heap_table.h"
#include "pgstub/wal.h"
#include "quantizer/pq.h"
#include "quantizer/sq8.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace vecdb {
namespace {

// 32 codes at d=128 is a 16 KiB float working set: big enough to rotate
// through (so a single hot pair isn't all we time), small enough to stay
// L1-resident — this measures the kernels, not the cache hierarchy. 32 is
// also Sq8CodeStore::kBlockCodes, so the SQ8 numbers are per-block.
constexpr size_t kDim = 128;
constexpr size_t kNumCodes = 32;
constexpr int kRepetitions = 5;
// Alternating rounds of the float-kernel, PQ and SGEMM rows.
constexpr int kRounds = 9;

// PQ block shape: filtered_rw's quantizer (m = 16, c_pq = 256, sub_dim 8),
// trained on a small random set, encoding a rotating set of vectors.
constexpr uint32_t kPqM = 16;
constexpr uint32_t kPqCodes = 256;
constexpr size_t kPqTrain = 4096;
constexpr size_t kPqVectors = 32;

std::vector<float> RandomVectors(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n * d);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

// Best-of-k timing of fn(), where one fn() call performs `ops` kernel
// operations. The inner iteration count is calibrated so each repetition
// runs long enough to dominate clock overhead.
template <typename Fn>
double NanosPerOp(size_t ops, Fn&& fn) {
  // Calibrate: grow iterations until a repetition takes >= 2ms.
  size_t iters = 1;
  for (;;) {
    Timer t;
    for (size_t i = 0; i < iters; ++i) fn();
    if (t.ElapsedNanos() >= 2'000'000 || iters >= (1u << 22)) break;
    iters *= 4;
  }
  int64_t best = INT64_MAX;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Timer t;
    for (size_t i = 0; i < iters; ++i) fn();
    const int64_t ns = t.ElapsedNanos();
    if (ns < best) best = ns;
  }
  return static_cast<double>(best) /
         (static_cast<double>(iters) * static_cast<double>(ops));
}

// Global sink defeating dead-code elimination across the timed lambdas.
volatile float g_sink = 0.f;

/// Median, min and max of a set of timings; -1 each when there are none.
struct Spread {
  double median = -1.0;
  double min = -1.0;
  double max = -1.0;

  static Spread Of(std::vector<double> v) {
    if (v.empty()) return {};
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
  }

  std::string Json() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"median\": %.3f, \"min\": %.3f, \"max\": %.3f}", median,
                  min, max);
    return buf;
  }
};

/// One timing per tier, one sample per round; a tier the host cannot run
/// has none.
struct TierTimes {
  std::vector<double> by_isa[3];

  Spread Of(KernelIsa isa) const {
    return Spread::Of(by_isa[static_cast<int>(isa)]);
  }
  double Speedup(KernelIsa over, KernelIsa base) const {
    const double a = Of(over).median;
    const double b = Of(base).median;
    if (a <= 0.0 || b <= 0.0) return -1.0;
    return b / a;
  }
};

void AppendTier(std::string* json, const char* name, const TierTimes& t) {
  char buf[128];
  *json += std::string("    \"") + name + "\": {\"scalar_ns\": " +
           t.Of(KernelIsa::kScalar).Json() +
           ", \"avx2_ns\": " + t.Of(KernelIsa::kAvx2).Json() +
           ", \"avx512_ns\": " + t.Of(KernelIsa::kAvx512).Json();
  std::snprintf(buf, sizeof(buf),
                ", \"avx2_speedup\": %.2f, \"avx512_speedup\": %.2f}",
                t.Speedup(KernelIsa::kAvx2, KernelIsa::kScalar),
                t.Speedup(KernelIsa::kAvx512, KernelIsa::kScalar));
  *json += buf;
}

// The encoder the codebook kernel replaced: one l2sqr call per
// (subspace, codeword) pair, first minimum wins.
void PerPairEncode(const ProductQuantizer& pq, const KernelDispatch& k,
                   const float* vec, uint8_t* code) {
  const uint32_t sub_dim = pq.sub_dim();
  for (uint32_t sub = 0; sub < pq.num_subvectors(); ++sub) {
    const float* x = vec + static_cast<size_t>(sub) * sub_dim;
    uint32_t best = 0;
    float best_d = INFINITY;
    for (uint32_t j = 0; j < pq.num_codes(); ++j) {
      const float d = k.l2sqr(
          x, pq.codebook(sub) + static_cast<size_t>(j) * sub_dim, sub_dim);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    code[sub] = static_cast<uint8_t>(best);
  }
}

// ADC scan shape: a bucket of kAdcCodes codes scored against one table,
// whole or through the positions of a kAdcSelectPercent% selection (the
// gated scan of an in-filter query).
constexpr size_t kAdcCodes = 1024;
constexpr uint64_t kAdcSelectPercent = 20;

// ns per scored code, tier-independent (the ADC loop is not dispatched):
// the per-code AdcDistance loop IVF_PQ's scorer used to run, against the
// four-code AdcScan, each over the whole bucket and over the selection.
struct AdcTimes {
  size_t selected = 0;
  double per_code_ns = -1.0;
  double scan_ns = -1.0;
  double per_code_gather_ns = -1.0;
  double scan_gather_ns = -1.0;
};

// µs per operation, per tier, one sample per round.
struct PqTimes {
  TierTimes encode_per_pair_us;
  TierTimes encode_codebook_us;
  TierTimes table_naive_us;
  TierTimes table_optimized_us;
  AdcTimes adc;
};

AdcTimes TimeAdc(const ProductQuantizer& pq, const float* query) {
  std::fprintf(stderr, "[kernels_report] timing pq adc scan...\n");
  std::vector<float> table(pq.table_size());
  pq.ComputeDistanceTableOptimized(query, table.data());
  Rng rng(21);
  std::vector<uint8_t> codes(kAdcCodes * pq.code_size());
  for (auto& c : codes) c = static_cast<uint8_t>(rng.Uniform(kPqCodes));
  std::vector<uint32_t> pos;
  for (uint32_t i = 0; i < kAdcCodes; ++i) {
    if (rng.Uniform(100) < kAdcSelectPercent) pos.push_back(i);
  }
  std::vector<float> out(kAdcCodes);
  const size_t m = pq.code_size();
  AdcTimes t;
  t.selected = pos.size();
  t.per_code_ns = NanosPerOp(kAdcCodes, [&] {
    for (size_t j = 0; j < kAdcCodes; ++j) {
      out[j] = pq.AdcDistance(table.data(), codes.data() + j * m);
    }
    g_sink = out[kAdcCodes - 1];
  });
  t.scan_ns = NanosPerOp(kAdcCodes, [&] {
    pq.AdcScan(table.data(), codes.data(), nullptr, kAdcCodes, out.data());
    g_sink = out[kAdcCodes - 1];
  });
  t.per_code_gather_ns = NanosPerOp(pos.size(), [&] {
    for (size_t j = 0; j < pos.size(); ++j) {
      out[j] = pq.AdcDistance(table.data(), codes.data() + pos[j] * m);
    }
    g_sink = out[0];
  });
  t.scan_gather_ns = NanosPerOp(pos.size(), [&] {
    pq.AdcScan(table.data(), codes.data(), pos.data(), pos.size(), out.data());
    g_sink = out[0];
  });
  return t;
}

PqTimes TimePq() {
  const auto train = RandomVectors(kPqTrain, kDim, 13);
  const auto vecs = RandomVectors(kPqVectors, kDim, 14);
  PqOptions opt;
  opt.num_subvectors = kPqM;
  opt.num_codes = kPqCodes;
  opt.max_iterations = 3;
  auto pq = ProductQuantizer::Train(train.data(), kPqTrain, kDim, opt)
                .ValueOrDie();
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> table(pq.table_size());
  PqTimes out;
  std::fprintf(stderr, "[kernels_report] timing pq, %d rounds...\n", kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      const KernelDispatch* t = KernelTableFor(static_cast<KernelIsa>(i));
      if (t == nullptr) continue;
      auto per_vector_us = [&](auto&& one) {
        return NanosPerOp(kPqVectors, [&] {
                 for (size_t j = 0; j < kPqVectors; ++j) {
                   one(vecs.data() + j * kDim);
                 }
               }) /
               1e3;
      };
      out.encode_per_pair_us.by_isa[i].push_back(
          per_vector_us([&](const float* v) {
            PerPairEncode(pq, *t, v, code.data());
            g_sink = code[0];
          }));
      out.encode_codebook_us.by_isa[i].push_back(
          per_vector_us([&](const float* v) {
            pq.Encode(v, code.data(), *t);
            g_sink = code[0];
          }));
      // The naive table runs on the scalar reference kernel on every tier;
      // timing it per tier keeps each row self-contained.
      out.table_naive_us.by_isa[i].push_back(
          per_vector_us([&](const float* v) {
            pq.ComputeDistanceTableNaive(v, table.data());
            g_sink = table[0];
          }));
      out.table_optimized_us.by_isa[i].push_back(
          per_vector_us([&](const float* v) {
            pq.ComputeDistanceTableOptimized(v, table.data(), *t);
            g_sink = table[0];
          }));
    }
  }
  out.adc = TimeAdc(pq, vecs.data());
  return out;
}

void AppendPq(std::string* json, const PqTimes& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"pq\": {\n    \"config\": {\"m\": %u, \"c_pq\": %u, "
                "\"d\": %zu},\n",
                kPqM, kPqCodes, kDim);
  *json += buf;
  for (int i = 0; i < 3; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    *json += std::string("    \"") + KernelIsaName(isa) +
             "\": {\"encode_per_pair_us\": " +
             p.encode_per_pair_us.Of(isa).Json() +
             ", \"encode_codebook_us\": " +
             p.encode_codebook_us.Of(isa).Json() +
             ", \"table_naive_us\": " + p.table_naive_us.Of(isa).Json() +
             ", \"table_optimized_us\": " +
             p.table_optimized_us.Of(isa).Json() + (i < 2 ? "},\n" : "}\n");
  }
  *json += "  },\n";
  const AdcTimes& a = p.adc;
  std::snprintf(
      buf, sizeof(buf),
      "  \"pq_adc\": {\n"
      "    \"config\": {\"m\": %u, \"c_pq\": %u, \"codes\": %zu, "
      "\"selected\": %zu},\n"
      "    \"per_code_ns\": %.3f,\n"
      "    \"scan_ns\": %.3f,\n"
      "    \"per_code_gather_ns\": %.3f,\n"
      "    \"scan_gather_ns\": %.3f\n"
      "  },\n",  // the ingest block follows
      kPqM, kPqCodes, kAdcCodes, a.selected, a.per_code_ns, a.scan_ns,
      a.per_code_gather_ns, a.scan_gather_ns);
  *json += buf;
}

// Ingest shape: one perfbench set-up INSERT, and filtered_rw's codebook.
constexpr size_t kIngestRows = 500;
constexpr uint32_t kIngestClusters = 173;

// The vector-literal reading the from_chars parser replaced: strtof per
// element over a NUL-terminated copy. Returns the element count (0: bad).
size_t StrtofParse(const std::string& text, std::vector<float>* out) {
  out->clear();
  const char* p = text.c_str();
  for (;;) {
    char* end = nullptr;
    const float v = std::strtof(p, &end);
    if (end == p) return 0;
    out->push_back(v);
    if (*end != ',') return out->size();
    p = end + 1;
  }
}

struct IngestTimes {
  double parse_floats_per_s = 0;
  double parse_strtof_floats_per_s = 0;
  double tokenize_mb_per_s = 0;
  double parse_insert_ms = 0;
  double assign_one_row_us = 0;
  double assign_one_row_per_call_us = 0;
};

IngestTimes TimeIngest() {
  std::fprintf(stderr, "[kernels_report] timing ingest...\n");
  const std::string sql = bench::InsertStatement(kIngestRows, kDim, 15);
  std::vector<std::string> literals;
  for (const auto& t : sql::Tokenize(sql).ValueOrDie()) {
    if (t.type == sql::TokenType::kString) literals.push_back(t.text);
  }
  IngestTimes out;
  out.parse_floats_per_s = 1e9 / NanosPerOp(kIngestRows * kDim, [&] {
    for (const auto& lit : literals) {
      g_sink = sql::ParseVectorLiteral(lit).ValueOrDie()[0];
    }
  });
  std::vector<float> row;
  out.parse_strtof_floats_per_s = 1e9 / NanosPerOp(kIngestRows * kDim, [&] {
    for (const auto& lit : literals) {
      g_sink = static_cast<float>(StrtofParse(lit, &row));
    }
  });
  out.tokenize_mb_per_s =
      1e3 / NanosPerOp(sql.size(), [&] {
        g_sink = static_cast<float>(sql::Tokenize(sql).ValueOrDie().size());
      });
  out.parse_insert_ms = NanosPerOp(1, [&] {
    g_sink = static_cast<float>(sql::Parse(sql).ok());
  }) / 1e6;

  const auto centroids = RandomVectors(kIngestClusters, kDim, 16);
  const auto rows = RandomVectors(kNumCodes, kDim, 17);
  const PackedCodebook codebook(centroids.data(), kIngestClusters, kDim);
  uint32_t bucket = 0;
  out.assign_one_row_us = NanosPerOp(kNumCodes, [&] {
    for (size_t j = 0; j < kNumCodes; ++j) {
      AssignToNearest(rows.data() + j * kDim, 1, codebook, &bucket, nullptr);
    }
    g_sink = static_cast<float>(bucket);
  }) / 1e3;
  out.assign_one_row_per_call_us = NanosPerOp(kNumCodes, [&] {
    for (size_t j = 0; j < kNumCodes; ++j) {
      AssignToNearest(rows.data() + j * kDim, 1, kDim, centroids.data(),
                      kIngestClusters, /*use_sgemm=*/true, &bucket, nullptr);
    }
    g_sink = static_cast<float>(bucket);
  }) / 1e3;
  return out;
}

void AppendIngest(std::string* json, const IngestTimes& t) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "  \"ingest\": {\n"
      "    \"config\": {\"rows\": %zu, \"d\": %zu, \"clusters\": %u},\n"
      "    \"parse_floats_per_s\": %.4g,\n"
      "    \"parse_strtof_floats_per_s\": %.4g,\n"
      "    \"tokenize_mb_per_s\": %.1f,\n"
      "    \"parse_insert_ms\": %.3f,\n"
      "    \"assign_one_row_us\": %.3f,\n"
      "    \"assign_one_row_per_call_us\": %.3f\n"
      "  },\n",
      kIngestRows, kDim, kIngestClusters, t.parse_floats_per_s,
      t.parse_strtof_floats_per_s, t.tokenize_mb_per_s, t.parse_insert_ms,
      t.assign_one_row_us, t.assign_one_row_per_call_us);
  *json += buf;
}

// WAL block shape: rows per timed load and the pool (large enough that no
// page is evicted, so the load times the insert and logging paths only).
// The heap rows alternate a load without and a load with the WAL
// kWalHeapRepetitions times, so drift on the host reaches both sides
// alike, and report each side's median with its min and max.
constexpr int kWalRows = 20000;
constexpr size_t kWalPoolPages = 2048;
constexpr int kWalHeapRepetitions = 9;

/// Per-row µs of one fresh kWalRows-row heap load, with a WAL attached
/// when `log_bytes` is non-null (set to its size).
double TimeHeapLoad(bool with_wal, double* log_bytes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vecdb_kernels_wal").string();
  const auto row = RandomVectors(1, kDim, 18);
  std::filesystem::remove_all(dir);
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  pgstub::BufferManager bufmgr(smgr.get(), kWalPoolPages);
  std::unique_ptr<pgstub::WalManager> wal;
  if (with_wal) {
    wal = std::make_unique<pgstub::WalManager>(
        pgstub::WalManager::Open(dir + "/wal.log").ValueOrDie());
    bufmgr.SetWal(wal.get());
  }
  auto table = pgstub::HeapTable::Create(&bufmgr, smgr.get(), "t",
                                         static_cast<uint32_t>(kDim))
                   .ValueOrDie();
  Timer t;
  for (int i = 0; i < kWalRows; ++i) {
    if (!table.Insert(i, row.data()).ok()) std::abort();
  }
  const int64_t ns = t.ElapsedNanos();
  if (wal != nullptr) *log_bytes = static_cast<double>(wal->size_bytes());
  std::filesystem::remove_all(dir);
  return static_cast<double>(ns) / kWalRows / 1e3;
}

// SQL rows of the WAL block: a kWalSqlRows-row table of 128-d rows is
// loaded untimed, then CREATE INDEX and kWalSqlInserts one-row INSERTs are
// timed (best of kWalSqlRepetitions fresh databases), with the bytes the
// WAL logged for each (the wal.bytes counter, which survives rotation).
constexpr size_t kWalSqlRows = 5000;
constexpr int kWalSqlInserts = 1000;
constexpr int kWalSqlRepetitions = 3;
constexpr size_t kWalSqlPoolPages = 16384;

struct WalSqlTimes {
  double create_index_s = 0;
  double create_index_wal_bytes = 0;
  double inserts_s = 0;
  double inserts_wal_bytes = 0;
};

WalSqlTimes TimeWalSql(const std::string& create_index) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vecdb_kernels_wal_sql")
          .string();
  const std::string load = bench::InsertStatement(kWalSqlRows, kDim, 19);
  const auto rows = RandomVectors(kWalSqlInserts, kDim, 20);
  std::vector<std::string> inserts;
  char buf[32];
  for (int i = 0; i < kWalSqlInserts; ++i) {
    std::string sql =
        "INSERT INTO items VALUES (" + std::to_string(kWalSqlRows + i) + ", '";
    for (size_t t = 0; t < kDim; ++t) {
      if (t != 0) sql += ',';
      sql.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                    rows[i * kDim + t])
                          .ptr);
    }
    inserts.push_back(sql + "')");
  }
  auto must = [](sql::Session* session, const std::string& sql) {
    auto result = session->Execute(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "[kernels_report] %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
  };
  const auto& metrics = obs::MetricsRegistry::Global();
  WalSqlTimes best;
  for (int rep = 0; rep < kWalSqlRepetitions; ++rep) {
    std::filesystem::remove_all(dir);
    sql::DatabaseOptions options;
    options.pool_pages = kWalSqlPoolPages;
    auto db = sql::MiniDatabase::Open(dir, options).ValueOrDie();
    auto session = db->CreateSession();
    must(session.get(), "CREATE TABLE items (id int, vec float[" +
                            std::to_string(kDim) + "])");
    must(session.get(), load);
    uint64_t logged = metrics.Value(obs::Counter::kWalBytes);
    Timer index_timer;
    must(session.get(), create_index);
    const double index_s = index_timer.ElapsedSeconds();
    const uint64_t index_bytes = metrics.Value(obs::Counter::kWalBytes) - logged;
    logged = metrics.Value(obs::Counter::kWalBytes);
    Timer insert_timer;
    for (const std::string& insert : inserts) must(session.get(), insert);
    const double inserts_s = insert_timer.ElapsedSeconds();
    const uint64_t insert_bytes =
        metrics.Value(obs::Counter::kWalBytes) - logged;
    if (rep == 0 || index_s < best.create_index_s) {
      best.create_index_s = index_s;
    }
    if (rep == 0 || inserts_s < best.inserts_s) best.inserts_s = inserts_s;
    best.create_index_wal_bytes = static_cast<double>(index_bytes);
    best.inserts_wal_bytes = static_cast<double>(insert_bytes);
  }
  std::filesystem::remove_all(dir);
  return best;
}

struct WalTimes {
  Spread insert_us_no_wal;
  Spread insert_us_wal;
  double wal_bytes_per_row = 0;
  WalSqlTimes pase_ivfflat;
  WalSqlTimes pase_hnsw;
};

WalTimes TimeWal() {
  std::fprintf(stderr, "[kernels_report] timing wal...\n");
  WalTimes out;
  double log_bytes = 0;
  std::vector<double> no_wal, with_wal;
  for (int rep = 0; rep < kWalHeapRepetitions; ++rep) {
    no_wal.push_back(TimeHeapLoad(false, nullptr));
    with_wal.push_back(TimeHeapLoad(true, &log_bytes));
  }
  out.insert_us_no_wal = Spread::Of(std::move(no_wal));
  out.insert_us_wal = Spread::Of(std::move(with_wal));
  out.wal_bytes_per_row = log_bytes / kWalRows;
  std::fprintf(stderr, "[kernels_report] timing wal sql rows...\n");
  out.pase_ivfflat = TimeWalSql(
      "CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
      "(clusters=70, engine='pase')");
  out.pase_hnsw = TimeWalSql(
      "CREATE INDEX items_idx ON items USING hnsw (vec) WITH "
      "(engine='pase')");
  return out;
}

void AppendWalSql(std::string* json, const char* name, const WalSqlTimes& t,
                  bool last) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"create_index_s\": %.3f, "
                "\"create_index_wal_bytes\": %.0f, \"inserts_s\": %.3f, "
                "\"inserts_wal_bytes\": %.0f}%s\n",
                name, t.create_index_s, t.create_index_wal_bytes, t.inserts_s,
                t.inserts_wal_bytes, last ? "" : ",");
  *json += buf;
}

void AppendWal(std::string* json, const WalTimes& t) {
  char buf[800];
  std::snprintf(buf, sizeof(buf),
                "  \"wal\": {\n"
                "    \"config\": {\"rows\": %d, \"d\": %zu, "
                "\"page_size\": 8192, \"repetitions\": %d},\n"
                "    \"heap_insert_us_no_wal\": {\"median\": %.3f, "
                "\"min\": %.3f, \"max\": %.3f},\n"
                "    \"heap_insert_us_wal\": {\"median\": %.3f, "
                "\"min\": %.3f, \"max\": %.3f},\n"
                "    \"wal_bytes_per_row\": %.1f,\n"
                "    \"sql\": {\n"
                "      \"config\": {\"rows\": %zu, \"d\": %zu, "
                "\"one_row_inserts\": %d, \"pool_pages\": %zu, "
                "\"ivfflat_clusters\": 70, \"repetitions\": %d},\n",
                kWalRows, kDim, kWalHeapRepetitions, t.insert_us_no_wal.median,
                t.insert_us_no_wal.min, t.insert_us_no_wal.max,
                t.insert_us_wal.median, t.insert_us_wal.min,
                t.insert_us_wal.max, t.wal_bytes_per_row, kWalSqlRows, kDim,
                kWalSqlInserts, kWalSqlPoolPages, kWalSqlRepetitions);
  *json += buf;
  AppendWalSql(json, "pase_ivfflat", t.pase_ivfflat, false);
  AppendWalSql(json, "pase_hnsw", t.pase_hnsw, true);
  *json += "    }\n  }\n";
}

// SGEMM shapes (m, n, k): filtered_rw's assignment, a 256-list codebook,
// PQ training's per-subspace k-means, a one-row insert.
constexpr size_t kSgemmShapes[][3] = {
    {30000, 173, 128}, {4096, 256, 128}, {300, 256, 8}, {1, 173, 128}};
constexpr size_t kNumSgemmShapes = std::size(kSgemmShapes);

/// GFLOP/s per tier per shape, one sample per round.
std::vector<TierTimes> TimeSgemm() {
  std::fprintf(stderr, "[kernels_report] timing sgemm, %d rounds...\n",
               kRounds);
  std::vector<TierTimes> out(kNumSgemmShapes);
  std::vector<std::vector<float>> a, c;
  std::vector<PackedCodebook> b;
  for (const auto& [m, n, k] : kSgemmShapes) {
    a.push_back(RandomVectors(m, k, 19));
    b.emplace_back(RandomVectors(n, k, 20).data(), n, k);
    c.emplace_back(m * n);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < kNumSgemmShapes; ++s) {
      const auto [m, n, k] = kSgemmShapes[s];
      for (int i = 0; i < 3; ++i) {
        const KernelDispatch* t = KernelTableFor(static_cast<KernelIsa>(i));
        if (t == nullptr) continue;
        const double ns = NanosPerOp(1, [&] {
          t->sgemm(m, n, k, a[s].data(), b[s].strips(), c[s].data());
          g_sink = c[s][0];
        });
        out[s].by_isa[i].push_back(2.0 * static_cast<double>(m * n * k) / ns);
      }
    }
  }
  return out;
}

void AppendSgemm(std::string* json, const std::vector<TierTimes>& t) {
  *json += "  \"sgemm\": {\n";
  for (size_t s = 0; s < kNumSgemmShapes; ++s) {
    const auto [m, n, k] = kSgemmShapes[s];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "    \"%zux%zux%zu\": {", m, n, k);
    *json += buf;
    for (int i = 0; i < 3; ++i) {
      const auto isa = static_cast<KernelIsa>(i);
      *json += std::string(i > 0 ? ", \"" : "\"") + KernelIsaName(isa) +
               "_gflops\": " + t[s].Of(isa).Json();
    }
    *json += s + 1 < kNumSgemmShapes ? "},\n" : "}\n";
  }
  *json += "  },\n";
}

int Run(const char* out_path) {
  const auto base = RandomVectors(kNumCodes, kDim, 11);
  const auto query = RandomVectors(1, kDim, 12);

  // SQ8 setup: train on the base data, encode into a blocked store.
  auto sq = ScalarQuantizer8::Train(base.data(), kNumCodes, kDim).ValueOrDie();
  Sq8CodeStore store;
  store.Reset(kDim);
  {
    std::vector<uint8_t> code(kDim);
    for (size_t i = 0; i < kNumCodes; ++i) {
      sq.Encode(base.data() + i * kDim, code.data());
      store.Append(code.data(), static_cast<int64_t>(i));
    }
  }
  const Sq8Query prep = sq.PrepareQuery(query.data());
  std::vector<float> dists(kNumCodes);

  TierTimes l2sqr, cosine, batch, sq8_scan;
  for (int i = 0; i < 3; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (KernelTableFor(isa) == nullptr) {
      std::fprintf(stderr, "[kernels_report] tier %s not runnable, skipped\n",
                   KernelIsaName(isa));
    }
  }
  std::fprintf(stderr, "[kernels_report] timing float kernels, %d rounds...\n",
               kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      const KernelDispatch* t = KernelTableFor(static_cast<KernelIsa>(i));
      if (t == nullptr) continue;
      // Single-pair kernels rotate through the base set so we measure the
      // kernel, not one cache-resident pair's best case.
      l2sqr.by_isa[i].push_back(NanosPerOp(kNumCodes, [&] {
        float acc = 0.f;
        for (size_t j = 0; j < kNumCodes; ++j) {
          acc += t->l2sqr(query.data(), base.data() + j * kDim, kDim);
        }
        g_sink = acc;
      }));
      cosine.by_isa[i].push_back(NanosPerOp(kNumCodes, [&] {
        float acc = 0.f;
        for (size_t j = 0; j < kNumCodes; ++j) {
          acc += t->cosine(query.data(), base.data() + j * kDim, kDim);
        }
        g_sink = acc;
      }));
      // The DistanceBatch shape: one query against the contiguous base,
      // results materialized — what every bucket scan does.
      batch.by_isa[i].push_back(NanosPerOp(kNumCodes, [&] {
        for (size_t j = 0; j < kNumCodes; ++j) {
          dists[j] = t->l2sqr(query.data(), base.data() + j * kDim, kDim);
        }
        g_sink = dists[kNumCodes - 1];
      }));
      sq8_scan.by_isa[i].push_back(NanosPerOp(kNumCodes, [&] {
        t->sq8_l2_batch(prep.qadj.data(), sq.scales(), kDim, store.codes(),
                        kNumCodes, dists.data());
        g_sink = dists[kNumCodes - 1];
      }));
    }
  }

  // Fast-scan baseline: the pre-blocked bucket loop — decode-on-the-fly
  // distance, one code at a time (no prepared query, no batch kernel).
  std::fprintf(stderr, "[kernels_report] timing sq8 per-code baseline...\n");
  const double sq8_per_code_ns = NanosPerOp(kNumCodes, [&] {
    float acc = 0.f;
    for (size_t j = 0; j < kNumCodes; ++j) {
      acc += sq.DistanceToCode(query.data(), store.code_at(j));
    }
    g_sink = acc;
  });

  const PqTimes pq_times = TimePq();
  const std::vector<TierTimes> sgemm_times = TimeSgemm();
  const IngestTimes ingest_times = TimeIngest();
  const WalTimes wal_times = TimeWal();

  auto fastscan_speedup = [&](KernelIsa isa) {
    const double ns = sq8_scan.Of(isa).median;
    return ns > 0.0 ? sq8_per_code_ns / ns : -1.0;
  };

  std::string json = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"d\": %zu, \"n_codes\": %zu, "
                "\"repetitions\": %d, \"rounds\": %d, "
                "\"active_isa\": \"%s\"},\n",
                kDim, kNumCodes, kRepetitions, kRounds,
                KernelIsaName(ActiveKernelIsa()));
  json += buf;
  json += "  \"float_kernels\": {\n";
  AppendTier(&json, "l2sqr", l2sqr);
  json += ",\n";
  AppendTier(&json, "cosine", cosine);
  json += ",\n";
  AppendTier(&json, "distance_batch", batch);
  json += "\n  },\n";
  json += "  \"sq8\": {\n";
  std::snprintf(buf, sizeof(buf), "    \"per_code_ns\": %.3f,\n",
                sq8_per_code_ns);
  json += buf;
  AppendTier(&json, "fast_scan", sq8_scan);
  json += ",\n";
  std::snprintf(buf, sizeof(buf),
                "    \"fast_scan_speedup_avx2\": %.2f,\n"
                "    \"fast_scan_speedup_avx512\": %.2f,\n"
                "    \"fast_scan_speedup_scalar\": %.2f\n",
                fastscan_speedup(KernelIsa::kAvx2),
                fastscan_speedup(KernelIsa::kAvx512),
                fastscan_speedup(KernelIsa::kScalar));
  json += buf;
  json += "  },\n";
  AppendPq(&json, pq_times);
  AppendSgemm(&json, sgemm_times);
  AppendIngest(&json, ingest_times);
  AppendWal(&json, wal_times);
  json += "}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[kernels_report] cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[kernels_report] wrote %s\n", out_path);
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace vecdb

int main(int argc, char** argv) {
  return vecdb::Run(argc > 1 ? argv[1] : "BENCH_kernels.json");
}
