// The repository benchmark: one command, two SQL workloads.
//
//   perfbench --workload <pase_ivf|filtered_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--scale tiny]
//
// Every workload loads clustered vectors through SQL, then drives the front
// end the way a user would: closed-loop SELECTs through an in-process
// Session, plus open-loop INSERTs. A run is several rounds of set-up, reads
// and writes on a fresh database. Each round replays the same
// seed-determined statement sequence (whole passes over the query list) so
// every work count repeats. All outputs are checked. The last stdout line
// is one JSON object; with --trace 0 it holds the end-to-end metrics, with
// --trace 1 the per-layer ones, including a replay of SELECTs over the
// wire (see perfbench/README.md for definitions and the workload rationale).
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "distance/kernels.h"
#include "datasets/synthetic.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/session.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using vecdb::NowNanos;
using vecdb::obs::Counter;
using vecdb::obs::Hist;
using vecdb::obs::MetricsRegistry;
using vecdb::sql::QueryResult;
using ExecFn =
    std::function<vecdb::Result<QueryResult>(const std::string&)>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------------------
// Workloads

WorkloadSpec MakeSpec(const std::string& name, bool tiny, double seconds) {
  WorkloadSpec s;
  s.name = name;
  s.num_base = tiny ? 3000 : 30000;
  s.num_queries = tiny ? 60 : 1000;
  const auto clusters = static_cast<uint32_t>(
      std::lround(std::sqrt(static_cast<double>(s.num_base))));
  s.rounds = tiny ? 2 : 4;
  s.recall_floor = tiny ? 0.5 : 0.8;
  s.clusters = clusters;
  if (name == "pase_ivf") {
    s.index_method = "ivfflat";
    s.engine = "pase";
    s.sample_ratio = 0.2;
    s.scan_options = "nprobe=20";
    s.small_pool = true;
    s.write_rate = 200.0;
    s.write_statements = tiny ? 15 : 250;
  } else if (name == "filtered_rw") {
    s.index_method = "ivfpq";
    s.engine = "faiss";
    s.sample_ratio = 0.01;
    s.pq_m = 16;
    s.refine_factor = 16;
    s.scan_options = "nprobe=16";
    // Beside the reader, the writer spans each round's reads.
    s.write_rate = 20.0;
    s.write_statements = static_cast<size_t>(
        std::ceil(s.write_rate * seconds / s.rounds));
    s.filtered = true;
  } else {
    s.name.clear();
  }
  return s;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  // The base rows are one fixed dataset, like a real benchmark corpus: with
  // base rows drawn from the run seed, PASE k-means imbalance alone moved
  // per-SELECT work by up to 9% from seed to seed. The seed draws the
  // queries and the attribute values.
  vecdb::SyntheticOptions gen;
  gen.dim = kDim;
  // Rows past num_base are never loaded; the writer inserts them.
  gen.num_base = spec.num_base + 4096;
  gen.num_queries = 0;
  gen.num_natural_clusters = 256;
  gen.cluster_stddev = 0.5f;
  gen.seed = kDatasetSeed;
  in.data = vecdb::GenerateClustered(gen);

  // Queries the way GenerateClustered makes them: loaded base rows plus
  // Gaussian noise at a quarter of the within-mode spread.
  vecdb::Rng rng(seed);
  in.data.num_queries = spec.num_queries;
  in.data.queries.Resize(spec.num_queries * kDim);
  for (size_t q = 0; q < spec.num_queries; ++q) {
    const float* x = in.data.base_vector(rng.Uniform(spec.num_base));
    float* out = in.data.queries.data() + q * kDim;
    for (uint32_t t = 0; t < kDim; ++t) {
      out[t] = x[t] + 0.25f * gen.cluster_stddev * rng.Gaussian();
    }
  }
  if (spec.filtered) {
    in.attr.resize(spec.num_base);
    for (auto& a : in.attr) a = static_cast<int64_t>(rng.Uniform(kAttrRange));
    in.threshold.resize(spec.num_queries);
    for (size_t q = 0; q < spec.num_queries; ++q) {
      in.threshold[q] = kThresholds[q % kThresholds.size()];
    }
  }

  in.create_table_sql = std::string("CREATE TABLE items (id INT, vec FLOAT[") +
                        std::to_string(kDim) + "]" +
                        (spec.filtered ? ", a INT)" : ")");
  constexpr size_t kBatch = 500;
  for (size_t b = 0; b < spec.num_base; b += kBatch) {
    std::string sql = "INSERT INTO items VALUES ";
    for (size_t i = b; i < std::min(spec.num_base, b + kBatch); ++i) {
      if (i != b) sql += ", ";
      sql += "(" + std::to_string(i) + ", '" +
             VectorLiteral(in.data.base_vector(i), kDim) + "'";
      if (spec.filtered) sql += ", " + std::to_string(in.attr[i]);
      sql += ")";
    }
    in.insert_sql.push_back(std::move(sql));
  }

  std::string with;
  auto add = [&with](const std::string& kv) {
    with += (with.empty() ? "" : ", ") + kv;
  };
  if (spec.clusters > 0) {
    add("clusters=" + std::to_string(spec.clusters));
    add("sample_ratio=" + Num(spec.sample_ratio));
    add("iterations=" + std::to_string(spec.iterations));
  }
  if (spec.pq_m > 0) add("m=" + std::to_string(spec.pq_m));
  if (spec.refine_factor > 0) {
    add("refine_factor=" + std::to_string(spec.refine_factor));
  }
  add("engine='" + spec.engine + "'");
  in.create_index_sql = "CREATE INDEX items_idx ON items USING " +
                        spec.index_method + " (vec) WITH (" + with + ")";

  for (size_t q = 0; q < spec.num_queries; ++q) {
    std::string sql = "SELECT id FROM items ";
    if (spec.filtered) sql += "WHERE a < " + std::to_string(in.threshold[q]) + " ";
    sql += "ORDER BY vec <-> '" + VectorLiteral(in.data.query_vector(q), kDim) +
           "' OPTIONS (" + spec.scan_options + ") LIMIT " +
           std::to_string(kTopK);
    in.select_sql.push_back(std::move(sql));
  }

  // Exact (filtered) ground truth over the loaded rows.
  in.truth.resize(spec.num_queries);
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::pair<float, int64_t>> heap;
      for (size_t q = w; q < spec.num_queries; q += workers) {
        heap.clear();
        const float* qv = in.data.query_vector(q);
        for (size_t i = 0; i < spec.num_base; ++i) {
          if (spec.filtered && in.attr[i] >= in.threshold[q]) continue;
          const float d = vecdb::L2Sqr(qv, in.data.base_vector(i), kDim);
          if (heap.size() < kTopK) {
            heap.emplace_back(d, static_cast<int64_t>(i));
            std::push_heap(heap.begin(), heap.end());
          } else if (d < heap.front().first) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = {d, static_cast<int64_t>(i)};
            std::push_heap(heap.begin(), heap.end());
          }
        }
        in.truth[q].fill(-1);
        for (size_t r = 0; r < heap.size(); ++r) in.truth[q][r] = heap[r].second;
      }
    });
  }
  for (auto& t : threads) t.join();
  return in;
}

/// Checks one SELECT result; returns false on any violation and sets
/// `recall` to the share of the exact top-10 it found.
bool CheckSelect(const QueryResult& r, const WorkloadSpec& spec,
                 const Inputs& in, size_t q, double* recall) {
  *recall = 0.0;
  if (r.rows.size() > kTopK) return false;
  std::vector<int64_t> ids;
  for (const auto& row : r.rows) {
    // Also rejects every writer-range id (>= kWriterIdBase).
    if (row.id < 0 || row.id >= static_cast<int64_t>(spec.num_base)) {
      return false;
    }
    if (spec.filtered &&
        in.attr[static_cast<size_t>(row.id)] >= in.threshold[q]) {
      return false;
    }
    ids.push_back(row.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) return false;
  size_t hits = 0;
  for (int64_t t : in.truth[q]) {
    hits += std::binary_search(ids.begin(), ids.end(), t) ? 1 : 0;
  }
  *recall = static_cast<double>(hits) / static_cast<double>(kTopK);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up

struct Db {
  std::unique_ptr<vecdb::sql::MiniDatabase> db;
  std::shared_ptr<vecdb::sql::Session> session;  // destroyed before db
};

struct SetupTimes {
  double total_s = 0.0;
  double load_s = 0.0;
  double index_s = 0.0;
};

/// Heap pages for `rows` rows (the slotted-page arithmetic of HeapTable).
size_t TablePages(size_t rows, bool filtered) {
  const size_t tuple = ((16 + 4 * kDim + 7) & ~size_t{7}) + (filtered ? 8 : 0);
  const size_t per_page = (8192 - 24) / (tuple + 4);
  return (rows + per_page - 1) / per_page;
}

size_t PoolPages(const WorkloadSpec& spec) {
  const size_t heap = TablePages(spec.num_base, spec.filtered);
  // pase_ivf: the IVF_FLAT page chains hold a second copy of every vector,
  // so table+index is about twice the heap; a third of that must churn.
  if (spec.small_pool) return std::max<size_t>(64, 2 * heap / 3);
  return 2 * heap + 1024;
}

bool Exec(vecdb::sql::Session* s, const std::string& sql, const char* what) {
  auto r = s->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    return false;
  }
  return true;
}

bool SetUp(const WorkloadSpec& spec, const Inputs& in, const std::string& dir,
           SpanLog* log, uint64_t stmt_base, Db* out, SetupTimes* t) {
  fs::remove_all(dir);
  // One root span per set-up; its self time is Open plus the glue between
  // the statement spans below it.
  uint64_t stmt = stmt_base;
  ScopedSpan root(log, "setup", stmt++);
  const int64_t t0 = NowNanos();
  vecdb::sql::DatabaseOptions options;
  options.pool_pages = PoolPages(spec);
  auto opened = vecdb::sql::MiniDatabase::Open(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: open failed: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  out->db = std::move(opened).value();
  out->session = out->db->CreateSession();
  vecdb::sql::Session* s = out->session.get();
  {
    ScopedSpan span(log, "setup.create_table", stmt++, root.handle());
    if (!Exec(s, in.create_table_sql, "CREATE TABLE")) return false;
  }
  const int64_t t_load = NowNanos();
  for (const std::string& sql : in.insert_sql) {
    ScopedSpan span(log, "setup.insert", stmt++, root.handle());
    if (!Exec(s, sql, "INSERT")) return false;
  }
  const int64_t t_index = NowNanos();
  {
    ScopedSpan span(log, "setup.create_index", stmt++, root.handle());
    if (!Exec(s, in.create_index_sql, "CREATE INDEX")) return false;
  }
  const int64_t t_end = NowNanos();
  t->total_s = static_cast<double>(t_end - t0) / 1e9;
  t->load_s = static_cast<double>(t_index - t_load) / 1e9;
  t->index_s = static_cast<double>(t_end - t_index) / 1e9;
  return true;
}

// ---------------------------------------------------------------------------
// The closed-loop reader and the open-loop writer

struct ReadStats {
  std::vector<double> lat_us;         ///< statements in untraced passes
  std::vector<double> traced_lat_us;  ///< statements in traced passes
  std::vector<int64_t> done_ns;       ///< when each SELECT returned
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double recall_sum = 0.0;
};

/// Runs whole passes over the query list until at least `min_passes` are
/// done and `more()` turns false. With tracing on, odd passes are traced
/// and even ones are not.
void RunReader(const ExecFn& exec, const WorkloadSpec& spec, const Inputs& in,
               const std::function<bool()>& more, int min_passes,
               SpanLog* log, uint64_t stmt_base, ReadStats* out) {
  const size_t nq = spec.num_queries;
  const bool log_on = log->enabled();
  uint64_t stmt = stmt_base;
  for (int pass = 0; pass < min_passes || more(); ++pass) {
    const bool traced = log_on && pass % 2 == 1;
    log->set_enabled(traced);
    std::vector<double>& lat = traced ? out->traced_lat_us : out->lat_us;
    for (size_t q = 0; q < nq; ++q) {
      const int32_t span = log->Begin("select", stmt++);
      const int64_t t0 = NowNanos();
      auto r = exec(in.select_sql[q]);
      const int64_t t1 = NowNanos();
      log->End(span);
      ++out->attempted;
      out->done_ns.push_back(t1);
      double recall = 0.0;
      if (!r.ok() || !CheckSelect(r.value(), spec, in, q, &recall)) {
        ++out->failed;
        continue;
      }
      out->recall_sum += recall;
      lat.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  log->set_enabled(log_on);
}

struct WriteStats {
  std::vector<double> lat_us;  ///< from when each INSERT was due
  std::vector<double> lag_ms;  ///< how late each INSERT was sent
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
};

/// Open loop: statement j of write_statements is due at start + j / rate,
/// whether or not the previous one has returned its reply.
void RunWriter(const ExecFn& exec, const WorkloadSpec& spec, const Inputs& in,
               SpanLog* log, uint64_t stmt_base, WriteStats* out) {
  const int64_t start = NowNanos();
  const double period_ns = 1e9 / spec.write_rate;
  for (uint64_t j = 0; j < spec.write_statements; ++j) {
    const int64_t due = start + static_cast<int64_t>(period_ns * j);
    const std::string sql = WriterInsert(spec, in, j);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const int64_t begin = NowNanos();
    const int32_t span = log->Begin("insert", stmt_base + j);
    auto r = exec(sql);
    const int64_t end = NowNanos();
    log->End(span);
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
      continue;
    }
    out->rows += kWriterBatchRows;
    out->lat_us.push_back(static_cast<double>(end - due) / 1e3);
    out->lag_ms.push_back(static_cast<double>(begin - due) / 1e6);
  }
}

// ---------------------------------------------------------------------------
// Program counters around a phase

struct Snapshot {
  uint64_t counters[static_cast<size_t>(Counter::kNumCounters)] = {};
  void Take() {
    const MetricsRegistry& m = MetricsRegistry::Global();
    for (size_t c = 0; c < static_cast<size_t>(Counter::kNumCounters); ++c) {
      counters[c] = m.Value(static_cast<Counter>(c));
    }
  }
};

/// Counter increments summed over one or more phases.
struct Deltas {
  double v[static_cast<size_t>(Counter::kNumCounters)] = {};
  void Add(const Snapshot& before, const Snapshot& after) {
    for (size_t c = 0; c < static_cast<size_t>(Counter::kNumCounters); ++c) {
      v[c] += static_cast<double>(after.counters[c] - before.counters[c]);
    }
  }
  double operator[](Counter c) const { return v[static_cast<size_t>(c)]; }
};

double HistUs(Hist h, double q) {
  const auto& hist = MetricsRegistry::Global().histogram(h);
  return hist.TotalCount() == 0 ? 0.0 : hist.Percentile(q) / 1e3;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream f(path);
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << "{\"thread\":" << t << ",\"index\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"stmt\":" << s.stmt << "}\n";
    }
  }
}

/// The wire's cost per SELECT: the same statements through the in-process
/// Session and through a VecClient of a VecServer started for the replay,
/// on an otherwise idle database. The two paths alternate which runs a
/// statement first, so neither always finds the pages the other warmed.
bool ReplayWire(vecdb::sql::MiniDatabase* db, vecdb::sql::Session* session,
                const WorkloadSpec& spec, const Inputs& in, SpanLog* log,
                Metrics* m) {
  vecdb::net::ServerOptions so;
  so.worker_threads = 1;
  auto server = vecdb::net::VecServer::Start(db, so);
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 server.status().ToString().c_str());
    return false;
  }
  auto client = vecdb::net::VecClient::Connect("127.0.0.1",
                                               server.value()->port());
  if (!client.ok()) {
    std::fprintf(stderr, "perfbench: connect failed: %s\n",
                 client.status().ToString().c_str());
    return false;
  }
  const ExecFn local = [session](const std::string& sql) {
    return session->Execute(sql);
  };
  vecdb::net::VecClient* wc = client.value().get();
  const ExecFn remote = [wc](const std::string& sql) {
    return wc->Execute(sql);
  };
  std::vector<double> local_us, remote_us;
  Snapshot before, after;
  before.Take();
  for (size_t q = 0; q < std::min<size_t>(spec.num_queries, 500); ++q) {
    const uint64_t stmt = (uint64_t{2} << 56) + q;
    ScopedSpan pair(log, "wire.pair", stmt);
    auto timed = [&](const char* name, const ExecFn& exec,
                     std::vector<double>* us) {
      ScopedSpan span(log, name, stmt, pair.handle());
      const int64_t t0 = NowNanos();
      (void)exec(in.select_sql[q]);
      us->push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    };
    if (q % 2 == 0) {
      timed("wire.session_execute", local, &local_us);
      timed("wire.client_execute", remote, &remote_us);
    } else {
      timed("wire.client_execute", remote, &remote_us);
      timed("wire.session_execute", local, &local_us);
    }
  }
  after.Take();
  wc->Close();
  server.value()->Stop();
  Deltas d;
  d.Add(before, after);
  Put(m, "net.wire_tax_us", Median(remote_us) - Median(local_us), "us");
  Put(m, "net.bytes_per_select",
      Ratio(d[Counter::kServerBytesIn] + d[Counter::kServerBytesOut],
            d[Counter::kServerStatements]),
      "B/select");
  return true;
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  const WorkloadSpec spec = MakeSpec(args.workload, args.tiny, args.seconds);
  if (spec.name.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }
  const std::string db_dir = args.work_dir + "/db-" + spec.name;

  const Inputs in = MakeInputs(spec, args.seed);
  SpanLog main_log(args.trace);
  SpanLog reader_log(args.trace);
  SpanLog writer_log(args.trace);

  // Everything below accumulates over the rounds. Histogram percentiles
  // are taken per round (the registry is reset before each round's reads)
  // and reported as their median.
  std::vector<double> setup_s, load_s, index_s;
  std::vector<double> server_us, pase_us, faiss_us, queue_p99_us;
  std::vector<double> per_window;  // SELECTs completed per whole second
  ReadStats reads;
  WriteStats writes;
  Deltas read_d, wal_d, setup_d;
  uint64_t last_round_rows = 0;  // rows written into the last database
  // Peak RSS of a fresh process over one round. Over the whole run it also
  // held whatever the allocator kept from earlier rounds' databases, which
  // moved it by up to 15% from run to run.
  double first_round_rss_mb = 0.0;
  const double slice_ns = args.seconds * 1e9 / spec.rounds;
  Db db;
  std::shared_ptr<vecdb::sql::Session> writer_session;

  for (int round = 0; round < spec.rounds; ++round) {
    // ---- Set-up from an empty directory; the previous round's database
    // goes first, its sessions before it.
    writer_session.reset();
    db = Db{};
    Snapshot setup_before, setup_after;
    setup_before.Take();
    SetupTimes t;
    const uint64_t round_ids = static_cast<uint64_t>(round) << 40;
    if (!SetUp(spec, in, db_dir, &main_log, (uint64_t{1} << 56) + round_ids,
               &db, &t)) {
      return 1;
    }
    setup_after.Take();
    setup_d = Deltas{};
    setup_d.Add(setup_before, setup_after);
    setup_s.push_back(t.total_s);
    load_s.push_back(t.load_s);
    index_s.push_back(t.index_s);
    vecdb::sql::Session* session = db.session.get();
    const ExecFn reader = [session](const std::string& sql) {
      return session->Execute(sql);
    };

    // ---- Warm-up (untimed, not counted): the first 50 statements.
    for (size_t q = 0; q < std::min<size_t>(50, spec.num_queries); ++q) {
      (void)reader(in.select_sql[q]);
    }

    // ---- Reads (filtered_rw: with the open-loop writer beside them).
    MetricsRegistry::Global().ResetAll();
    Snapshot read_before, read_after;
    read_before.Take();
    const uint64_t rows_before = writes.rows;
    ReadStats round_reads;
    std::atomic<bool> writer_done{!spec.filtered};
    const int64_t read_start = NowNanos();
    const int64_t deadline = read_start + static_cast<int64_t>(slice_ns);
    std::thread writer;
    if (spec.filtered) {
      writer_session = db.db->CreateSession();
      writer = std::thread([&] {
        vecdb::sql::Session* ws = writer_session.get();
        RunWriter([ws](const std::string& sql) { return ws->Execute(sql); },
                  spec, in, &writer_log, (uint64_t{1} << 60) + round_ids,
                  &writes);
        writer_done.store(true, std::memory_order_release);
      });
    }
    // The reader stops at a pass boundary once its share of the time is up
    // and the writer (if any) has issued its whole schedule.
    RunReader(
        reader, spec, in,
        [&] {
          return NowNanos() < deadline ||
                 !writer_done.load(std::memory_order_acquire);
        },
        args.trace ? 2 : 1, &reader_log, (uint64_t{1} << 48) + round_ids,
        &round_reads);
    if (writer.joinable()) writer.join();
    read_after.Take();
    read_d.Add(read_before, read_after);
    if (spec.filtered) wal_d.Add(read_before, read_after);
    server_us.push_back(HistUs(Hist::kSqlSelectNanos, 0.5));
    pase_us.push_back(HistUs(Hist::kPaseSearchNanos, 0.5));
    faiss_us.push_back(HistUs(Hist::kFaissSearchNanos, 0.5));
    queue_p99_us.push_back(HistUs(Hist::kSessionQueueWaitNanos, 0.99));
    std::vector<double> windows(static_cast<size_t>(slice_ns / 1e9), 0.0);
    for (int64_t done : round_reads.done_ns) {
      const auto w = static_cast<size_t>((done - read_start) / 1000000000);
      if (w < windows.size()) windows[w] += 1.0;
    }
    per_window.insert(per_window.end(), windows.begin(), windows.end());
    reads.lat_us.insert(reads.lat_us.end(), round_reads.lat_us.begin(),
                        round_reads.lat_us.end());
    reads.traced_lat_us.insert(reads.traced_lat_us.end(),
                               round_reads.traced_lat_us.begin(),
                               round_reads.traced_lat_us.end());
    reads.attempted += round_reads.attempted;
    reads.failed += round_reads.failed;
    reads.recall_sum += round_reads.recall_sum;

    // ---- Writes (pase_ivf): the same open-loop writer, with no reader.
    if (!spec.filtered) {
      Snapshot write_before, write_after;
      write_before.Take();
      RunWriter(reader, spec, in, &writer_log,
                (uint64_t{1} << 60) + round_ids, &writes);
      write_after.Take();
      wal_d.Add(write_before, write_after);
    }
    last_round_rows = writes.rows - rows_before;
    if (round == 0) first_round_rss_mb = PeakRssMb();
    std::fprintf(stderr, "perfbench: round %d setup=%.3fs select_p50=%.1fus\n",
                 round, t.total_s, Quantile(round_reads.lat_us, 0.5));
  }

  // ---- Aggregate.
  const uint64_t selects = reads.attempted;
  const uint64_t attempted = selects + writes.attempted;
  const uint64_t failed = reads.failed + writes.failed;
  const double recall = Ratio(reads.recall_sum, static_cast<double>(selects));
  const double row_bytes = 8.0 + 4.0 * kDim + (spec.filtered ? 8.0 : 0.0);
  const double user_bytes =
      row_bytes * static_cast<double>(spec.num_base + last_round_rows);
  const double disk_ratio =
      Ratio(static_cast<double>(DirBytes(db_dir)), user_bytes);
  const bool correct = failed == 0 && recall >= spec.recall_floor;
  std::fprintf(stderr,
               "perfbench: %s seed=%llu selects=%llu inserts=%llu failed=%llu "
               "recall=%.4f\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(selects),
               static_cast<unsigned long long>(writes.attempted),
               static_cast<unsigned long long>(failed), recall);

  Metrics m;
  if (!args.trace) {
    Put(&m, "setup_s", Median(setup_s), "s");
    Put(&m, "select_p50_us", Quantile(reads.lat_us, 0.5), "us");
    Put(&m, "recall_at_10", recall, "ratio");
    Put(&m, "insert_p50_us", Quantile(writes.lat_us, 0.5), "us");
    Put(&m, "disk_bytes_per_user_byte", disk_ratio, "ratio");
    Put(&m, "peak_rss_mb", first_round_rss_mb, "MB");
  } else {
    const double sel = static_cast<double>(selects);
    const Deltas& d = read_d;
    Put(&m, "select.count", sel, "count");
    Put(&m, "select.qps", Median(per_window), "1/s");
    Put(&m, "select.p99_us", Quantile(reads.lat_us, 0.99), "us");
    Put(&m, "insert.count", static_cast<double>(writes.attempted), "count");
    Put(&m, "insert.p99_us", Quantile(writes.lat_us, 0.99), "us");
    Put(&m, "setup.load_s", Median(load_s), "s");
    Put(&m, "setup.index_build_s", Median(index_s), "s");
    const double select_server_us = Median(server_us);
    const double engine_us =
        Median(spec.engine == "pase" ? pase_us : faiss_us);
    Put(&m, "sql.select_server_us", select_server_us, "us");
    Put(&m, "sql.outside_engine_us", select_server_us - engine_us, "us");
    Put(&m, "session.queue_wait_p99_us", Median(queue_p99_us), "us");
    Put(&m, "bufmgr.pins_per_select", Ratio(d[Counter::kBufmgrPin], sel),
        "count/select");
    Put(&m, "bufmgr.miss_ratio",
        Ratio(d[Counter::kBufmgrMiss],
              d[Counter::kBufmgrMiss] + d[Counter::kBufmgrHit]),
        "ratio");
    Put(&m, "bufmgr.evictions_per_select",
        Ratio(d[Counter::kBufmgrEviction], sel), "count/select");
    const double table_index_pages = static_cast<double>(
        (DirBytes(db_dir) - (fs::exists(db_dir + "/wal.log")
                                 ? fs::file_size(db_dir + "/wal.log")
                                 : 0)) /
        8192);
    Put(&m, "bufmgr.pool_share",
        Ratio(static_cast<double>(PoolPages(spec)), table_index_pages),
        "ratio");
    Put(&m, "filter.bitmap_probes_per_select",
        Ratio(d[Counter::kFilterBitmapProbes], sel), "count/select");
    Put(&m, "filter.kamp_retries_per_select",
        Ratio(d[Counter::kFilterKampRetries], sel), "count/select");
    const double pre = d[Counter::kFilterPrefilterQueries];
    const double infl = d[Counter::kFilterInfilterQueries];
    const double post = d[Counter::kFilterPostfilterQueries];
    Put(&m, "filter.prefilter_share", Ratio(pre, pre + infl + post), "ratio");
    Put(&m, "filter.infilter_share", Ratio(infl, pre + infl + post), "ratio");
    Put(&m, "filter.postfilter_share", Ratio(post, pre + infl + post),
        "ratio");
    Put(&m, "pase.search_us", Median(pase_us), "us");
    Put(&m, "pase.tuples_per_select",
        Ratio(d[Counter::kPaseTuplesVisited], sel), "count/select");
    Put(&m, "pase.buckets_per_select",
        Ratio(d[Counter::kPaseBucketsProbed], sel), "count/select");
    Put(&m, "pase.heap_pushes_per_select",
        Ratio(d[Counter::kPaseHeapPushes], sel), "count/select");
    Put(&m, "faiss.search_us", Median(faiss_us), "us");
    Put(&m, "faiss.tuples_per_select",
        Ratio(d[Counter::kFaissTuplesVisited], sel), "count/select");
    Put(&m, "sgemm.calls", setup_d[Counter::kSgemmCalls], "count");
    // WAL over whichever phases carried the writer.
    Put(&m, "wal.bytes_per_user_byte",
        Ratio(wal_d[Counter::kWalBytes],
              row_bytes * static_cast<double>(writes.rows)),
        "ratio");
    Put(&m, "wal.checkpoints", wal_d[Counter::kWalCheckpoints], "count");
    Put(&m, "writer.lag_p99_ms", Quantile(writes.lag_ms, 0.99), "ms");
    Put(&m, "trace.overhead_ratio",
        Ratio(Quantile(reads.traced_lat_us, 0.5),
              Quantile(reads.lat_us, 0.5)),
        "ratio");

    if (!ReplayWire(db.db.get(), db.session.get(), spec, in, &main_log, &m)) {
      return 1;
    }

    ReplayLayers(spec, in, args.work_dir, &main_log, &m);

    // How much of the server-side SELECT time the measured layers explain:
    // parse + filter plan + engine search. The rest is table-lock and
    // admission wait plus executor glue.
    const double accounted = m["sql.parse_select_us"].value +
                             m["filter.plan_ms"].value * 1e3 + engine_us;
    Put(&m, "trace.accounted_share", Ratio(accounted, select_server_us),
        "ratio");
    Put(&m, "sql.lock_wait_us", std::max(0.0, select_server_us - accounted),
        "us");

    const std::vector<const SpanLog*> logs = {&main_log, &reader_log,
                                              &writer_log};
    WriteSpans(args.work_dir + "/spans-" + spec.name + ".jsonl", logs);
    std::map<std::string, std::vector<double>> self_us;
    for (const SpanLog* l : logs) AddSelfTimes(*l, &self_us);
    std::fprintf(stderr, "perfbench: span self times (name count p50_us):\n");
    for (const auto& [name, us] : self_us) {
      std::fprintf(stderr, "  %-24s %8zu %12.2f\n", name.c_str(), us.size(),
                   Median(us));
    }
  }

  // Sessions go before the database they point into.
  writer_session.reset();
  db = Db{};
  fs::remove_all(db_dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--scale") {
      a->tiny = v == "tiny";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

std::string VectorLiteral(const float* v, uint32_t dim) {
  std::string out;
  out.reserve(dim * 12);
  char buf[32];
  for (uint32_t i = 0; i < dim; ++i) {
    auto res = std::to_chars(buf, buf + sizeof(buf), v[i]);
    if (i != 0) out += ',';
    out.append(buf, res.ptr);
  }
  return out;
}

std::string WriterInsert(const WorkloadSpec& spec, const Inputs& in,
                         uint64_t j) {
  const size_t spare = in.data.num_base - spec.num_base;
  std::string sql = "INSERT INTO items VALUES ";
  for (int r = 0; r < kWriterBatchRows; ++r) {
    const uint64_t n = j * kWriterBatchRows + static_cast<uint64_t>(r);
    if (r != 0) sql += ", ";
    sql += "(" + std::to_string(kWriterIdBase + static_cast<int64_t>(n)) +
           ", '" +
           VectorLiteral(in.data.base_vector(spec.num_base + n % spare), kDim) +
           "'";
    if (spec.filtered) {
      sql += ", " + std::to_string(kAttrRange + static_cast<int64_t>(n % 1000));
    }
    sql += ")";
  }
  return sql;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <pase_ivf|filtered_rw>"
                 " --seed <n> --seconds <s> --trace <0|1>"
                 " [--work-dir <dir>] [--scale tiny]\n");
    return 2;
  }
  return perfbench::Run(args);
}
