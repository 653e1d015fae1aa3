#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <vector>

#include "clustering/kmeans.h"
#include "common/timer.h"
#include "distance/kernels.h"
#include "distance/sgemm.h"
#include "filter/predicate.h"
#include "filter/selection.h"
#include "pgstub/bufmgr.h"
#include "pgstub/heap_table.h"
#include "pgstub/smgr.h"
#include "quantizer/pq.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

/// Times replayed calls, each under its own span and statement id.
class Replayer {
 public:
  explicit Replayer(SpanLog* log) : log_(log) {}

  /// Runs `fn` once under a span named `name`; returns microseconds.
  double TimeUs(const char* name, const std::function<void()>& fn) {
    ScopedSpan span(log_, name, next_stmt_++);
    const int64_t t0 = vecdb::NowNanos();
    fn();
    return static_cast<double>(vecdb::NowNanos() - t0) / 1e3;
  }

 private:
  SpanLog* log_;
  uint64_t next_stmt_ = uint64_t{3} << 56;  // apart from every phase's ids
};

void ReplayParse(const Inputs& in, Replayer* r, Metrics* out) {
  std::vector<double> select_us;
  for (const std::string& sql : in.select_sql) {
    select_us.push_back(
        r->TimeUs("sql.parse_select", [&] { (void)vecdb::sql::Parse(sql); }));
  }
  double insert_us = 0.0;
  for (const std::string& sql : in.insert_sql) {
    insert_us +=
        r->TimeUs("sql.parse_insert", [&] { (void)vecdb::sql::Parse(sql); });
  }
  Put(out, "sql.parse_select_us", Median(select_us), "us");
  Put(out, "sql.parse_insert_s", insert_us / 1e6, "s");
}

void ReplayL2(const WorkloadSpec& spec, const Inputs& in, Replayer* r,
              Metrics* out) {
  const size_t n = std::min<size_t>(spec.num_base, 20000);
  const float* q = in.data.query_vector(0);
  std::vector<double> ns_per_call;
  volatile float sink = 0.f;
  for (int round = 0; round < 5; ++round) {
    const double us = r->TimeUs("distance.l2", [&] {
      float acc = 0.f;
      for (size_t i = 0; i < n; ++i) {
        acc += vecdb::L2Sqr(q, in.data.base_vector(i), kDim);
      }
      sink = sink + acc;
    });
    ns_per_call.push_back(us * 1e3 / static_cast<double>(n));
  }
  Put(out, "distance.l2_ns", Median(ns_per_call), "ns");
}

/// K-means at the index's settings and style; for the Faiss engine also
/// the SGEMM assignment tile; for IVF_PQ the PQ training and ADC table.
void ReplayTraining(const WorkloadSpec& spec, const Inputs& in, Replayer* r,
                    Metrics* out) {
  double kmeans_s = 0.0, sgemm_gflops = 0.0, pq_train_s = 0.0, adc_us = 0.0;
  const bool faiss_style = spec.engine == "faiss";
  if (spec.clusters > 0) {
    vecdb::KMeansOptions km;
    km.num_clusters = spec.clusters;
    km.max_iterations = static_cast<int>(spec.iterations);
    km.sample_ratio = spec.sample_ratio;
    km.style = faiss_style ? vecdb::KMeansStyle::kFaissStyle
                           : vecdb::KMeansStyle::kPaseStyle;
    km.use_sgemm = faiss_style;
    kmeans_s = r->TimeUs("clustering.kmeans", [&] {
                 (void)vecdb::TrainKMeans(in.data.base.data(), spec.num_base,
                                          kDim, km);
               }) /
               1e6;
  }
  if (spec.clusters > 0 && faiss_style) {
    // The k-means assignment tile: 1024 vectors against every centroid
    // (base rows stand in for centroids; only the shape matters).
    const size_t m = std::min<size_t>(1024, spec.num_base);
    const size_t n = spec.clusters;
    std::vector<float> c(m * n);
    std::vector<double> gflops;
    for (int round = 0; round < 5; ++round) {
      const double us = r->TimeUs("distance.sgemm", [&] {
        vecdb::SgemmTransB(m, n, kDim, in.data.base.data(),
                           in.data.base.data(), c.data());
      });
      gflops.push_back(2.0 * static_cast<double>(m * n * kDim) / (us * 1e3));
    }
    sgemm_gflops = Median(gflops);
  }
  if (spec.pq_m > 0) {
    // IVF_PQ trains its quantizer on max(pq_codes, sr*n) sampled rows.
    const size_t sample_n = std::max<size_t>(
        256, static_cast<size_t>(spec.sample_ratio *
                                 static_cast<double>(spec.num_base)));
    vecdb::PqOptions po;
    po.num_subvectors = spec.pq_m;
    po.max_iterations = static_cast<int>(spec.iterations);
    std::optional<vecdb::ProductQuantizer> pq;
    pq_train_s = r->TimeUs("quantizer.pq_train", [&] {
                   auto trained = vecdb::ProductQuantizer::Train(
                       in.data.base.data(), sample_n, kDim, po);
                   if (trained.ok()) pq.emplace(std::move(trained).value());
                 }) /
                 1e6;
    if (pq) {
      std::vector<float> table(pq->table_size());
      std::vector<double> us;
      for (size_t q = 0; q < spec.num_queries; ++q) {
        us.push_back(r->TimeUs("quantizer.adc_table", [&] {
          pq->ComputeDistanceTableOptimized(in.data.query_vector(q),
                                            table.data());
        }));
      }
      adc_us = Median(us);
    }
  }
  Put(out, "kmeans.train_s", kmeans_s, "s");
  Put(out, "sgemm.gflops", sgemm_gflops, "GFLOP/s");
  Put(out, "pq.train_s", pq_train_s, "s");
  Put(out, "pq.adc_table_us", adc_us, "us");
}

/// The filter plan the executor builds for every filtered SELECT — one
/// SeqScanFull heap pass evaluating the bound predicate into a selection
/// bitmap — over a benchmark-owned heap holding the workload's rows; and
/// the bare heap pass alone.
void ReplayFilter(const WorkloadSpec& spec, const Inputs& in,
                  const std::string& work_dir, Replayer* r, Metrics* out) {
  namespace fs = std::filesystem;
  using vecdb::pgstub::TupleId;
  double plan_ms = 0.0, scan_ms = 0.0;
  const std::string dir = work_dir + "/replay-heap";
  if (spec.filtered) {
    fs::remove_all(dir);
    auto smgr = vecdb::pgstub::StorageManager::Open(dir, 8192);
    if (smgr.ok()) {
      vecdb::pgstub::StorageManager& sm = smgr.value();
      vecdb::pgstub::BufferManager bufmgr(&sm, spec.num_base / 10 + 256);
      auto heap =
          vecdb::pgstub::HeapTable::Create(&bufmgr, &sm, "replay", kDim, 1);
      if (heap.ok()) {
        vecdb::pgstub::HeapTable& h = heap.value();
        for (size_t i = 0; i < spec.num_base; ++i) {
          (void)h.Insert(static_cast<int64_t>(i), in.data.base_vector(i),
                         &in.attr[i]);
        }
        std::vector<double> plan_us, scan_us;
        // Query t carries threshold kThresholds[t].
        for (size_t t = 0; t < kThresholds.size(); ++t) {
          auto parsed = vecdb::sql::Parse(in.select_sql[t]);
          if (!parsed.ok() || !parsed.value().select->predicate) continue;
          auto bound =
              vecdb::filter::Bind(*parsed.value().select->predicate, {"id", "a"});
          if (!bound.ok()) continue;
          const vecdb::filter::BoundPredicate& pred = bound.value();
          for (int round = 0; round < 5; ++round) {
            plan_us.push_back(r->TimeUs("filter.plan", [&] {
              vecdb::filter::SelectionVector sel(h.num_rows());
              size_t pos = 0;
              int64_t row[2];
              (void)h.SeqScanFull([&](TupleId, int64_t id, const float*,
                                      const int64_t* attrs) {
                row[0] = id;
                row[1] = attrs[0];
                if (pred.Eval(row)) sel.Set(pos);
                ++pos;
                return true;
              });
            }));
            scan_us.push_back(r->TimeUs("heap.scan", [&] {
              (void)h.SeqScanFull(
                  [](TupleId, int64_t, const float*, const int64_t*) {
                    return true;
                  });
            }));
          }
        }
        plan_ms = Median(plan_us) / 1e3;
        scan_ms = Median(scan_us) / 1e3;
      }
    }
    fs::remove_all(dir);
  }
  Put(out, "filter.plan_ms", plan_ms, "ms");
  Put(out, "heap.scan_ms", scan_ms, "ms");
}

}  // namespace

void ReplayLayers(const WorkloadSpec& spec, const Inputs& in,
                  const std::string& work_dir, SpanLog* log, Metrics* out) {
  Replayer r(log);
  ReplayParse(in, &r, out);
  ReplayL2(spec, in, &r, out);
  ReplayTraining(spec, in, &r, out);
  ReplayFilter(spec, in, work_dir, &r, out);
}

}  // namespace perfbench
