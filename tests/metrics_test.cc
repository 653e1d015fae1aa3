#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "sql/database.h"
#include "sql/session.h"
#include "temp_path.h"

namespace vecdb::obs {
namespace {

// --- Histogram bucket math, pinned exactly -------------------------------

TEST(HistogramBuckets, ExactBelowTwoOctaves) {
  // Values below 2 * kSub (= 16) map to themselves.
  for (uint64_t v = 0; v < 2 * Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<size_t>(v)) << v;
    EXPECT_EQ(Histogram::BucketLowerBound(v), v) << v;
  }
}

TEST(HistogramBuckets, PinnedIndices) {
  // First log bucket: 16 and 17 share index 16 (width 2).
  EXPECT_EQ(Histogram::BucketIndex(16), 16u);
  EXPECT_EQ(Histogram::BucketIndex(17), 16u);
  EXPECT_EQ(Histogram::BucketIndex(18), 17u);
  // 500 lands in [480, 512), bucket 55 (octave msb=8, width 32).
  EXPECT_EQ(Histogram::BucketIndex(500), 55u);
  EXPECT_EQ(Histogram::BucketLowerBound(55), 480u);
  EXPECT_EQ(Histogram::BucketLowerBound(56), 512u);
  // Power-of-two boundaries start their own bucket.
  EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(512)), 512u);
  EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(1024)), 1024u);
}

TEST(HistogramBuckets, LowerBoundInvertsIndexEverywhere) {
  // For a spread of magnitudes: the lower bound of v's bucket is <= v, and
  // v is below the next bucket's lower bound (monotone partition).
  const std::vector<uint64_t> probes = {
      0,       1,       15,         16,        31, 32, 100, 500, 4095, 4096,
      1000000, 123456789, uint64_t{1} << 40, (uint64_t{1} << 62) + 12345};
  for (uint64_t v : probes) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_LE(Histogram::BucketLowerBound(idx), v) << v;
    if (idx + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketLowerBound(idx + 1), v) << v;
    }
    // Relative width bound: one bucket spans at most 12.5% of its base.
    if (v >= 2 * Histogram::kSub && idx + 1 < Histogram::kNumBuckets) {
      const double lo = static_cast<double>(Histogram::BucketLowerBound(idx));
      const double hi =
          static_cast<double>(Histogram::BucketLowerBound(idx + 1));
      EXPECT_LE((hi - lo) / lo, 0.125 + 1e-9) << v;
    }
  }
}

// --- Percentile math, pinned for a known synthetic distribution ----------

TEST(HistogramPercentiles, UniformOneToThousand) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.TotalCount(), 1000u);
  EXPECT_EQ(h.Sum(), 500500u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
  // Pinned by the bucket layout: rank 500 interpolates to 501 inside
  // [480, 512), rank 950 to 951 inside [896, 960), and rank 990
  // extrapolates past the data so it clamps to Max().
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 501.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.95), 951.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 1000.0);
}

TEST(HistogramPercentiles, SingleValueDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 7.0);
  EXPECT_EQ(h.Min(), 7u);
  EXPECT_EQ(h.Max(), 7u);
}

TEST(HistogramPercentiles, EmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramPercentiles, ClampsToRecordedRange) {
  Histogram h;
  h.Record(100);
  h.Record(100000);
  EXPECT_GE(h.Percentile(0.0), 100.0);
  EXPECT_LE(h.Percentile(1.0), 100000.0);
}

// --- Registry semantics --------------------------------------------------

TEST(MetricsRegistry, DisabledDropsAndEnabledCounts) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.Add(Counter::kFaissQueries, 5);
  reg.Record(Hist::kFaissSearchNanos, 123);
  EXPECT_EQ(reg.Value(Counter::kFaissQueries), 0u);
  EXPECT_EQ(reg.histogram(Hist::kFaissSearchNanos).TotalCount(), 0u);

  reg.SetEnabled(true);
  reg.Add(Counter::kFaissQueries, 5);
  reg.Add(Counter::kFaissQueries);
  reg.Record(Hist::kFaissSearchNanos, 123);
  EXPECT_EQ(reg.Value(Counter::kFaissQueries), 6u);
  EXPECT_EQ(reg.histogram(Hist::kFaissSearchNanos).TotalCount(), 1u);

  reg.ResetAll();
  EXPECT_EQ(reg.Value(Counter::kFaissQueries), 0u);
  EXPECT_EQ(reg.histogram(Hist::kFaissSearchNanos).TotalCount(), 0u);
}

TEST(MetricsRegistry, ConcurrentIncrementsLoseNoUpdates) {
  MetricsRegistry reg;
  reg.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        reg.AddUnchecked(Counter::kBufmgrHit);
        if ((i & 1023) == 0) {
          reg.RecordUnchecked(Hist::kFaissSearchNanos, i + 1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.Value(Counter::kBufmgrHit), kThreads * kPerThread);
  // (i & 1023) == 0 fires for i = 0, 1024, ... -> ceil(kPerThread / 1024).
  EXPECT_EQ(reg.histogram(Hist::kFaissSearchNanos).TotalCount(),
            kThreads * ((kPerThread + 1023) / 1024));
}

TEST(MetricsRegistry, LatencyScopeRecordsOncePerScope) {
  MetricsRegistry reg;
  reg.SetEnabled(true);
  { LatencyScope scope(&reg, Hist::kSqlSelectNanos); }
  { LatencyScope scope(nullptr, Hist::kSqlSelectNanos); }  // one branch
  EXPECT_EQ(reg.histogram(Hist::kSqlSelectNanos).TotalCount(), 1u);
}

TEST(MetricsRegistry, ExportsCarryDottedNames) {
  MetricsRegistry reg;
  reg.SetEnabled(true);
  reg.Add(Counter::kBufmgrHit, 3);
  reg.Record(Hist::kPaseSearchNanos, 42);
  const std::string table = reg.ExportTable();
  EXPECT_NE(table.find("bufmgr.hit"), std::string::npos);
  EXPECT_NE(table.find("pase.search_nanos"), std::string::npos);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"bufmgr.hit\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pase.search_nanos\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, SessionMetricsExportUnderDottedNames) {
  // The session front end's counters and queue-wait histogram must surface
  // in both export formats so SHOW METRICS exposes admission behavior.
  MetricsRegistry reg;
  reg.SetEnabled(true);
  reg.Add(Counter::kSessionCreated, 2);
  reg.Add(Counter::kSessionClosed);
  reg.Add(Counter::kSessionQueued, 3);
  reg.Add(Counter::kSessionAdmitted, 4);
  reg.Record(Hist::kSessionQueueWaitNanos, 1234);
  const std::string table = reg.ExportTable();
  EXPECT_NE(table.find("session.created"), std::string::npos);
  EXPECT_NE(table.find("session.closed"), std::string::npos);
  EXPECT_NE(table.find("session.queued"), std::string::npos);
  EXPECT_NE(table.find("session.admitted"), std::string::npos);
  EXPECT_NE(table.find("session.queue_wait_nanos"), std::string::npos);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"session.created\":2"), std::string::npos);
  EXPECT_NE(json.find("\"session.queued\":3"), std::string::npos);
  EXPECT_NE(json.find("\"session.admitted\":4"), std::string::npos);
  EXPECT_NE(json.find("\"session.queue_wait_nanos\""), std::string::npos);
}

TEST(MetricsRegistry, CounterNamesAreUniqueAndKnown) {
  std::vector<std::string> names;
  for (uint32_t c = 0; c < static_cast<uint32_t>(Counter::kNumCounters);
       ++c) {
    names.emplace_back(CounterName(static_cast<Counter>(c)));
  }
  for (uint32_t h = 0; h < static_cast<uint32_t>(Hist::kNumHists); ++h) {
    names.emplace_back(HistName(static_cast<Hist>(h)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_NE(names[i], "unknown") << i;
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(SearchCounters, MergeAndFlush) {
  SearchCounters a{1, 10, 8};
  SearchCounters b{2, 20, 19};
  a.MergeFrom(b);
  EXPECT_EQ(a.buckets_probed, 3u);
  EXPECT_EQ(a.tuples_visited, 30u);
  EXPECT_EQ(a.heap_pushes, 27u);

  MetricsRegistry reg;
  reg.SetEnabled(true);
  a.FlushTo(&reg, Counter::kFaissBucketsProbed, Counter::kFaissTuplesVisited,
            Counter::kFaissHeapPushes);
  EXPECT_EQ(reg.Value(Counter::kFaissBucketsProbed), 3u);
  EXPECT_EQ(reg.Value(Counter::kFaissTuplesVisited), 30u);
  EXPECT_EQ(reg.Value(Counter::kFaissHeapPushes), 27u);
}

// --- The SQL layer's table-lock wait -------------------------------------

TEST(SqlMetrics, EachWriteStatementRecordsOneTableLockWait) {
  // sql.write_lock_wait_nanos samples the exclusive table-lock acquire of
  // INSERT and DELETE, once per statement; a SELECT records nothing.
  const std::string dir = TempPath("metrics_write_lock_wait");
  std::filesystem::remove_all(dir);
  {
    auto db = sql::MiniDatabase::Open(dir).ValueOrDie();
    auto session = db->CreateSession();
    auto must = [&](const std::string& sql) {
      auto result = session->Execute(sql);
      EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
      return result.ok() ? result->message : std::string();
    };
    must("CREATE TABLE t (id int, vec float[2])");
    must("CREATE TABLE u (id int, vec float[2])");
    must("INSERT INTO u VALUES (7, '0,0')");
    must("CREATE INDEX u_idx ON u USING hnsw (vec)");
    const Histogram& waits =
        MetricsRegistry::Global().histogram(Hist::kSqlWriteLockWaitNanos);
    const uint64_t before = waits.TotalCount();
    must("INSERT INTO t VALUES (1, '1,0'), (2, '0,1')");
    EXPECT_EQ(waits.TotalCount(), before + 1);
    must("SELECT id FROM t ORDER BY vec <-> '1,0' LIMIT 1");  // seq scan
    must("SELECT id FROM u ORDER BY vec <-> '1,0' LIMIT 1");  // index scan
    EXPECT_EQ(waits.TotalCount(), before + 1);
    must("DELETE FROM t WHERE id = 1");
    EXPECT_EQ(waits.TotalCount(), before + 2);
    EXPECT_NE(must("SHOW METRICS").find("sql.write_lock_wait_nanos"),
              std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vecdb::obs
