#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace vecdb::obs {

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kBufmgrHit: return "bufmgr.hit";
    case Counter::kBufmgrMiss: return "bufmgr.miss";
    case Counter::kBufmgrEviction: return "bufmgr.eviction";
    case Counter::kBufmgrPin: return "bufmgr.pin";
    case Counter::kWalRecords: return "wal.records";
    case Counter::kWalBytes: return "wal.bytes";
    case Counter::kWalCheckpoints: return "wal.checkpoints";
    case Counter::kWalRecoveredPages: return "wal.recovered_pages";
    case Counter::kWalPageImages: return "wal.page_images";
    case Counter::kSgemmCalls: return "sgemm.calls";
    case Counter::kKernelSq8Blocks: return "kernel.sq8_blocks";
    case Counter::kKernelSq8Codes: return "kernel.sq8_codes";
    case Counter::kFaissQueries: return "faiss.queries";
    case Counter::kFaissBatchQueries: return "faiss.batch_queries";
    case Counter::kFaissBucketsProbed: return "faiss.buckets_probed";
    case Counter::kFaissTuplesVisited: return "faiss.tuples_visited";
    case Counter::kFaissHeapPushes: return "faiss.heap_pushes";
    case Counter::kFaissBuilds: return "faiss.builds";
    case Counter::kPaseQueries: return "pase.queries";
    case Counter::kPaseBucketsProbed: return "pase.buckets_probed";
    case Counter::kPaseTuplesVisited: return "pase.tuples_visited";
    case Counter::kPaseHeapPushes: return "pase.heap_pushes";
    case Counter::kPaseBuilds: return "pase.builds";
    case Counter::kBridgeQueries: return "bridge.queries";
    case Counter::kBridgeBucketsProbed: return "bridge.buckets_probed";
    case Counter::kBridgeTuplesVisited: return "bridge.tuples_visited";
    case Counter::kSqlStatements: return "sql.statements";
    case Counter::kSqlCreateTable: return "sql.create_table";
    case Counter::kSqlCreateIndex: return "sql.create_index";
    case Counter::kSqlInsertRows: return "sql.insert_rows";
    case Counter::kSqlSelect: return "sql.select";
    case Counter::kSqlDelete: return "sql.delete";
    case Counter::kSqlDrop: return "sql.drop";
    case Counter::kSqlShow: return "sql.show";
    case Counter::kSqlCheckpoint: return "sql.checkpoint";
    case Counter::kSqlSet: return "sql.set";
    case Counter::kSqlCancel: return "sql.cancel";
    case Counter::kSqlErrors: return "sql.errors";
    case Counter::kFilterPrefilterQueries: return "filter.prefilter_queries";
    case Counter::kFilterPostfilterQueries:
      return "filter.postfilter_queries";
    case Counter::kFilterInfilterQueries: return "filter.infilter_queries";
    case Counter::kFilterKampRetries: return "filter.kamp_retries";
    case Counter::kFilterBitmapProbes: return "filter.bitmap_probes";
    case Counter::kSessionCreated: return "session.created";
    case Counter::kSessionClosed: return "session.closed";
    case Counter::kSessionQueued: return "session.queued";
    case Counter::kSessionAdmitted: return "session.admitted";
    case Counter::kServerConnsAccepted: return "server.connections_accepted";
    case Counter::kServerConnsRejected: return "server.connections_rejected";
    case Counter::kServerFramesIn: return "server.frames_in";
    case Counter::kServerFramesOut: return "server.frames_out";
    case Counter::kServerBytesIn: return "server.bytes_in";
    case Counter::kServerBytesOut: return "server.bytes_out";
    case Counter::kServerProtocolErrors: return "server.protocol_errors";
    case Counter::kServerStatements: return "server.statements";
    case Counter::kServerCancelFrames: return "server.cancel_frames";
    case Counter::kServerStatementCancels:
      return "server.statement_cancels";
    case Counter::kServerStatementTimeouts:
      return "server.statement_timeouts";
    case Counter::kNumCounters: break;
  }
  return "unknown";
}

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kFaissSearchNanos: return "faiss.search_nanos";
    case Hist::kPaseSearchNanos: return "pase.search_nanos";
    case Hist::kBridgeSearchNanos: return "bridge.search_nanos";
    case Hist::kFaissBuildNanos: return "faiss.build_nanos";
    case Hist::kPaseBuildNanos: return "pase.build_nanos";
    case Hist::kSqlSelectNanos: return "sql.select_nanos";
    case Hist::kSqlInsertNanos: return "sql.insert_nanos";
    case Hist::kSqlDdlNanos: return "sql.ddl_nanos";
    case Hist::kFilterSelectivityBp: return "filter.selectivity_bp";
    case Hist::kSessionQueueWaitNanos: return "session.queue_wait_nanos";
    case Hist::kServerStatementNanos: return "server.statement_nanos";
    case Hist::kSqlWriteLockWaitNanos: return "sql.write_lock_wait_nanos";
    case Hist::kNumHists: break;
  }
  return "unknown";
}

size_t Histogram::BucketIndex(uint64_t v) {
  // Values below two octaves of sub-buckets map to themselves (exact).
  if (v < 2 * kSub) return static_cast<size_t>(v);
  const uint32_t msb = static_cast<uint32_t>(std::bit_width(v)) - 1;
  const uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(msb + 1 - kSubBits) * kSub +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 2 * kSub) return index;
  const uint32_t octave = static_cast<uint32_t>(index / kSub);
  const uint64_t sub = index % kSub;
  const uint32_t msb = octave + kSubBits - 1;
  return (uint64_t{1} << msb) | (sub << (msb - kSubBits));
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Min() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<uint64_t>::max() ? 0 : m;
}

double Histogram::Mean() const {
  const uint64_t n = TotalCount();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

double Histogram::Percentile(double q) const {
  const uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target (1-based), interpolated inside the landing bucket.
  const double rank = q * static_cast<double>(total);
  double cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (cum + static_cast<double>(c) >= rank) {
      const double frac =
          std::clamp((rank - cum) / static_cast<double>(c), 0.0, 1.0);
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = i + 1 < kNumBuckets
                            ? static_cast<double>(BucketLowerBound(i + 1))
                            : lo;
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(Min()),
                        static_cast<double>(Max()));
    }
    cum += static_cast<double>(c);
  }
  return static_cast<double>(Max());
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

uint32_t MetricsRegistry::ShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

uint64_t MetricsRegistry::Value(Counter c) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.slots[static_cast<uint32_t>(c)].load(
        std::memory_order_relaxed);
  }
  return total;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(snapshot_mu_);
  for (Shard& shard : shards_) {
    for (auto& slot : shard.slots) slot.store(0, std::memory_order_relaxed);
  }
  for (auto& h : hists_) h.Reset();
}

std::string MetricsRegistry::ExportTable() const {
  MutexLock lock(snapshot_mu_);
  std::string out;
  char line[160];
  out += "counter                        value\n";
  for (uint32_t c = 0; c < static_cast<uint32_t>(Counter::kNumCounters);
       ++c) {
    std::snprintf(line, sizeof(line), "%-30s %llu\n",
                  CounterName(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(
                      Value(static_cast<Counter>(c))));
    out += line;
  }
  out += "\nhistogram                      count        p50        p95"
         "        p99        max\n";
  for (uint32_t h = 0; h < static_cast<uint32_t>(Hist::kNumHists); ++h) {
    const Histogram& hist = hists_[h];
    std::snprintf(line, sizeof(line),
                  "%-30s %5llu %10.0f %10.0f %10.0f %10llu\n",
                  HistName(static_cast<Hist>(h)),
                  static_cast<unsigned long long>(hist.TotalCount()),
                  hist.Percentile(0.50), hist.Percentile(0.95),
                  hist.Percentile(0.99),
                  static_cast<unsigned long long>(hist.Max()));
    out += line;
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  MutexLock lock(snapshot_mu_);
  std::string out = "{\"counters\":{";
  char buf[160];
  for (uint32_t c = 0; c < static_cast<uint32_t>(Counter::kNumCounters);
       ++c) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", c == 0 ? "" : ",",
                  CounterName(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(
                      Value(static_cast<Counter>(c))));
    out += buf;
  }
  out += "},\"histograms\":{";
  for (uint32_t h = 0; h < static_cast<uint32_t>(Hist::kNumHists); ++h) {
    const Histogram& hist = hists_[h];
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"count\":%llu,\"mean\":%.1f,\"p50\":%.1f,"
        "\"p95\":%.1f,\"p99\":%.1f,\"max\":%llu}",
        h == 0 ? "" : ",", HistName(static_cast<Hist>(h)),
        static_cast<unsigned long long>(hist.TotalCount()), hist.Mean(),
        hist.Percentile(0.50), hist.Percentile(0.95), hist.Percentile(0.99),
        static_cast<unsigned long long>(hist.Max()));
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace vecdb::obs
