// Process-wide observability substrate: cheap always-on counters and
// log-bucketed latency histograms, in the spirit of RocksDB's
// Statistics/PerfContext split. The paper's entire method is measurement —
// its root-cause tables (Table III/V, Fig 8) are per-phase breakdowns — and
// a serving engine needs the same numbers live: buffer hit rates (RC#2/
// RC#4), SGEMM batching (RC#1), heap discipline (RC#6), and percentile
// query latencies.
//
// Cost contract, mirroring the nullable Profiler*: when a registry is
// disabled (or the caller holds a null pointer from
// QueryContext::live_metrics()), each instrumentation scope costs exactly
// one predictable branch. When enabled, counters are relaxed atomic adds on
// thread-sharded cachelines and histogram records are one relaxed atomic
// add plus min/max maintenance.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/thread_annotations.h"
#include "common/timer.h"

namespace vecdb::obs {

/// Process counters ("tickers"). Names are dotted `layer.metric` strings;
/// see CounterName() and docs/OBSERVABILITY.md for the catalog and the
/// mapping back to the paper's tables and root causes.
enum class Counter : uint32_t {
  // pgstub buffer manager (RC#2: page-mediated tuple access; RC#4 sizing).
  kBufmgrHit = 0,
  kBufmgrMiss,
  kBufmgrEviction,
  kBufmgrPin,
  // write-ahead log (the generalized engine's write tax).
  kWalRecords,
  kWalBytes,
  kWalCheckpoints,
  kWalRecoveredPages,
  kWalPageImages,  ///< full-page images logged
  // distance kernels (RC#1: batched SGEMM-decomposed distances).
  kSgemmCalls,
  kKernelSq8Blocks,  ///< SQ8 fast-scan blocks (Sq8CodeStore::kBlockCodes grain)
  kKernelSq8Codes,   ///< SQ8 codes scanned through the batched kernels
  // faisslike engine search/build.
  kFaissQueries,
  kFaissBatchQueries,
  kFaissBucketsProbed,
  kFaissTuplesVisited,
  kFaissHeapPushes,
  kFaissBuilds,
  // pase engine search/build.
  kPaseQueries,
  kPaseBucketsProbed,
  kPaseTuplesVisited,
  kPaseHeapPushes,
  kPaseBuilds,
  // bridge engine search.
  kBridgeQueries,
  kBridgeBucketsProbed,
  kBridgeTuplesVisited,
  // SQL front end, per statement kind.
  kSqlStatements,
  kSqlCreateTable,
  kSqlCreateIndex,
  kSqlInsertRows,
  kSqlSelect,
  kSqlDelete,
  kSqlDrop,
  kSqlShow,
  kSqlCheckpoint,
  kSqlSet,
  kSqlCancel,
  kSqlErrors,
  // filtered search (src/filter): one counter per executed strategy plus
  // the strategies' characteristic work units.
  kFilterPrefilterQueries,
  kFilterPostfilterQueries,
  kFilterInfilterQueries,
  kFilterKampRetries,    ///< post-filter k' doublings after a shortfall
  kFilterBitmapProbes,   ///< in-filter bitmap tests inside index traversal
  // multi-session front end (src/sql/session): lifecycle + admission.
  kSessionCreated,
  kSessionClosed,
  kSessionQueued,    ///< statements that waited for an admission slot
  kSessionAdmitted,  ///< statements granted an execution slot
  // networked server front end (src/net): connections, frame/byte traffic,
  // and statement-abort outcomes. The cancel/timeout counters tick in the
  // SQL layer (any transport), the rest in VecServer itself.
  kServerConnsAccepted,    ///< connections admitted by the listener
  kServerConnsRejected,    ///< connections refused at max_connections
  kServerFramesIn,         ///< complete frames decoded from clients
  kServerFramesOut,        ///< frames written to clients
  kServerBytesIn,          ///< payload+header bytes read from sockets
  kServerBytesOut,         ///< payload+header bytes written to sockets
  kServerProtocolErrors,   ///< malformed/torn/mismatched frames rejected
  kServerStatements,       ///< statements executed on behalf of clients
  kServerCancelFrames,     ///< out-of-band cancel frames received
  kServerStatementCancels,  ///< statements aborted by an explicit cancel
  kServerStatementTimeouts, ///< statements aborted by statement_timeout_ms
  kNumCounters,  // sentinel
};

/// Latency histograms, all in nanoseconds.
enum class Hist : uint32_t {
  kFaissSearchNanos = 0,
  kPaseSearchNanos,
  kBridgeSearchNanos,
  kFaissBuildNanos,
  kPaseBuildNanos,
  kSqlSelectNanos,
  kSqlInsertNanos,
  kSqlDdlNanos,
  /// Estimated selectivity of each filtered search, in basis points
  /// (0..10000) — the one non-latency histogram; its distribution shows
  /// which strategy regimes a workload actually exercises.
  kFilterSelectivityBp,
  /// Time each statement spent waiting for admission before executing
  /// (~0 on the uncontended fast path; the tail shows queueing).
  kSessionQueueWaitNanos,
  /// End-to-end server-side statement latency (decode to response frame
  /// queued), the networked analogue of sql.select_nanos.
  kServerStatementNanos,
  /// Time an INSERT or DELETE waited for its table's writer lock: other
  /// writers, and index scans only while they plan.
  kSqlWriteLockWaitNanos,
  kNumHists,  // sentinel
};

/// Dotted metric name, e.g. "bufmgr.hit". Stable across releases; bench
/// tooling keys on these strings.
const char* CounterName(Counter c);
const char* HistName(Hist h);

/// Lock-free log-bucketed histogram. Buckets are exact for values below
/// 2^(kSubBits+1) and then split each power-of-two octave into
/// 2^kSubBits sub-buckets, so the relative bucket width is bounded by
/// 2^-kSubBits (12.5% at kSubBits=3). Percentiles interpolate linearly
/// inside a bucket and clamp to the recorded [min, max].
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSub = 1u << kSubBits;
  /// Octaves for msb 0..63 plus the sub-bucket tail of the last octave.
  static constexpr size_t kNumBuckets = (64 - kSubBits) * kSub + kSub;

  /// Index of the bucket holding `v`. Pure bit math; pinned by tests.
  static size_t BucketIndex(uint64_t v);

  /// Smallest value mapping to bucket `index` (inclusive lower edge).
  static uint64_t BucketLowerBound(size_t index);

  Histogram() { Reset(); }

  /// Records one observation. Thread-safe; never loses updates.
  void Record(uint64_t value);

  /// Number of recorded observations.
  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const;  ///< smallest recorded value (0 when empty)
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Value at quantile `q` in [0, 1]: nearest-rank walk over the buckets
  /// with linear interpolation inside the landing bucket, clamped to the
  /// recorded [Min(), Max()]. Exact when every observation shares one
  /// bucket; otherwise within one bucket width (<= 12.5% relative).
  double Percentile(double q) const;

  /// Drops all observations. Not atomic with respect to concurrent
  /// Record() calls; quiesce writers first.
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets];
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_;
  std::atomic<uint64_t> min_;  ///< UINT64_MAX when empty
  std::atomic<uint64_t> max_;
};

/// A set of named counters and histograms. One process-wide instance
/// (Global()) backs always-on serving metrics; tests may build local
/// instances and point a QueryContext at them.
///
/// Counters are sharded: each thread is assigned one of kNumShards
/// cacheline-aligned slot arrays, so concurrent increments from a thread
/// pool do not contend on one line. Reads sum every shard.
class MetricsRegistry {
 public:
  static constexpr uint32_t kNumShards = 16;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Disabled by default so un-instrumented
  /// binaries (micro benches) pay only the enabled() branch; the SQL layer
  /// and serving harnesses switch it on.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Adds `n` to counter `c` if the registry is enabled (one branch).
  void Add(Counter c, uint64_t n = 1) {
    if (!enabled()) return;
    AddUnchecked(c, n);
  }

  /// Adds without the enabled check — for callers already holding a
  /// live (enabled) registry pointer from QueryContext::live_metrics().
  void AddUnchecked(Counter c, uint64_t n = 1) {
    shards_[ShardIndex()]
        .slots[static_cast<uint32_t>(c)]
        .fetch_add(n, std::memory_order_relaxed);
  }

  /// Current value of counter `c` (sums all shards).
  uint64_t Value(Counter c) const;

  /// Records `nanos` into histogram `h` if enabled (one branch).
  void Record(Hist h, uint64_t value) {
    if (!enabled()) return;
    RecordUnchecked(h, value);
  }
  void RecordUnchecked(Hist h, uint64_t value) {
    hists_[static_cast<uint32_t>(h)].Record(value);
  }

  const Histogram& histogram(Hist h) const {
    return hists_[static_cast<uint32_t>(h)];
  }

  /// Zeroes every counter and histogram. Quiesce writers first (Record/
  /// Add are relaxed atomics the reset cannot exclude), but concurrent
  /// exports are safe: resets and exports serialize on snapshot_mu_, so
  /// an export never observes a half-zeroed registry.
  void ResetAll() VECDB_EXCLUDES(snapshot_mu_);

  /// Human-readable two-section table (counters, then histograms with
  /// count/p50/p95/p99/max). The `SHOW METRICS` statement returns this.
  std::string ExportTable() const VECDB_EXCLUDES(snapshot_mu_);

  /// Machine-readable JSON object {"counters": {...}, "histograms": {...}}
  /// for bench tooling.
  std::string ExportJson() const VECDB_EXCLUDES(snapshot_mu_);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> slots[static_cast<size_t>(Counter::kNumCounters)];
    Shard() {
      for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    }
  };

  /// Stable per-thread shard assignment (round-robin at first use).
  static uint32_t ShardIndex();

  std::atomic<bool> enabled_{false};
  Shard shards_[kNumShards];
  Histogram hists_[static_cast<size_t>(Hist::kNumHists)];
  /// Serializes whole-registry snapshots (ResetAll vs Export*). The hot
  /// write path (Add/Record) stays lock-free; this mutex only orders the
  /// rare control-plane operations against each other.
  mutable Mutex snapshot_mu_;
};

/// RAII latency scope over a (nullable) live registry pointer: null costs
/// one branch, mirroring ProfScope's contract with a null Profiler.
class LatencyScope {
 public:
  LatencyScope(MetricsRegistry* metrics, Hist hist)
      : metrics_(metrics), hist_(hist) {
    if (metrics_ != nullptr) start_ = NowNanos();
  }
  ~LatencyScope() {
    if (metrics_ != nullptr) {
      metrics_->RecordUnchecked(
          hist_, static_cast<uint64_t>(NowNanos() - start_));
    }
  }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  MetricsRegistry* metrics_;
  Hist hist_;
  int64_t start_ = 0;
};

/// Per-query scratch counters engines accumulate with plain arithmetic in
/// their scan loops, then flush into the registry once per query (or once
/// per worker), keeping atomics off the innermost hot path.
struct SearchCounters {
  uint64_t buckets_probed = 0;
  uint64_t tuples_visited = 0;
  uint64_t heap_pushes = 0;
  uint64_t bitmap_probes = 0;  ///< filter.bitmap_probes (gated scans)
  uint64_t sq8_blocks = 0;     ///< kernel.sq8_blocks (SQ8 fast scan)
  uint64_t sq8_codes = 0;      ///< kernel.sq8_codes (SQ8 fast scan)

  void MergeFrom(const SearchCounters& other) {
    buckets_probed += other.buckets_probed;
    tuples_visited += other.tuples_visited;
    heap_pushes += other.heap_pushes;
    bitmap_probes += other.bitmap_probes;
    sq8_blocks += other.sq8_blocks;
    sq8_codes += other.sq8_codes;
  }

  /// Flushes into `m` under the caller's engine-specific counter names
  /// (faiss.*, pase.*, ...); the filter and SQ8 kernel counters are
  /// engine-neutral and only touched when the scan did that work. `m`
  /// must be a live (enabled) registry.
  void FlushTo(MetricsRegistry* m, Counter buckets, Counter tuples,
               Counter pushes) const {
    m->AddUnchecked(buckets, buckets_probed);
    m->AddUnchecked(tuples, tuples_visited);
    m->AddUnchecked(pushes, heap_pushes);
    if (bitmap_probes != 0) {
      m->AddUnchecked(Counter::kFilterBitmapProbes, bitmap_probes);
    }
    if (sq8_codes != 0) {
      m->AddUnchecked(Counter::kKernelSq8Blocks, sq8_blocks);
      m->AddUnchecked(Counter::kKernelSq8Codes, sq8_codes);
    }
  }
};

}  // namespace vecdb::obs
