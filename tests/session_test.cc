// Session front-end tests: the epoch reclamation primitive, session
// lifecycle and per-session state, admission control (global and
// per-session caps, provably pinned via the statement hook), result-value
// independence, an INSERT returning while an index scan runs, and
// multi-session stress with a snapshot-visibility oracle. ci/run_checks.sh also runs the stress suite under TSan and the
// whole binary under ASan/UBSan.
#include "sql/session.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "pgstub/epoch.h"
#include "sql/database.h"

namespace vecdb::sql {
namespace {

// ---------------------------------------------------------------------------
// EpochManager: the reclamation primitive under the snapshot protocol.

TEST(EpochManagerTest, RetireDefersUntilLastReaderExits) {
  pgstub::EpochManager epochs;
  const uint64_t pinned = epochs.Enter();
  bool freed = false;
  epochs.Retire([&] { freed = true; });
  EXPECT_EQ(epochs.ReclaimReady(), 0u);  // reader still pinned
  EXPECT_FALSE(freed);
  epochs.Exit(pinned);
  EXPECT_EQ(epochs.ReclaimReady(), 1u);
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, ReaderEnteringAfterRetireDoesNotBlockIt) {
  pgstub::EpochManager epochs;
  bool freed = false;
  epochs.Retire([&] { freed = true; });
  // This reader pinned an epoch AFTER the retirement, so it can only see
  // the replacement object: the retired one may be reclaimed under it.
  pgstub::EpochGuard guard(&epochs);
  EXPECT_EQ(epochs.ReclaimReady(), 1u);
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, AccountingAndReclaimAll) {
  pgstub::EpochManager epochs;
  int freed = 0;
  {
    pgstub::EpochGuard guard(&epochs);
    EXPECT_EQ(epochs.active_readers(), 1u);
    epochs.Retire([&] { ++freed; });
    epochs.Retire([&] { ++freed; });
    EXPECT_EQ(epochs.retired_pending(), 2u);
  }
  EXPECT_EQ(epochs.active_readers(), 0u);
  EXPECT_EQ(epochs.ReclaimAll(), 2u);
  EXPECT_EQ(freed, 2);
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

// ---------------------------------------------------------------------------
// Shared fixture plumbing.

/// This process's databases live under one directory named by the
/// process id, so overlapping runs of this binary (from different build
/// trees) never delete each other's; it is removed when the run ends.
const std::string& ProcessRoot() {
  static const std::string root =
      ::testing::TempDir() + "/session_" + std::to_string(::getpid());
  return root;
}

class RemoveProcessRoot : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(ProcessRoot()); }
};
[[maybe_unused]] ::testing::Environment* const kRemoveProcessRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveProcessRoot);

/// A fresh directory for the running test.
std::string TestDir(const char* suffix) {
  std::string dir = ProcessRoot() + "/" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    "_" + suffix;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(ProcessRoot());
  return dir;
}

DatabaseOptions SmallPool() {
  DatabaseOptions options;
  options.pool_pages = 256;
  return options;
}

std::string Vec4(int seed) {
  return std::to_string(seed % 7) + "," + std::to_string((seed / 7) % 7) +
         "," + std::to_string((seed / 49) % 7) + "," + std::to_string(seed);
}

/// Multi-row INSERT for ids [first, first + count).
std::string InsertBatch(int64_t first, int count) {
  std::string sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < count; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(first + i) + ", '" +
           Vec4(static_cast<int>(first + i)) + "')";
  }
  return sql;
}

/// Parks every statement admitted while armed, so tests can pin the
/// admission state (parked statements hold their slots; queued ones sit
/// in Admit). Wired into DatabaseOptions::statement_hook_for_test.
class StatementGate {
 public:
  void Arm() {
    MutexLock lock(mu_);
    armed_ = true;
    open_ = false;
  }

  /// Lets every parked (and future) statement through.
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  size_t parked() const {
    MutexLock lock(mu_);
    return parked_;
  }

  void Hook(uint64_t /*session_id*/) {
    MutexLock lock(mu_);
    if (!armed_ || open_) return;
    ++parked_;
    while (!open_) lock.Wait(cv_);
  }

 private:
  mutable Mutex mu_;
  std::condition_variable cv_;
  bool armed_ VECDB_GUARDED_BY(mu_) = false;
  bool open_ VECDB_GUARDED_BY(mu_) = false;
  size_t parked_ VECDB_GUARDED_BY(mu_) = 0;
};

/// Polls `cond` until it holds or ~5s pass; returns whether it held.
bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 5000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// ---------------------------------------------------------------------------
// Session lifecycle and per-session state.

TEST(SessionApiTest, CreateEnumerateCloseAndIdsNeverReused) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto a = db->CreateSession();
  auto b = db->CreateSession();
  EXPECT_LT(a->id(), b->id());
  EXPECT_EQ(db->session_manager()->alive(), 2u);

  const uint64_t b_id = b->id();
  b.reset();  // dropping the handle retires the session
  EXPECT_EQ(db->session_manager()->alive(), 1u);
  auto c = db->CreateSession();
  EXPECT_GT(c->id(), b_id);  // ids are never reused

  auto snapshot = db->session_manager()->Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0]->id(), a->id());  // ascending by id
  EXPECT_EQ(snapshot[1]->id(), c->id());

  a->Close();
  EXPECT_TRUE(a->closed());
  a->Close();  // idempotent
  auto closed = a->Execute("SHOW METRICS");
  EXPECT_TRUE(closed.status().IsInvalidArgument());
  EXPECT_TRUE(c->Execute("SHOW METRICS").ok());  // others unaffected
}

TEST(SessionApiTest, ExecuteUpdatesStatementStats) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto session = db->CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(session->Execute(InsertBatch(0, 8)).ok());
  auto result = session->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(session->statements_executed(), 3u);
  const QueryResult::ExecStats stats = session->last_stats();
  EXPECT_EQ(stats.rows_returned, 3u);
  EXPECT_EQ(stats.rows_scanned, 8u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  // A failed statement counts as executed but leaves last_stats alone.
  EXPECT_FALSE(session->Execute("SELECT id FROM ghost ORDER BY vec <#> "
                                "'1,1,1,1' LIMIT 1")
                   .ok());
  EXPECT_EQ(session->statements_executed(), 4u);
  EXPECT_EQ(session->last_stats().rows_returned, 3u);
}

TEST(SessionApiTest, DefaultOptionsMergeUnderExplicitOptions) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto session = db->CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(session->Execute(InsertBatch(b * 16, 16)).ok());
  }
  ASSERT_TRUE(session->Execute("CREATE INDEX t_idx ON t USING ivfflat "
                               "(vec) WITH (clusters=4, sample_ratio=1)")
                  .ok());
  const std::string prefix = "SELECT id FROM t ORDER BY vec <-> '1,1,1,1' ";
  const std::string plain = prefix + "LIMIT 2";
  const std::string all_probes = prefix + "OPTIONS (nprobe=4) LIMIT 2";

  // Probing all clusters visits every tuple; the session default nprobe=1
  // must shrink that, and an explicit OPTIONS must win over the default.
  ASSERT_TRUE(session->Execute(all_probes).ok());
  const uint64_t all_clusters = session->last_stats().rows_scanned;
  EXPECT_EQ(all_clusters, 64u);

  session->SetDefaultOption("nprobe", 1);
  ASSERT_TRUE(session->Execute(plain).ok());
  EXPECT_LT(session->last_stats().rows_scanned, all_clusters);
  ASSERT_TRUE(session->Execute(all_probes).ok());
  EXPECT_EQ(session->last_stats().rows_scanned, all_clusters);

  session->ClearDefaultOption("nprobe");
  ASSERT_TRUE(session->Execute(plain).ok());  // default 20, clamped to 4
  EXPECT_EQ(session->last_stats().rows_scanned, all_clusters);
}

TEST(SessionApiTest, MetricsSinkRoutesIndexScanCounters) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto session = db->CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(session->Execute(InsertBatch(0, 32)).ok());
  ASSERT_TRUE(session->Execute("CREATE INDEX t_idx ON t USING ivfflat "
                               "(vec) WITH (clusters=2, sample_ratio=1)")
                  .ok());
  obs::MetricsRegistry sink;
  sink.SetEnabled(true);
  session->SetMetricsSink(&sink);
  ASSERT_TRUE(session->Execute("SELECT id FROM t ORDER BY vec <-> "
                               "'1,1,1,1' OPTIONS (nprobe=2) LIMIT 2")
                  .ok());
  const uint64_t visited = sink.Value(obs::Counter::kPaseTuplesVisited) +
                           sink.Value(obs::Counter::kFaissTuplesVisited) +
                           sink.Value(obs::Counter::kBridgeTuplesVisited);
  EXPECT_EQ(visited, 32u);
  // rows_scanned counts the same tuples the sink saw.
  EXPECT_EQ(session->last_stats().rows_scanned, visited);
  session->SetMetricsSink(nullptr);
}

// rows_scanned is the statement's own tuple count: a second session
// scanning every cluster at the same time must not add to it.
TEST(SessionApiTest, RowsScannedIgnoresAConcurrentSessionsScans) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto reader = db->CreateSession();
  ASSERT_TRUE(reader->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(reader->Execute(InsertBatch(b * 500, 500)).ok());
  }
  ASSERT_TRUE(reader->Execute("CREATE INDEX t_idx ON t USING ivfflat "
                              "(vec) WITH (clusters=4, sample_ratio=1)")
                  .ok());
  const std::string narrow =
      "SELECT id FROM t ORDER BY vec <-> '1,1,1,1' OPTIONS (nprobe=1) "
      "LIMIT 5";
  ASSERT_TRUE(reader->Execute(narrow).ok());
  const uint64_t alone = reader->last_stats().rows_scanned;
  ASSERT_GT(alone, 0u);
  ASSERT_LT(alone, 4000u);

  std::atomic<bool> done{false};
  std::thread wide([&] {
    auto session = db->CreateSession();
    while (!done.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(session
                      ->Execute("SELECT id FROM t ORDER BY vec <-> "
                                "'3,3,3,3' OPTIONS (nprobe=4) LIMIT 5")
                      .ok());
    }
  });
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(reader->Execute(narrow).ok());
    EXPECT_EQ(reader->last_stats().rows_scanned, alone) << "statement " << i;
  }
  done.store(true, std::memory_order_relaxed);
  wide.join();
}

TEST(SessionApiTest, ResultsAreIndependentValues) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto a = db->CreateSession();
  auto b = db->CreateSession();
  ASSERT_TRUE(a->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(a->Execute(InsertBatch(0, 10)).ok());
  auto result =
      a->Execute("SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100");
  ASSERT_TRUE(result.ok());
  const std::vector<QueryResult::Row> rows = result->rows;
  const QueryResult::ExecStats stats = a->last_stats();

  // Later statements on this and other sessions must not disturb the
  // returned value or a copied stats snapshot.
  ASSERT_TRUE(b->Execute("DELETE FROM t WHERE id = 3").ok());
  ASSERT_TRUE(b->Execute(InsertBatch(100, 10)).ok());
  ASSERT_TRUE(
      a->Execute("SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 1")
          .ok());
  ASSERT_EQ(result->rows.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(result->rows[i].id, rows[i].id);
  }
  EXPECT_EQ(stats.rows_returned, 10u);
}

TEST(SessionApiTest, ShowSessionsListsStateAndAdmission) {
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto a = db->CreateSession();
  auto b = db->CreateSession();
  b->Close();
  auto shown = a->Execute("SHOW SESSIONS");
  ASSERT_TRUE(shown.ok());
  const std::string& out = shown->message;
  EXPECT_NE(out.find("session"), std::string::npos);
  EXPECT_NE(out.find("open"), std::string::npos);    // a (executing this)
  EXPECT_NE(out.find("closed"), std::string::npos);  // b
  EXPECT_NE(out.find("admission: running=1"), std::string::npos);
  EXPECT_NE(out.find("max_concurrent=8"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, OpenValidatesCaps) {
  DatabaseOptions options = SmallPool();
  options.max_concurrent_queries = 0;
  EXPECT_TRUE(MiniDatabase::Open(TestDir("a"), options)
                  .status()
                  .IsInvalidArgument());
  options.max_concurrent_queries = 1;
  options.max_inflight_per_session = 0;
  EXPECT_TRUE(MiniDatabase::Open(TestDir("b"), options)
                  .status()
                  .IsInvalidArgument());
}

TEST(AdmissionTest, ConcurrentStatementsPinnedAtCap) {
  StatementGate gate;
  DatabaseOptions options = SmallPool();
  options.max_concurrent_queries = 3;
  options.statement_hook_for_test = [&gate](uint64_t id) { gate.Hook(id); };
  auto db = MiniDatabase::Open(TestDir("data"), options).ValueOrDie();
  auto setup = db->CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(setup->Execute(InsertBatch(0, 4)).ok());

  constexpr int kSessions = 8;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(db->CreateSession());
  }
  gate.Arm();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto result = sessions[i]->Execute(
          "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 4");
      if (result.ok()) ok_count.fetch_add(1);
    });
  }
  // The admission state must settle at exactly cap running, rest queued —
  // and while anything is queued, running never exceeds the cap.
  AdmissionController* admission = db->admission();
  ASSERT_TRUE(WaitFor([&] {
    EXPECT_LE(admission->running(), 3u);
    return admission->running() == 3 && admission->queued() == kSessions - 3;
  })) << "running=" << admission->running()
      << " queued=" << admission->queued();
  EXPECT_EQ(gate.parked(), 3u);  // only admitted statements reached the hook

  gate.Open();
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kSessions);
  EXPECT_EQ(admission->running(), 0u);
  EXPECT_EQ(admission->queued(), 0u);
  uint64_t queued_total = 0;
  for (const auto& s : sessions) queued_total += s->statements_queued();
  EXPECT_EQ(queued_total, static_cast<uint64_t>(kSessions - 3));
}

TEST(AdmissionTest, PerSessionCapDoesNotHeadOfLineBlock) {
  StatementGate gate;
  DatabaseOptions options = SmallPool();
  options.max_concurrent_queries = 4;
  options.max_inflight_per_session = 1;
  options.statement_hook_for_test = [&gate](uint64_t id) { gate.Hook(id); };
  auto db = MiniDatabase::Open(TestDir("data"), options).ValueOrDie();
  auto setup = db->CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(setup->Execute(InsertBatch(0, 4)).ok());
  const std::string query =
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 4";

  auto chatty = db->CreateSession();
  auto other = db->CreateSession();
  gate.Arm();
  std::thread first([&] { ASSERT_TRUE(chatty->Execute(query).ok()); });
  ASSERT_TRUE(WaitFor([&] { return db->admission()->running() == 1; }));
  // The chatty session is now at its cap: its second statement must queue
  // even though three global slots are free...
  std::thread second([&] { ASSERT_TRUE(chatty->Execute(query).ok()); });
  ASSERT_TRUE(WaitFor([&] { return db->admission()->queued() == 1; }));
  // ...and must NOT block a different session behind it in the queue.
  std::thread third([&] { ASSERT_TRUE(other->Execute(query).ok()); });
  ASSERT_TRUE(WaitFor([&] { return db->admission()->running() == 2; }));
  EXPECT_EQ(db->admission()->queued(), 1u);
  EXPECT_EQ(chatty->inflight(), 1u);
  EXPECT_EQ(other->inflight(), 1u);

  gate.Open();
  first.join();
  second.join();
  third.join();
  EXPECT_EQ(chatty->statements_executed(), 2u);
  EXPECT_GE(chatty->statements_queued(), 1u);
  EXPECT_EQ(other->statements_queued(), 0u);
}

// ---------------------------------------------------------------------------
// Index scans and writers.

TEST(IndexScanTest, InsertReturnsWhileAScanRuns) {
  // An index scan holds the table lock only while it plans. Stretched
  // well past its plan by scan_delay_nanos_for_test, it must not hold up
  // an INSERT from another session, and it must not return the rows that
  // INSERT put into the index after its snapshot: the new rows sit right
  // beside the query, so the unfiltered scan drops them and re-runs over
  // its snapshot, and the filtered scan's selection never covers them.
  constexpr int kRows = 100;
  constexpr uint64_t kDelayNanos = 10 * 1000 * 1000;  // x kRows: >= 1 s
  DatabaseOptions options = SmallPool();
  options.scan_delay_nanos_for_test = kDelayNanos;
  std::atomic<uint64_t> reader_id{0};
  std::atomic<bool> reader_admitted{false};
  options.statement_hook_for_test = [&](uint64_t session_id) {
    if (session_id == reader_id.load()) reader_admitted.store(true);
  };
  auto db = MiniDatabase::Open(TestDir("data"), options).ValueOrDie();
  auto writer = db->CreateSession();
  ASSERT_TRUE(writer->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  ASSERT_TRUE(writer->Execute(InsertBatch(0, kRows)).ok());
  ASSERT_TRUE(writer->Execute("CREATE INDEX t_idx ON t USING ivfflat (vec) "
                              "WITH (clusters=4, sample_ratio=1)")
                  .ok());
  for (int round = 0; round < 2; ++round) {
    const std::string where = round == 0 ? "" : "WHERE id < 100000 ";
    SCOPED_TRACE(where);
    const int64_t first_new = 1000 * (round + 1);
    const std::string select = "SELECT id FROM t " + where +
                               "ORDER BY vec <-> '0,0,0," +
                               std::to_string(first_new + 5) +
                               "' OPTIONS (nprobe=4) LIMIT 5";
    auto reader = db->CreateSession();
    reader_admitted.store(false);
    reader_id.store(reader->id());
    std::atomic<bool> select_done{false};
    std::vector<int64_t> got;
    std::thread scan([&] {
      auto result = reader->Execute(select);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) {
        for (const auto& row : result->rows) got.push_back(row.id);
      }
      select_done.store(true);
    });
    // Non-fatal checks while the scan thread runs: it is joined below.
    EXPECT_TRUE(WaitFor([&] { return reader_admitted.load(); }));
    // The plan takes microseconds; the stretched scan takes a second.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(writer->Execute(InsertBatch(first_new, 10)).ok());
    EXPECT_FALSE(select_done.load()) << "INSERT waited for the index scan";
    scan.join();
    reader_id.store(0);
    // The scan's snapshot predates the INSERT: its answer is the top 5 of
    // the rows that were there before.
    auto before = writer->Execute("SELECT id FROM t WHERE id < " +
                                  std::to_string(first_new) +
                                  " ORDER BY vec <-> '0,0,0," +
                                  std::to_string(first_new + 5) +
                                  "' OPTIONS (nprobe=4) LIMIT 5");
    ASSERT_TRUE(before.ok());
    std::vector<int64_t> want;
    for (const auto& row : before->rows) want.push_back(row.id);
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------------
// Multi-session stress. Run under TSan via ci/run_checks.sh.

TEST(SessionStressTest, SnapshotReaderNeverSeesTornInsert) {
  constexpr int kBatch = 10;
  constexpr int kBatches = 40;
  constexpr int kReaders = 3;
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto writer = db->CreateSession();
  ASSERT_TRUE(writer->Execute("CREATE TABLE t (id int, vec float[4])").ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done] {
      auto session = db->CreateSession();
      size_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto result = session->Execute(
            "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100000");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // INSERT publishes per statement: a lock-free seq scan may see any
        // batch prefix but never a torn batch, and rows never regress.
        EXPECT_EQ(result->rows.size() % kBatch, 0u);
        EXPECT_GE(result->rows.size(), last_seen);
        last_seen = result->rows.size();
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(writer->Execute(InsertBatch(b * kBatch, kBatch)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  auto final_rows = writer->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100000");
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows->rows.size(),
            static_cast<size_t>(kBatch * kBatches));
}

TEST(SessionStressTest, MixedWorkloadEightSessionsStaysConsistent) {
  constexpr int kSeed = 100;     // pre-loaded rows (ids 0..99)
  constexpr int kPerWriter = 80; // rows each writer adds
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto setup = db->CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  for (int b = 0; b < kSeed / 10; ++b) {
    ASSERT_TRUE(setup->Execute(InsertBatch(b * 10, 10)).ok());
  }
  ASSERT_TRUE(setup->Execute("CREATE INDEX t_idx ON t USING ivfflat (vec) "
                             "WITH (clusters=4, sample_ratio=1, "
                             "engine='faiss')")
                  .ok());

  // 8 sessions: 2 writers (disjoint id ranges), 2 deleters (disjoint
  // halves of the seed rows), 4 readers (index scans + seq scans).
  std::vector<std::thread> threads;
  std::atomic<bool> done{false};
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db, w] {
      auto session = db->CreateSession();
      const int64_t base = 1000 + w * kPerWriter;
      for (int i = 0; i < kPerWriter / 10; ++i) {
        ASSERT_TRUE(session->Execute(InsertBatch(base + i * 10, 10)).ok());
      }
    });
  }
  for (int d = 0; d < 2; ++d) {
    threads.emplace_back([&db, d] {
      auto session = db->CreateSession();
      // Each deleter owns half the seed ids, so every DELETE hits a row
      // that exists and no two sessions race for the same id.
      for (int i = 0; i < kSeed / 2; ++i) {
        const int64_t id = d * (kSeed / 2) + i;
        auto result =
            session->Execute("DELETE FROM t WHERE id = " + std::to_string(id));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&db, &done, r] {
      auto session = db->CreateSession();
      const std::string query =
          r % 2 == 0
              ? "SELECT id FROM t ORDER BY vec <-> '1,1,1,1' "
                "OPTIONS (nprobe=4) LIMIT 10"
              : "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100000";
      while (!done.load(std::memory_order_acquire)) {
        auto result = session->Execute(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (size_t i = 0; i < 4; ++i) threads[i].join();  // writers + deleters
  done.store(true, std::memory_order_release);
  for (size_t i = 4; i < threads.size(); ++i) threads[i].join();

  // Oracle: everything the writers added survives; every seed row is gone.
  ASSERT_TRUE(setup->Execute("DROP INDEX t_idx").ok());
  auto rows = setup->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100000");
  ASSERT_TRUE(rows.ok());
  std::set<int64_t> ids;
  for (const auto& row : rows->rows) ids.insert(row.id);
  EXPECT_EQ(ids.size(), static_cast<size_t>(2 * kPerWriter));
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(ids.count(1000 + w * kPerWriter + i))
          << "lost row " << 1000 + w * kPerWriter + i;
    }
  }
  // Session metrics moved through the workload.
  auto& metrics = obs::MetricsRegistry::Global();
  EXPECT_GE(metrics.Value(obs::Counter::kSessionCreated), 9u);
  EXPECT_GE(metrics.Value(obs::Counter::kSessionAdmitted), 40u);
}

TEST(SessionStressTest, FilteredIndexScanBesideWriters) {
  // Filtered index scans (one session per forced strategy) plan from the
  // predicate columns under the table lock, then scan beside one session
  // appending rows (INSERT) and another marking rows dead by predicate
  // (DELETE).
  // Every row carries a = id % 100 and the readers ask for a < 50, so
  // each result can be checked on its ids alone.
  constexpr int kSeed = 200;    // ids 0..199, deleted in chunks below
  constexpr int kChunk = 10;    // seed ids per predicate DELETE
  constexpr int kBatches = 30;  // writer batches of 10, ids from 1000
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto setup = db->CreateSession();
  ASSERT_TRUE(
      setup->Execute("CREATE TABLE t (id int, vec float[4], a int)").ok());
  auto insert_rows = [](int64_t first, int count) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < count; ++i) {
      const int64_t id = first + i;
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(id) + ", '" +
             Vec4(static_cast<int>(id)) + "', " + std::to_string(id % 100) +
             ")";
    }
    return sql;
  };
  for (int b = 0; b < kSeed / 10; ++b) {
    ASSERT_TRUE(setup->Execute(insert_rows(b * 10, 10)).ok());
  }
  ASSERT_TRUE(setup->Execute("CREATE INDEX t_idx ON t USING ivfflat (vec) "
                             "WITH (clusters=4, sample_ratio=1, "
                             "engine='faiss')")
                  .ok());

  // Seed ids below this were deleted by a statement that already returned.
  std::atomic<int64_t> deleted_below{0};
  std::atomic<int> writers_left{2};
  std::thread inserter([&db, &writers_left, &insert_rows] {
    auto session = db->CreateSession();
    for (int b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(session->Execute(insert_rows(1000 + b * 10, 10)).ok());
    }
    writers_left.fetch_sub(1, std::memory_order_acq_rel);
  });
  std::thread deleter([&db, &writers_left, &deleted_below] {
    auto session = db->CreateSession();
    for (int64_t lo = 0; lo < kSeed; lo += kChunk) {
      auto result = session->Execute(
          "DELETE FROM t WHERE id >= " + std::to_string(lo) + " AND id < " +
          std::to_string(lo + kChunk));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->message, "DELETE " + std::to_string(kChunk));
      deleted_below.store(lo + kChunk, std::memory_order_release);
    }
    writers_left.fetch_sub(1, std::memory_order_acq_rel);
  });
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (const char* strategy : {"prefilter", "infilter", "postfilter"}) {
    readers.emplace_back([&db, &writers_left, &deleted_below, strategy] {
      auto session = db->CreateSession();
      const std::string query =
          std::string("SELECT id FROM t WHERE a < 50 ORDER BY vec <-> "
                      "'1,1,1,1' OPTIONS (nprobe=4, filter_strategy=") +
          strategy + ") LIMIT 10";
      for (int iter = 0;
           iter < 20 || writers_left.load(std::memory_order_acquire) > 0;
           ++iter) {
        const int64_t floor = deleted_below.load(std::memory_order_acquire);
        auto result = session->Execute(query);
        ASSERT_TRUE(result.ok()) << strategy << ": "
                                 << result.status().ToString();
        EXPECT_LE(result->rows.size(), 10u) << strategy;
        std::set<int64_t> ids;
        for (const auto& row : result->rows) {
          EXPECT_TRUE(ids.insert(row.id).second)
              << strategy << ": duplicate id " << row.id;
          EXPECT_LT(row.id % 100, 50) << strategy << ": id " << row.id;
          EXPECT_GE(row.id, floor) << strategy << ": deleted id " << row.id;
          const bool seed = row.id < kSeed;
          const bool written =
              row.id >= 1000 && row.id < 1000 + kBatches * 10;
          EXPECT_TRUE(seed || written)
              << strategy << ": unknown id " << row.id;
        }
      }
    });
  }
  inserter.join();
  deleter.join();
  for (auto& t : readers) t.join();

  // Oracle: the seed is gone, every written row that matches is visible.
  auto rows = setup->Execute(
      "SELECT id FROM t WHERE a < 50 ORDER BY vec <-> '1,1,1,1' "
      "OPTIONS (nprobe=4, filter_strategy=prefilter) LIMIT 100000");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), static_cast<size_t>(kBatches * 10 / 2));
  for (const auto& row : rows->rows) EXPECT_GE(row.id, 1000);
}

TEST(SessionStressTest, HnswScansBesideWriter) {
  // HNSW index scans take the table lock shared, like every index scan:
  // reader sessions search a faiss and a PASE graph at once while one
  // session appends to both tables. Mid-write, every result must be well
  // formed; once the writer stops, concurrent answers must equal serial
  // ones exactly.
  constexpr int kSeed = 200;     // ids 0..199 in each table
  constexpr int kBatches = 15;   // writer batches of 10, ids from 1000
  constexpr int kQueries = 6;
  constexpr int kReadersPerTable = 2;
  auto db = MiniDatabase::Open(TestDir("data"), SmallPool()).ValueOrDie();
  auto setup = db->CreateSession();
  auto insert_rows = [](const std::string& table, int64_t first, int count) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < count; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(first + i) + ", '" +
             Vec4(static_cast<int>(first + i) * 11) + "')";
    }
    return sql;
  };
  const std::vector<std::string> tables = {"tf", "tp"};
  for (const std::string& table : tables) {
    ASSERT_TRUE(
        setup->Execute("CREATE TABLE " + table + " (id int, vec float[4])")
            .ok());
    for (int b = 0; b < kSeed / 10; ++b) {
      ASSERT_TRUE(setup->Execute(insert_rows(table, b * 10, 10)).ok());
    }
    ASSERT_TRUE(setup->Execute("CREATE INDEX " + table + "_idx ON " + table +
                               " USING hnsw (vec) WITH (engine='" +
                               (table == "tf" ? "faiss" : "pase") + "')")
                    .ok());
  }
  auto query = [](const std::string& table, int q) {
    return "SELECT * FROM " + table + " ORDER BY vec <-> '" +
           Vec4(q * 37 + 3) + "' OPTIONS (efs=64) LIMIT 10";
  };
  // At most k distinct loaded ids, ascending by distance.
  auto check_well_formed = [](const QueryResult& result) {
    EXPECT_LE(result.rows.size(), 10u);
    std::set<int64_t> ids;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      const int64_t id = result.rows[i].id;
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
      EXPECT_TRUE(id < kSeed || (id >= 1000 && id < 1000 + kBatches * 10))
          << "unknown id " << id;
      if (i > 0) {
        EXPECT_LE(result.rows[i - 1].distance, result.rows[i].distance);
      }
    }
  };

  std::atomic<bool> writing{true};
  std::thread writer([&db, &writing, &tables, &insert_rows] {
    auto session = db->CreateSession();
    for (int b = 0; b < kBatches; ++b) {
      for (const std::string& table : tables) {
        ASSERT_TRUE(
            session->Execute(insert_rows(table, 1000 + b * 10, 10)).ok());
      }
    }
    writing.store(false, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (const std::string& table : tables) {
    for (int r = 0; r < kReadersPerTable; ++r) {
      readers.emplace_back([&, table] {
        auto session = db->CreateSession();
        for (int iter = 0;
             iter < 5 || writing.load(std::memory_order_acquire); ++iter) {
          auto result = session->Execute(query(table, iter % kQueries));
          ASSERT_TRUE(result.ok()) << table << ": "
                                   << result.status().ToString();
          check_well_formed(*result);
        }
      });
    }
  }
  writer.join();
  for (auto& t : readers) t.join();

  // Quiescent: serial answers first, then every reader replays them at
  // once.
  std::vector<QueryResult> serial;
  for (const std::string& table : tables) {
    for (int q = 0; q < kQueries; ++q) {
      auto result = setup->Execute(query(table, q));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 10u) << table;
      check_well_formed(*result);
      serial.push_back(std::move(*result));
    }
  }
  std::atomic<int> mismatches{0};
  readers.clear();
  for (size_t t = 0; t < tables.size(); ++t) {
    for (int r = 0; r < kReadersPerTable; ++r) {
      readers.emplace_back([&, t, r] {
        auto session = db->CreateSession();
        for (int iter = 0; iter < 4 * kQueries; ++iter) {
          const int q = (iter + r) % kQueries;
          auto result = session->Execute(query(tables[t], q));
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          const QueryResult& want = serial[t * kQueries + q];
          bool same = result->rows.size() == want.rows.size();
          for (size_t i = 0; same && i < want.rows.size(); ++i) {
            same = result->rows[i].id == want.rows[i].id &&
                   result->rows[i].distance == want.rows[i].distance;
          }
          if (!same) mismatches.fetch_add(1);
        }
      });
    }
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace vecdb::sql
