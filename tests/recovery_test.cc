// Crash recovery tests for MiniDatabase: durable open round trips, the
// checkpoint ordering protocol, WAL size bounding, and the fault-injection
// harness that kills the engine at hundreds of sampled byte offsets of its
// write stream and checks every recovered state against a logical oracle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "pgstub/bufmgr.h"
#include "pgstub/heap_table.h"
#include "pgstub/vfs.h"
#include "pgstub/wal.h"
#include "sql/database.h"
#include "sql/session.h"

namespace vecdb::sql {
namespace {

/// This process's databases live under one directory named by the
/// process id, so overlapping runs of this binary (from different build
/// trees) never delete each other's; it is removed when the run ends.
const std::string& ProcessRoot() {
  static const std::string root =
      ::testing::TempDir() + "/rec_" + std::to_string(::getpid());
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

/// A small pool: the default 512MB one is zero-filled on every Open, which
/// would dominate a harness that opens hundreds of databases.
DatabaseOptions SmallPool() {
  DatabaseOptions options;
  options.pool_pages = 256;
  return options;
}

std::string Vec4(int seed) {
  return std::to_string(seed % 7) + "," + std::to_string((seed / 7) % 7) +
         "," + std::to_string((seed / 49) % 7) + "," + std::to_string(seed);
}

std::string InsertRow(int64_t id) {
  return "INSERT INTO t VALUES (" + std::to_string(id) + ", '" +
         Vec4(static_cast<int>(id)) + "')";
}

/// One INSERT of rows first .. first + n - 1.
std::string InsertRows(int64_t first, int n) {
  std::string sql = InsertRow(first);
  for (int64_t id = first + 1; id < first + n; ++id) {
    sql += ", (" + std::to_string(id) + ", '" + Vec4(static_cast<int>(id)) +
           "')";
  }
  return sql;
}

/// Executes one statement on a fresh session. These tests open and reopen
/// databases constantly, so a one-shot session per statement keeps the
/// crash/restart scopes simple.
Result<QueryResult> Exec(MiniDatabase* db, const std::string& sql) {
  return db->CreateSession()->Execute(sql);
}

/// All live row ids via a sequential scan (the <#> operator never uses an
/// index, so this is exact regardless of index state or recall).
Result<std::set<int64_t>> LiveIds(MiniDatabase* db) {
  auto result =
      Exec(db, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 100000");
  if (!result.ok()) return result.status();
  std::set<int64_t> ids;
  for (const auto& row : result->rows) ids.insert(row.id);
  return ids;
}

TEST(RecoveryTest, DurableOpenRoundTrip) {
  const std::string dir = TestDir("data");
  std::set<int64_t> before;
  {
    auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
    ASSERT_TRUE(Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    }
    ASSERT_TRUE(Exec(db.get(), "CREATE INDEX t_idx ON t USING ivfflat (vec) "
                            "WITH (clusters=4, sample_ratio=1)")
                    .ok());
    ASSERT_TRUE(Exec(db.get(), "DELETE FROM t WHERE id = 7").ok());
    ASSERT_TRUE(Exec(db.get(), "DELETE FROM t WHERE id = 41").ok());
    before = std::move(LiveIds(db.get())).ValueOrDie();
    ASSERT_EQ(before.size(), 58u);
    // No CHECKPOINT, no clean shutdown: everything must come back from
    // the manifest + catalog + WAL alone.
  }
  auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
  EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie(), before);
  // The index came back (rebuilt) and serves: nearest to row 3's vector.
  auto hit = Exec(db.get(), "SELECT id FROM t ORDER BY vec <-> '" + Vec4(3) +
                         "' OPTIONS (nprobe=4) LIMIT 1");
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->rows.size(), 1u);
  EXPECT_EQ(hit->rows[0].id, 3);
  // And the database still accepts writes.
  ASSERT_TRUE(Exec(db.get(), InsertRow(1000)).ok());
  EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie().size(), 59u);
}

TEST(RecoveryTest, SnapshotReloadMatchesRebuild) {
  const std::string dir = TestDir("data");
  DatabaseOptions options = SmallPool();
  options.index_recovery = IndexRecovery::kReload;
  std::set<int64_t> before;
  {
    auto db = MiniDatabase::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    }
    ASSERT_TRUE(Exec(db.get(), "CREATE INDEX t_idx ON t USING ivfflat (vec) "
                            "WITH (clusters=4, sample_ratio=1)")
                    .ok());
    // Snapshot the index at 50 rows, then keep writing: recovery must
    // reload the snapshot and top it up with the 10 post-snapshot rows
    // and the post-snapshot delete.
    ASSERT_TRUE(Exec(db.get(), "CHECKPOINT").ok());
    for (int i = 50; i < 60; ++i) {
      ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    }
    ASSERT_TRUE(Exec(db.get(), "DELETE FROM t WHERE id = 55").ok());
    before = std::move(LiveIds(db.get())).ValueOrDie();
  }
  auto db = MiniDatabase::Open(dir, options).ValueOrDie();
  EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie(), before);
  // Exact scan over all clusters: every live row reachable, 55 is not.
  auto hit = Exec(db.get(), "SELECT id FROM t ORDER BY vec <-> '" + Vec4(55) +
                         "' OPTIONS (nprobe=4) LIMIT 60");
  ASSERT_TRUE(hit.ok());
  std::set<int64_t> via_index;
  for (const auto& row : hit->rows) via_index.insert(row.id);
  EXPECT_EQ(via_index, before);
}

/// Reads or rewrites a whole file.
std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}
void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Creates table t with rows 0..9, then a second row carrying id 2, and
/// closes the database; returns the heap relation id.
pgstub::RelId MakeTenRowTable(const std::string& dir) {
  auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
  EXPECT_TRUE(Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(Exec(db.get(), InsertRow(i)).ok());
  EXPECT_TRUE(Exec(db.get(), InsertRow(2)).ok());
  EXPECT_TRUE(Exec(db.get(), "CHECKPOINT").ok());
  return db->smgr()->FindRelation("t").ValueOrDie();
}

TEST(RecoveryTest, OlderFormatsKeepTheirIdMeaning) {
  // Catalog version 1 and kTombstone WAL records name deleted row ids; a
  // database written in those formats opens with every heap row carrying
  // such an id dead. Here the v1 catalog deletes id 2 (two rows) and a
  // WAL id record deletes id 5.
  const std::string dir = TestDir("data");
  const pgstub::RelId rel = MakeTenRowTable(dir);
  std::string catalog = ReadFile(dir + "/CATALOG");
  ASSERT_EQ(catalog.rfind("vecdb-catalog 2\n", 0), 0u) << catalog;
  catalog.replace(0, 15, "vecdb-catalog 1");
  const size_t dead = catalog.find("dead t 0");
  ASSERT_NE(dead, std::string::npos) << catalog;
  catalog.replace(dead, 8, "tombstones t 1 2");
  WriteFile(dir + "/CATALOG", catalog);
  {
    auto wal = std::move(pgstub::WalManager::Open(dir + "/wal.log"))
                   .ValueOrDie();
    ASSERT_TRUE(wal.LogTombstone(rel, 5).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  const std::set<int64_t> want = {0, 1, 3, 4, 6, 7, 8, 9};
  for (int open = 0; open < 2; ++open) {
    // The second open reads what the first one's checkpoint wrote: a
    // version-2 catalog of dead positions and an empty log.
    auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
    auto live = Exec(db.get(), "SELECT id FROM t ORDER BY vec <#> "
                               "'1,1,1,1' LIMIT 100");
    ASSERT_TRUE(live.ok());
    std::multiset<int64_t> ids;
    for (const auto& row : live->rows) ids.insert(row.id);
    EXPECT_EQ(ids, std::multiset<int64_t>(want.begin(), want.end()))
        << "open " << open;
    EXPECT_EQ(ReadFile(dir + "/CATALOG").rfind("vecdb-catalog 2\n", 0), 0u);
  }
}

TEST(RecoveryTest, DeadPositionPastTheHeapIsCorruption) {
  const std::string dir = TestDir("data");
  const pgstub::RelId rel = MakeTenRowTable(dir);
  {
    // The table has 11 rows: position 11 is past its end.
    auto wal = std::move(pgstub::WalManager::Open(dir + "/wal.log"))
                   .ValueOrDie();
    ASSERT_TRUE(wal.LogDeadRows(rel, {11}).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  auto from_wal = MiniDatabase::Open(dir, SmallPool());
  EXPECT_TRUE(from_wal.status().IsCorruption()) << from_wal.status().ToString();

  // The same position in the catalog.
  const std::string catalog_dir = TestDir("catalog");
  MakeTenRowTable(catalog_dir);
  std::string catalog = ReadFile(catalog_dir + "/CATALOG");
  const size_t dead = catalog.find("dead t 0");
  ASSERT_NE(dead, std::string::npos) << catalog;
  catalog.replace(dead, 8, "dead t 1 11");
  WriteFile(catalog_dir + "/CATALOG", catalog);
  auto from_catalog = MiniDatabase::Open(catalog_dir, SmallPool());
  EXPECT_TRUE(from_catalog.status().IsCorruption())
      << from_catalog.status().ToString();
}

TEST(RecoveryTest, ReloadAfterDeleteSkipsRebuild) {
  // Deletes never reach an index, so a faiss index on a table with dead
  // rows is snapshot at CHECKPOINT and reopens from that snapshot under
  // kReload — no Build — with the results a rebuild gives.
  const std::string dir = TestDir("data");
  DatabaseOptions reload = SmallPool();
  reload.index_recovery = IndexRecovery::kReload;
  const std::vector<std::string> methods = {"ivfflat", "ivfpq", "ivfsq8",
                                             "hnsw"};
  const std::string select =
      " ORDER BY vec <-> '2,3,1,20' OPTIONS (nprobe=2, efs=32) LIMIT 10";
  auto results = [&](MiniDatabase* db) {
    std::vector<std::vector<QueryResult::Row>> out;
    for (const auto& method : methods) {
      for (const std::string where : {"", " WHERE id < 100"}) {
        auto result = Exec(db, "SELECT * FROM t_" + method + where + select);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        out.push_back(result.ok() ? result->rows
                                  : std::vector<QueryResult::Row>{});
      }
    }
    return out;
  };
  auto same = [](const std::vector<std::vector<QueryResult::Row>>& a,
                 const std::vector<std::vector<QueryResult::Row>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
      for (size_t j = 0; j < a[i].size(); ++j) {
        if (a[i][j].id != b[i][j].id ||
            a[i][j].distance != b[i][j].distance) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<std::vector<QueryResult::Row>> before;
  {
    auto db = MiniDatabase::Open(dir, reload).ValueOrDie();
    for (const auto& method : methods) {
      const std::string table = "t_" + method;
      ASSERT_TRUE(
          Exec(db.get(), "CREATE TABLE " + table + " (id int, vec float[4])")
              .ok());
      std::string insert = "INSERT INTO " + table + " VALUES ";
      for (int i = 0; i < 200; ++i) {
        if (i > 0) insert += ", ";
        insert += "(" + std::to_string(i) + ", '" + Vec4(i) + "')";
      }
      ASSERT_TRUE(Exec(db.get(), insert).ok());
      ASSERT_TRUE(Exec(db.get(), "CREATE INDEX " + table + "_idx ON " + table +
                                     " USING " + method +
                                     " (vec) WITH (clusters=2, "
                                     "sample_ratio=1, m=2, pq_codes=16, "
                                     "engine='faiss')")
                      .ok());
      ASSERT_TRUE(
          Exec(db.get(), "DELETE FROM " + table + " WHERE id >= 15 AND id < 25")
              .ok());
      ASSERT_TRUE(Exec(db.get(), "DELETE FROM " + table + " WHERE id = 20")
                      .status()
                      .IsNotFound());
    }
    ASSERT_TRUE(Exec(db.get(), "CHECKPOINT").ok());
    before = results(db.get());
  }
  auto& metrics = obs::MetricsRegistry::Global();
  {
    const uint64_t builds = metrics.Value(obs::Counter::kFaissBuilds);
    auto db = MiniDatabase::Open(dir, reload).ValueOrDie();
    EXPECT_EQ(metrics.Value(obs::Counter::kFaissBuilds), builds)
        << "an index was rebuilt instead of reloaded";
    EXPECT_TRUE(same(results(db.get()), before));
  }
  const uint64_t builds = metrics.Value(obs::Counter::kFaissBuilds);
  auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
  EXPECT_EQ(metrics.Value(obs::Counter::kFaissBuilds),
            builds + methods.size());
  EXPECT_TRUE(same(results(db.get()), before));
}

/// Every id an index scan at exhaustive settings returns for `query`.
std::set<int64_t> IndexScanIds(MiniDatabase* db, int query) {
  auto result = Exec(db, "SELECT id FROM t ORDER BY vec <-> '" +
                             Vec4(query) +
                             "' OPTIONS (nprobe=4, efs=1000) LIMIT 1000");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::set<int64_t> ids;
  if (result.ok()) {
    for (const auto& row : result->rows) ids.insert(row.id);
  }
  return ids;
}

// Index relations are unlogged: recovery drops them and rebuilds every
// index from the heap, so only the heap's pages may reach the WAL. For
// every page-resident engine/method pair, CREATE INDEX and the one-row
// INSERTs after it log page records for the heap relation alone, and a
// crash right after recovers the same results.
TEST(RecoveryTest, OnlyHeapPagesReachTheLog) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"pase", "ivfflat"}, {"pase", "ivfpq"},   {"pase", "ivfsq8"},
      {"pase", "hnsw"},    {"bridge", "ivfflat"}, {"bridge", "hnsw"}};
  for (const auto& [engine, method] : pairs) {
    SCOPED_TRACE(engine + " " + method);
    const std::string dir = TestDir((engine + "_" + method).c_str());
    DatabaseOptions options = SmallPool();
    options.checkpoint_wal_bytes = 0;  // keep every record in the log
    std::set<int64_t> live;
    std::set<int64_t> scanned;
    {
      auto db = MiniDatabase::Open(dir, options).ValueOrDie();
      ASSERT_TRUE(
          Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
      ASSERT_TRUE(Exec(db.get(), InsertRows(0, 300)).ok());
      ASSERT_TRUE(Exec(db.get(), "CREATE INDEX t_idx ON t USING " + method +
                                     " (vec) WITH (clusters=4, "
                                     "sample_ratio=1, m=2, pq_codes=16, "
                                     "bnn=8, efb=32, engine='" +
                                     engine + "')")
                      .ok());
      for (int64_t id = 300; id < 310; ++id) {
        ASSERT_TRUE(Exec(db.get(), InsertRow(id)).ok());
      }
      const pgstub::RelId heap = db->smgr()->FindRelation("t").ValueOrDie();
      size_t page_records = 0;
      ASSERT_TRUE(pgstub::WalManager::Replay(
                      dir + "/wal.log",
                      [&](const pgstub::WalRecord& record) {
                        if (record.type == pgstub::WalRecordType::kFullPage ||
                            record.type ==
                                pgstub::WalRecordType::kItemAppend) {
                          ++page_records;
                          EXPECT_EQ(record.rel, heap)
                              << "lsn " << record.lsn << " logs a page of "
                              << "relation " << record.rel;
                        }
                        return Status::OK();
                      })
                      .ok());
      EXPECT_GT(page_records, 0u);
      live = std::move(LiveIds(db.get())).ValueOrDie();
      scanned = IndexScanIds(db.get(), 7);
      ASSERT_EQ(scanned, live);
      // Crash: the pool's dirty pages are dropped unflushed.
    }
    auto db = MiniDatabase::Open(dir, options).ValueOrDie();
    EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie(), live);
    EXPECT_EQ(IndexScanIds(db.get(), 7), scanned);
  }
}

// The v1 bug this PR fixes: LogCheckpoint() was called without first
// forcing dirty pages to storage, so replay trusted a checkpoint whose
// claim ("everything before me is on disk") was false, and pages vanished.
TEST(CheckpointOrderingTest, CheckpointRecordWithoutFlushLosesPages) {
  const std::string dir = TestDir("naive");
  const std::string wal_path = dir + "/wal.log";
  {
    auto smgr = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
    auto wal = std::move(pgstub::WalManager::Open(wal_path)).ValueOrDie();
    pgstub::BufferManager bufmgr(smgr.get(), 64);
    bufmgr.SetWal(&wal);
    auto table = std::move(pgstub::HeapTable::Create(&bufmgr, smgr.get(),
                                                     "t", 4))
                     .ValueOrDie();
    const float vec[4] = {1.f, 2.f, 3.f, 4.f};
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(table.Insert(i, vec).ok());
    }
    ASSERT_TRUE(wal.Flush().ok());
    // NAIVE checkpoint: the record without the FlushAll before it.
    ASSERT_TRUE(wal.LogCheckpoint().ok());
    // Crash: dirty pages die in the pool.
  }
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  ASSERT_TRUE(pgstub::WalManager::Recover(wal_path, smgr.get()).ok());
  pgstub::BufferManager bufmgr(smgr.get(), 64);
  auto table =
      std::move(pgstub::HeapTable::Attach(&bufmgr, smgr.get(), "t", 4))
          .ValueOrDie();
  // Replay (correctly) skipped everything before the checkpoint record,
  // and the data pages never reached storage: the rows are GONE. This is
  // what makes the ordering in MiniDatabase::Checkpoint load-bearing.
  EXPECT_LT(table.num_rows(), 50u);
}

TEST(CheckpointOrderingTest, DatabaseCheckpointSurvivesCrash) {
  const std::string dir = TestDir("ordered");
  std::set<int64_t> before;
  {
    auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
    ASSERT_TRUE(Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    }
    // The real protocol: FlushAll + SyncAll + catalog BEFORE the record.
    ASSERT_TRUE(Exec(db.get(), "CHECKPOINT").ok());
    // Post-checkpoint writes ride on the (rotated) WAL.
    for (int i = 50; i < 55; ++i) {
      ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    }
    before = std::move(LiveIds(db.get())).ValueOrDie();
    // Crash.
  }
  auto db = MiniDatabase::Open(dir, SmallPool()).ValueOrDie();
  EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie(), before);
}

TEST(RecoveryTest, AutoCheckpointBoundsWalSize) {
  const std::string dir = TestDir("data");
  DatabaseOptions options = SmallPool();
  options.checkpoint_wal_bytes = 64 << 10;
  auto db = MiniDatabase::Open(dir, options).ValueOrDie();
  ASSERT_TRUE(Exec(db.get(), "CREATE TABLE t (id int, vec float[4])").ok());
  // Each single-row insert logs a full 8KB page image; without rotation
  // 200 of them would pile up ~1.6MB of log.
  const uint64_t slack = 2 * 8192 + 4096;  // one statement's worth + frames
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Exec(db.get(), InsertRow(i)).ok());
    ASSERT_LE(db->wal()->size_bytes(), options.checkpoint_wal_bytes + slack)
        << "after insert " << i;
  }
  EXPECT_GE(obs::MetricsRegistry::Global().Value(
                obs::Counter::kWalCheckpoints),
            3u);
  // Everything is still there.
  EXPECT_EQ(std::move(LiveIds(db.get())).ValueOrDie().size(), 200u);
}

// ---------------------------------------------------------------------------
// The fault-injection harness: run a fixed workload, measure its total
// write volume, then re-run it against a FaultInjectionVfs armed to crash
// at >= 200 byte offsets sampled across that volume. After each crash,
// reopen the directory with a clean Vfs (as a restarted process would) and
// require the recovered database to equal the logical oracle after some
// prefix of the workload — a prefix at least as long as the acknowledged
// one, since an acknowledged statement must never be lost.

struct WorkloadResult {
  size_t acked = 0;  ///< statements acknowledged before the crash
};

const std::vector<std::string>& KillWorkload() {
  static const std::vector<std::string>* ops = [] {
    auto* v = new std::vector<std::string>;
    v->push_back("CREATE TABLE t (id int, vec float[4])");
    for (int i = 0; i < 12; ++i) v->push_back(InsertRow(i));
    // A PASE index whose bucket chains span several pages: cuts land in
    // its init records, item records and chain-link images. Its name
    // sorts first, so index scans use it.
    v->push_back("CREATE INDEX pase_idx ON t USING ivfflat (vec) "
                 "WITH (clusters=2, sample_ratio=1, engine='pase')");
    v->push_back("DELETE FROM t WHERE id = 3");
    for (int i = 12; i < 20; ++i) v->push_back(InsertRow(i));
    // A re-used id: the new row is live, and deleting it again marks it.
    v->push_back(InsertRow(3));
    v->push_back("CREATE INDEX t_idx ON t USING ivfflat (vec) "
                 "WITH (clusters=2, sample_ratio=1)");
    for (int i = 20; i < 32; ++i) v->push_back(InsertRow(i));
    // Enough rows for several heap pages, before and after the CHECKPOINT.
    for (int b = 0; b < 6; ++b) v->push_back(InsertRows(1000 + 100 * b, 100));
    v->push_back("DELETE FROM t WHERE id = 17");
    v->push_back("DELETE FROM t WHERE id = 25");
    for (int i = 32; i < 40; ++i) v->push_back(InsertRow(i));
    v->push_back("DELETE FROM t WHERE id = 3");
    v->push_back("CHECKPOINT");
    for (int i = 40; i < 48; ++i) v->push_back(InsertRow(i));
    for (int b = 6; b < 12; ++b) v->push_back(InsertRows(1000 + 100 * b, 100));
    v->push_back("DELETE FROM t WHERE id = 44");
    v->push_back(InsertRow(3));
    v->push_back(InsertRow(44));
    v->push_back("DELETE FROM t WHERE id = 3");
    return v;
  }();
  return *ops;
}

/// Logical oracle: the live id set after each workload prefix; nullopt
/// while the table does not exist yet.
std::vector<std::optional<std::set<int64_t>>> OracleStates() {
  std::vector<std::optional<std::set<int64_t>>> states;
  states.emplace_back(std::nullopt);  // before any op
  std::optional<std::set<int64_t>> live;
  for (const auto& op : KillWorkload()) {
    if (op.rfind("CREATE TABLE", 0) == 0) {
      live.emplace();
    } else if (op.rfind("INSERT", 0) == 0) {
      for (size_t lp = op.find('('); lp != std::string::npos;
           lp = op.find('(', lp + 1)) {
        live->insert(std::stoll(op.substr(lp + 1)));
      }
    } else if (op.rfind("DELETE", 0) == 0) {
      const size_t eq = op.find('=');
      live->erase(std::stoll(op.substr(eq + 1)));
    }
    states.push_back(live);
  }
  return states;
}

/// Runs the workload until a statement fails under an injected crash.
WorkloadResult RunWorkload(MiniDatabase* db,
                           const pgstub::FaultInjectionVfs* vfs) {
  WorkloadResult out;
  for (const auto& op : KillWorkload()) {
    auto result = Exec(db, op);
    if (result.ok()) {
      ++out.acked;
      continue;
    }
    // Only an injected crash may fail the workload; anything else is a
    // test bug worth failing loudly on.
    EXPECT_TRUE(vfs != nullptr && vfs->crashed())
        << op << " -> " << result.status().ToString();
    break;
  }
  return out;
}

TEST(FaultInjectionTest, KillAtSampledWriteOffsetsRecoversConsistently) {
  DatabaseOptions options = SmallPool();
  // Small enough that several auto-checkpoints (and rotations) land inside
  // the workload, so cuts hit the checkpoint protocol too.
  options.checkpoint_wal_bytes = 48 << 10;

  // Phase 1: measure the workload's total write volume.
  pgstub::FaultInjectionVfs vfs(pgstub::Vfs::Default());
  const std::string dir = TestDir("data");
  uint64_t total_bytes = 0;
  {
    vfs.ArmAfterBytes(UINT64_MAX);
    DatabaseOptions measured = options;
    measured.vfs = &vfs;
    auto db = MiniDatabase::Open(dir, measured).ValueOrDie();
    WorkloadResult clean = RunWorkload(db.get(), nullptr);
    ASSERT_EQ(clean.acked, KillWorkload().size());
    total_bytes = vfs.bytes_written();
    ASSERT_GT(total_bytes, 100u << 10) << "workload too small to sample";
  }

  const auto oracle = OracleStates();
  constexpr uint64_t kSamples = 211;  // >= 200, coprime-ish stride
  size_t crashes_mid_stream = 0;
  for (uint64_t sample = 0; sample < kSamples; ++sample) {
    const uint64_t budget = sample * total_bytes / kSamples;
    std::filesystem::remove_all(dir);

    // Phase 2a: run until the injected crash.
    WorkloadResult crashed;
    bool opened = false;
    {
      vfs.ArmAfterBytes(budget);
      DatabaseOptions armed = options;
      armed.vfs = &vfs;
      auto db = MiniDatabase::Open(dir, armed);
      if (db.ok()) {
        opened = true;
        crashed = RunWorkload(db->get(), &vfs);
      }
      // The process dies here; nothing it still held in memory counts.
    }
    vfs.Disarm();
    if (opened && crashed.acked < KillWorkload().size()) {
      ++crashes_mid_stream;
    }

    // Phase 2b: a "restarted process" opens the directory with a clean
    // Vfs. This must ALWAYS succeed, whatever the cut did.
    auto db = MiniDatabase::Open(dir, options);
    ASSERT_TRUE(db.ok()) << "budget " << budget << ": "
                         << db.status().ToString();

    // The recovered state must equal the oracle after some prefix no
    // shorter than the acknowledged one (an acked statement is durable;
    // the statement in flight at the crash may or may not have landed).
    auto live = LiveIds(db->get());
    std::optional<std::set<int64_t>> recovered;
    if (live.ok()) {
      recovered = std::move(*live);
    } else {
      ASSERT_TRUE(live.status().IsNotFound())
          << "budget " << budget << ": " << live.status().ToString();
    }
    bool matched = false;
    for (size_t p = crashed.acked; p < oracle.size(); ++p) {
      if (oracle[p] == recovered) {
        matched = true;
        break;
      }
    }
    // A multi-row INSERT is durable row by row: the statement in flight
    // at the crash may have landed any leading run of its rows.
    if (!matched && crashed.acked < KillWorkload().size() &&
        KillWorkload()[crashed.acked].rfind("INSERT", 0) == 0 &&
        oracle[crashed.acked].has_value() && recovered.has_value()) {
      std::set<int64_t> partial = *oracle[crashed.acked];
      const std::string& op = KillWorkload()[crashed.acked];
      for (size_t lp = op.find('('); !matched && lp != std::string::npos;
           lp = op.find('(', lp + 1)) {
        partial.insert(std::stoll(op.substr(lp + 1)));
        matched = partial == *recovered;
      }
    }
    ASSERT_TRUE(matched) << "budget " << budget << ", acked "
                         << crashed.acked << ": recovered state matches no "
                         << "workload prefix >= the acknowledged one";
    // At nprobe = clusters the index scan is exhaustive: it must return
    // exactly the live rows the seq scan does.
    if (recovered.has_value()) {
      auto scanned = Exec(db->get(),
                          "SELECT id FROM t ORDER BY vec <-> '1,1,1,1' "
                          "OPTIONS (nprobe=2) LIMIT 100000");
      ASSERT_TRUE(scanned.ok()) << "budget " << budget << ": "
                                << scanned.status().ToString();
      std::multiset<int64_t> ids;
      for (const auto& row : scanned->rows) ids.insert(row.id);
      EXPECT_EQ(ids, std::multiset<int64_t>(recovered->begin(),
                                            recovered->end()))
          << "budget " << budget;
    }

    // And the survivor serves reads and writes.
    if (recovered.has_value()) {
      ASSERT_TRUE(Exec(db->get(), InsertRow(9000)).ok())
          << "budget " << budget;
      auto after = std::move(LiveIds(db->get())).ValueOrDie();
      EXPECT_EQ(after.size(), recovered->size() + 1) << "budget " << budget;
    }
  }
  // The sampling must actually exercise mid-stream crashes, not just
  // trivially-empty or trivially-complete runs.
  EXPECT_GT(crashes_mid_stream, kSamples / 2);
}

// TSan smoke: concurrent WAL-logging writers (heap inserts into several
// heaps through one buffer manager, each logging its own append) racing a
// checkpointer that flushes, logs the record, and rotates. The writers
// take bufmgr.mu_ and wal.mu_ one at a time; only FlushAll's
// flush-before-write still nests them, in the bufmgr.mu_ -> wal.mu_ order.
TEST(FaultInjectionTest, ConcurrentLoggingAndCheckpoint) {
  const std::string dir = TestDir("data");
  auto smgr = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  auto wal = std::move(pgstub::WalManager::Open(dir + "/wal.log"))
                 .ValueOrDie();
  pgstub::BufferManager bufmgr(smgr.get(), 256);
  bufmgr.SetWal(&wal);

  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 300;
  std::vector<pgstub::HeapTable> tables;
  for (int w = 0; w < kWriters; ++w) {
    tables.push_back(std::move(pgstub::HeapTable::Create(
                                   &bufmgr, smgr.get(),
                                   "t" + std::to_string(w), 4))
                         .ValueOrDie());
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const float vec[4] = {static_cast<float>(w), 1.f, 2.f, 3.f};
      for (int i = 0; i < kRowsPerWriter; ++i) {
        ASSERT_TRUE(tables[w].Insert(i, vec).ok());
      }
    });
  }
  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      // A writer may hold a pin on a dirty page; FlushAll refuses rather
      // than flush a torn image. Back off and retry next round.
      if (!bufmgr.FlushAll().ok()) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_TRUE(smgr->SyncAll().ok());
      ASSERT_TRUE(wal.LogCheckpoint().ok());
      ASSERT_TRUE(wal.Rotate().ok());
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  checkpointer.join();
  // Quiesced final flush: a checkpoint record written while writers were
  // still dirtying pages may (correctly) claim less than the final state,
  // so force the remainder out before the simulated crash to make the
  // recovered row count exact.
  ASSERT_TRUE(bufmgr.FlushAll().ok());
  ASSERT_TRUE(smgr->SyncAll().ok());

  // Crash-recover and count: every row is either in a flushed page or an
  // intact post-checkpoint WAL image.
  tables.clear();
  auto smgr2 = std::make_unique<pgstub::StorageManager>(
      pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
  ASSERT_TRUE(
      pgstub::WalManager::Recover(dir + "/wal.log", smgr2.get()).ok());
  pgstub::BufferManager bufmgr2(smgr2.get(), 256);
  for (int w = 0; w < kWriters; ++w) {
    auto table = std::move(pgstub::HeapTable::Attach(
                               &bufmgr2, smgr2.get(),
                               "t" + std::to_string(w), 4))
                     .ValueOrDie();
    EXPECT_EQ(table.num_rows(), static_cast<size_t>(kRowsPerWriter));
  }
}

}  // namespace
}  // namespace vecdb::sql
