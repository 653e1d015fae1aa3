#include "sql/database.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/session.h"

namespace vecdb::sql {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The process id keeps overlapping runs of this binary (from
    // different build trees) out of each other's directories.
    dir_ = ::testing::TempDir() + "/db_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    db_ = MiniDatabase::Open(dir_).ValueOrDie();
    session_ = db_->CreateSession();
  }

  void TearDown() override {
    session_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Closes the database and opens it again from its directory.
  void Reopen(const DatabaseOptions& options = {}) {
    session_.reset();
    db_.reset();
    db_ = MiniDatabase::Open(dir_, options).ValueOrDie();
    session_ = db_->CreateSession();
  }

  /// The ids `sql` returns, in order.
  std::vector<int64_t> Ids(const std::string& sql) {
    std::vector<int64_t> ids;
    for (const auto& row : Must(sql).rows) ids.push_back(row.id);
    return ids;
  }

  QueryResult Must(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  void LoadSmallTable() {
    Must("CREATE TABLE items (id int, vec float[4])");
    Must("INSERT INTO items VALUES "
         "(10, '1,0,0,0'), (20, '0,1,0,0'), (30, '0,0,1,0'), "
         "(40, '0,0,0,1'), (50, '0.9,0.1,0,0')");
  }

  std::string dir_;
  std::unique_ptr<MiniDatabase> db_;
  std::shared_ptr<Session> session_;
};

TEST_F(DatabaseTest, CreateInsertSelectViaSeqScan) {
  LoadSmallTable();
  auto result = Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                     "LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].id, 10);  // exact match first
  EXPECT_EQ(result.rows[1].id, 50);  // then the nearby vector
}

TEST_F(DatabaseTest, SelectStarIncludesDistance) {
  LoadSmallTable();
  auto result =
      Must("SELECT * FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 1");
  ASSERT_EQ(result.columns.size(), 2u);
  EXPECT_EQ(result.columns[1], "distance");
  EXPECT_NEAR(result.rows[0].distance, 0.0, 1e-6);
}

TEST_F(DatabaseTest, IndexScanMatchesSeqScan) {
  Must("CREATE TABLE t (id int, vec float[8])");
  // 300 rows in a ring of ids 1000+i.
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(1000 + i) + ", '";
    for (int d = 0; d < 8; ++d) {
      if (d > 0) insert += ",";
      insert += std::to_string((i * 37 % 100) / 100.0 + d * 0.01);
    }
    insert += "')";
  }
  Must(insert);
  auto seq = Must("SELECT id FROM t ORDER BY vec <-> "
                  "'0.37,0.38,0.39,0.4,0.41,0.42,0.43,0.44' LIMIT 5");
  Must("CREATE INDEX t_idx ON t USING ivfflat (vec) WITH (clusters=8, "
       "sample_ratio=1)");
  auto indexed = Must("SELECT id FROM t ORDER BY vec <-> "
                      "'0.37,0.38,0.39,0.4,0.41,0.42,0.43,0.44' "
                      "OPTIONS (nprobe=8) LIMIT 5");
  ASSERT_EQ(indexed.rows.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(indexed.rows[i].id, seq.rows[i].id);
  }
}

TEST_F(DatabaseTest, AllThreeEnginesAnswerQueries) {
  for (const std::string engine : {"pase", "faiss", "bridge"}) {
    const std::string table = "t_" + engine;
    Must("CREATE TABLE " + table + " (id int, vec float[4])");
    std::string insert = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < 64; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", '" + std::to_string(i * 0.1) +
                ",0,0,0')";
    }
    Must(insert);
    Must("CREATE INDEX idx_" + engine + " ON " + table +
         " USING ivfflat (vec) WITH (clusters=4, sample_ratio=1, engine='" +
         engine + "')");
    auto result = Must("SELECT id FROM " + table +
                       " ORDER BY vec <-> '0.05,0,0,0' OPTIONS (nprobe=4) "
                       "LIMIT 3");
    ASSERT_EQ(result.rows.size(), 3u) << engine;
    EXPECT_TRUE(result.rows[0].id == 0 || result.rows[0].id == 1) << engine;
  }
}

TEST_F(DatabaseTest, DeleteLogsOneRecordAndReplaysTheSameDeadSet) {
  Must("CREATE TABLE t (id int, vec float[2], a int)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 2000; ++i) {
    insert += (i == 0 ? "(" : ", (") + std::to_string(i) + ", '" +
              std::to_string(i % 13) + ",1', " + std::to_string(i % 100) +
              ")";
  }
  Must(insert);
  const std::string scan =
      "SELECT id FROM t ORDER BY vec <-> '0,0' LIMIT 5000";
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t records = metrics.Value(obs::Counter::kWalRecords);
  EXPECT_EQ(Must("DELETE FROM t WHERE a < 50").message, "DELETE 1000");
  EXPECT_EQ(metrics.Value(obs::Counter::kWalRecords), records + 1);
  const std::vector<int64_t> live = Ids(scan);
  ASSERT_EQ(live.size(), 1000u);
  Reopen();  // no checkpoint since the DELETE: the WAL record replays
  EXPECT_EQ(Ids(scan), live);
}

TEST_F(DatabaseTest, RebuildOnlyIndexGoesStaleOnInsert) {
  LoadSmallTable();
  Must("CREATE INDEX items_flat ON items USING flat (vec) "
       "WITH (engine='faiss')");
  const std::string explain =
      "EXPLAIN SELECT id FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 3";
  EXPECT_EQ(Must(explain).message.rfind("Index Scan", 0), 0u);
  // faiss flat cannot insert: the index would miss row 60.
  Must("INSERT INTO items VALUES (60, '1,0,0,0')");
  const std::string plan = Must(explain).message;
  EXPECT_EQ(plan.rfind("Seq Scan", 0), 0u) << plan;
  EXPECT_NE(plan.find("stale_index=items_flat"), std::string::npos) << plan;
  EXPECT_EQ(Ids("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 2"),
            (std::vector<int64_t>{10, 60}));
  Reopen();  // rebuilt from the heap
  EXPECT_EQ(Must(explain).message.rfind("Index Scan", 0), 0u);
}

TEST_F(DatabaseTest, ExplainShowsPlan) {
  LoadSmallTable();
  auto seq = Must("EXPLAIN SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                  "LIMIT 2");
  EXPECT_NE(seq.message.find("Seq Scan"), std::string::npos);
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) "
       "WITH (clusters=2, sample_ratio=1)");
  auto idx = Must("EXPLAIN SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                  "LIMIT 2");
  EXPECT_NE(idx.message.find("Index Scan"), std::string::npos);
}

TEST_F(DatabaseTest, ExplainPlansAScanOverDeadRowsAsFiltered) {
  // With a dead row the scan runs filtered over the live rows, WHERE or
  // not, and EXPLAIN shows that plan's strategy and estimate.
  LoadSmallTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) "
       "WITH (clusters=2, sample_ratio=1)");
  const std::string explain =
      "EXPLAIN SELECT id FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 2";
  EXPECT_EQ(Must(explain).message.find("strategy="), std::string::npos);
  Must("DELETE FROM items WHERE id = 10");
  const std::string plan = Must(explain).message;
  EXPECT_NE(plan.find(" strategy="), std::string::npos) << plan;
  EXPECT_NE(plan.find(" est_selectivity=0.800000"), std::string::npos)
      << plan;  // 4 of 5 rows live
  EXPECT_EQ(plan.find("filter="), std::string::npos) << plan;
}

TEST_F(DatabaseTest, NonL2MetricFallsBackToSeqScan) {
  LoadSmallTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) "
       "WITH (clusters=2, sample_ratio=1)");
  auto plan = Must("EXPLAIN SELECT id FROM items ORDER BY vec <=> '1,0,0,0' "
                   "LIMIT 2");
  EXPECT_NE(plan.message.find("Seq Scan"), std::string::npos);
  auto result =
      Must("SELECT id FROM items ORDER BY vec <=> '1,0,0,0' LIMIT 1");
  EXPECT_EQ(result.rows[0].id, 10);
}

TEST_F(DatabaseTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(session_->Execute("SELECT id FROM ghost ORDER BY v <-> '1' LIMIT 1")
                  .status()
                  .IsNotFound());
  Must("CREATE TABLE t (id int, vec float[2])");
  EXPECT_TRUE(session_->Execute("CREATE TABLE t (id int, vec float[2])")
                  .status()
                  .IsAlreadyExists());
  // Dimension mismatches.
  EXPECT_FALSE(session_->Execute("INSERT INTO t VALUES (1, '1,2,3')").ok());
  EXPECT_FALSE(
      session_->Execute("SELECT id FROM t ORDER BY vec <-> '1,2,3' LIMIT 1").ok());
  // An index needs rows to train on.
  EXPECT_TRUE(session_->Execute("CREATE INDEX i ON t USING ivfflat (vec) "
                                "WITH (clusters=1)")
                  .status()
                  .IsInvalidArgument());
  // Unknown engine / method.
  Must("INSERT INTO t VALUES (1, '1,2')");
  EXPECT_FALSE(session_->Execute("CREATE INDEX i ON t USING ivfflat (vec) "
                            "WITH (engine='oracle')")
                   .ok());
  EXPECT_FALSE(
      session_->Execute("CREATE INDEX i ON t USING btree (vec)").ok());
  // Selecting a non-id column.
  EXPECT_FALSE(
      session_->Execute("SELECT vec FROM t ORDER BY vec <-> '1,2' LIMIT 1").ok());
}

TEST_F(DatabaseTest, DropTableAndIndexLifecycle) {
  LoadSmallTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) "
       "WITH (clusters=2, sample_ratio=1)");
  // Table with an index cannot be dropped first.
  EXPECT_FALSE(session_->Execute("DROP TABLE items").ok());
  Must("DROP INDEX items_idx");
  Must("DROP TABLE items");
  EXPECT_TRUE(session_->Execute("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                           "LIMIT 1")
                  .status()
                  .IsNotFound());
}

TEST_F(DatabaseTest, DeleteRemovesRowFromBothScanPaths) {
  LoadSmallTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) "
       "WITH (clusters=2, sample_ratio=1)");
  // id=10 is the exact match for this query in both plans.
  auto before = Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                     "OPTIONS (nprobe=2) LIMIT 1");
  EXPECT_EQ(before.rows[0].id, 10);
  Must("DELETE FROM items WHERE id = 10");
  // Index scan no longer returns it.
  auto indexed = Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                      "OPTIONS (nprobe=2) LIMIT 1");
  EXPECT_EQ(indexed.rows[0].id, 50);
  // Seq scan (cosine forces the fallback) agrees.
  auto seq = Must("SELECT id FROM items ORDER BY vec <=> '1,0,0,0' LIMIT 1");
  EXPECT_NE(seq.rows[0].id, 10);
  // Double delete and unknown rows fail.
  EXPECT_TRUE(session_->Execute("DELETE FROM items WHERE id = 10")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(session_->Execute("DELETE FROM items WHERE id = 777").ok());
}

TEST_F(DatabaseTest, DeleteMarksEveryCopyOfADuplicateId) {
  // Row ids need not be unique: ids 0..63 on a line, then a second row
  // carrying id 5 right beside the query. DELETE must mark both heap
  // positions dead, or an index scan, which reads the rows at those same
  // positions, resurfaces the deleted id.
  for (const char* engine : {"faiss", "pase"}) {
    SCOPED_TRACE(engine);
    Must("CREATE TABLE t (id int, vec float[4])");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 64; ++i) {
      insert += "(" + std::to_string(i) + ", '" + std::to_string(i) +
                ",0,0,0'), ";
    }
    Must(insert + "(5, '5.1,0,0,0')");
    Must(std::string("CREATE INDEX t_idx ON t USING ivfflat (vec) WITH "
                     "(clusters=2, sample_ratio=1, engine='") +
         engine + "')");
    EXPECT_EQ(Must("DELETE FROM t WHERE id = 5").message, "DELETE 2");
    for (const std::string where : {"", "WHERE id < 1000 "}) {
      auto result = Must("SELECT id FROM t " + where +
                         "ORDER BY vec <-> '5,0,0,0' OPTIONS (nprobe=2" +
                         (where.empty() ? "" : ", filter_strategy=prefilter") +
                         ") LIMIT 3");
      ASSERT_EQ(result.rows.size(), 3u) << where;
      for (const auto& row : result.rows) EXPECT_NE(row.id, 5) << where;
    }
    EXPECT_TRUE(session_->Execute("DELETE FROM t WHERE id = 5")
                    .status()
                    .IsNotFound());
    Must("DROP INDEX t_idx");
    Must("DROP TABLE t");
  }
}

TEST_F(DatabaseTest, DeleteByIdOfRowMissingFromRebuildOnlyIndex) {
  // Bridge indexes are rebuild-only: a row inserted after CREATE INDEX is
  // in the heap but not in the index. `WHERE id = n` must delete it as the
  // predicate path does, instead of failing after the tombstone landed.
  for (const char* method : {"ivfflat", "hnsw"}) {
    SCOPED_TRACE(method);
    Must("CREATE TABLE t (id int, vec float[4])");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 40; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", '" + std::to_string(i) +
                ",0,0,0')";
    }
    Must(insert);
    Must(std::string("CREATE INDEX t_idx ON t USING ") + method +
         " (vec) WITH (clusters=2, sample_ratio=1, engine='bridge')");
    Must("INSERT INTO t VALUES (100, '100,0,0,0'), (101, '101,0,0,0')");
    EXPECT_EQ(Must("DELETE FROM t WHERE id = 100").message, "DELETE 1");
    EXPECT_EQ(Must("DELETE FROM t WHERE id >= 101 AND id <= 101").message,
              "DELETE 1");
    auto again = session_->Execute("DELETE FROM t WHERE id = 100");
    EXPECT_TRUE(again.status().IsNotFound());
    EXPECT_NE(again.status().ToString().find("already deleted"),
              std::string::npos)
        << again.status().ToString();
    auto seq = Must("SELECT id FROM t ORDER BY vec <=> '100,0,0,0' "
                    "LIMIT 100");
    EXPECT_EQ(seq.rows.size(), 40u);
    for (const auto& row : seq.rows) EXPECT_LT(row.id, 100);
    Must("DROP INDEX t_idx");
    Must("DROP TABLE t");
  }
}

TEST_F(DatabaseTest, CreateIndexAfterDeleteKeepsDeletedRowsOut) {
  // CREATE INDEX builds over every heap row, deleted ones included, so its
  // scans must skip the table's dead rows, as after the rebuild on reopen.
  const std::string with =
      " (vec) WITH (clusters=2, sample_ratio=1, m=2, pq_codes=16, bnn=8, "
      "efb=16, engine='";
  const std::string select =
      " ORDER BY vec <-> '0,0,0,0' OPTIONS (nprobe=2, efs=64) LIMIT 8";
  std::vector<std::string> tables;
  std::vector<std::vector<int64_t>> answers;
  for (const std::string engine : {"faiss", "pase", "bridge"}) {
    for (const std::string method : {"ivfflat", "ivfpq", "ivfsq8", "hnsw"}) {
      if (engine == "bridge" && (method == "ivfpq" || method == "ivfsq8")) {
        continue;  // the bridge implements ivfflat and hnsw only
      }
      const std::string table = "t_" + engine + "_" + method;
      SCOPED_TRACE(table);
      Must("CREATE TABLE " + table + " (id int, vec float[4])");
      std::string insert = "INSERT INTO " + table + " VALUES ";
      for (int i = 0; i < 64; ++i) {
        if (i > 0) insert += ", ";
        insert += "(" + std::to_string(i) + ", '" + std::to_string(i) +
                  ",0,0,0')";
      }
      Must(insert);
      // The rows nearest the query.
      EXPECT_EQ(Must("DELETE FROM " + table + " WHERE id < 4").message,
                "DELETE 4");
      Must("CREATE INDEX " + table + "_idx ON " + table + " USING " +
           method + with + engine + "')");
      auto result = Must("SELECT id FROM " + table + select);
      EXPECT_EQ(result.rows.size(), 8u);
      std::vector<int64_t> ids;
      for (const auto& row : result.rows) {
        EXPECT_GE(row.id, 4);
        ids.push_back(row.id);
      }
      tables.push_back(table);
      answers.push_back(ids);
    }
  }
  Reopen();
  for (size_t t = 0; t < tables.size(); ++t) {
    auto result = Must("SELECT id FROM " + tables[t] + select);
    std::vector<int64_t> ids;
    for (const auto& row : result.rows) ids.push_back(row.id);
    EXPECT_EQ(ids, answers[t]) << tables[t];
  }
}

TEST_F(DatabaseTest, BridgeIndexScanSkipsDeletedRows) {
  // The bridge's indexes are never told of a delete, like every other
  // engine's: the table's dead heap positions alone keep a deleted row
  // out of their scans.
  for (const std::string method : {"ivfflat", "hnsw"}) {
    const std::string table = "b_" + method;
    Must("CREATE TABLE " + table + " (id int, vec float[2])");
    std::string insert = "INSERT INTO " + table + " VALUES ";
    for (int i = 1; i <= 8; ++i) {
      if (i > 1) insert += ", ";
      insert += "(" + std::to_string(i) + ", '" + std::to_string(i) + ",0')";
    }
    Must(insert);
    Must("CREATE INDEX " + table + "_idx ON " + table + " USING " + method +
         " (vec) WITH (clusters=2, sample_ratio=1, bnn=4, efb=8, "
         "engine='bridge')");
    EXPECT_EQ(Must("DELETE FROM " + table + " WHERE id = 1").message,
              "DELETE 1");
  }
  for (int round = 0; round < 2; ++round) {
    for (const std::string method : {"ivfflat", "hnsw"}) {
      EXPECT_EQ(Ids("SELECT id FROM b_" + method +
                    " ORDER BY vec <-> '0,0' OPTIONS (nprobe=2, efs=16) "
                    "LIMIT 3"),
                (std::vector<int64_t>{2, 3, 4}))
          << method << " round " << round;
    }
    Reopen();
  }
}

TEST_F(DatabaseTest, ReinsertedIdIsLiveOnEveryScanPath) {
  // Deleting id 1 and inserting it again must leave the new row live: the
  // table's deletes are heap positions, not ids. Checked on the seq scan
  // (table s, no index) and on faiss and pase index scans, before CREATE
  // INDEX, after it, and after a reopen under either recovery policy.
  for (const IndexRecovery recovery :
       {IndexRecovery::kRebuild, IndexRecovery::kReload}) {
    DatabaseOptions options;
    options.index_recovery = recovery;
    Reopen(options);
    const std::string tag =
        recovery == IndexRecovery::kReload ? "_reload" : "_rebuild";
    const std::vector<std::string> indexed = {"faiss_ivfflat", "faiss_hnsw",
                                              "pase_ivfflat", "pase_hnsw"};
    std::vector<std::string> tables = {"s"};
    for (const auto& name : indexed) tables.push_back(name);
    for (auto& table : tables) table += tag;
    auto for_all = [&](const std::string& head, const std::string& tail) {
      for (const auto& table : tables) Must(head + table + tail);
    };
    for_all("CREATE TABLE ", " (id int, vec float[2])");
    for_all("INSERT INTO ",
            " VALUES (1, '1,0'), (2, '2,0'), (3, '3,0'), (4, '4,0'), "
            "(5, '5,0'), (6, '6,0'), (7, '7,0'), (8, '8,0')");
    for_all("DELETE FROM ", " WHERE id = 1");
    for_all("INSERT INTO ", " VALUES (1, '0,0')");
    auto expect_ids = [&](const std::vector<int64_t>& want,
                          const std::string& when) {
      for (const auto& table : tables) {
        EXPECT_EQ(Ids("SELECT id FROM " + table +
                      " ORDER BY vec <-> '0,0' OPTIONS (nprobe=2, efs=16) "
                      "LIMIT 3"),
                  want)
            << table << " " << when;
      }
    };
    expect_ids({1, 2, 3}, "before CREATE INDEX");
    for (size_t t = 1; t < tables.size(); ++t) {
      const std::string& name = indexed[t - 1];
      const std::string engine = name.substr(0, name.find('_'));
      const std::string method = name.substr(name.find('_') + 1);
      Must("CREATE INDEX " + tables[t] + "_idx ON " + tables[t] + " USING " +
           method + " (vec) WITH (clusters=2, sample_ratio=1, bnn=4, efb=8, "
           "engine='" + engine + "')");
    }
    expect_ids({1, 2, 3}, "after CREATE INDEX");
    // The same through the indexes' insert path.
    for_all("DELETE FROM ", " WHERE id = 2");
    for_all("INSERT INTO ", " VALUES (2, '0.5,0')");
    expect_ids({1, 2, 3}, "after a re-insert into the index");
    Must("CHECKPOINT");
    Reopen(options);
    expect_ids({1, 2, 3}, "after reopen");
  }
}

TEST_F(DatabaseTest, DeletingAReinsertedIdCountsOnlyTheLiveRow) {
  Must("CREATE TABLE t (id int, vec float[2])");
  Must("INSERT INTO t VALUES (1, '1,0'), (2, '2,0')");
  Must("CREATE INDEX t_idx ON t USING ivfflat (vec) WITH (clusters=1, "
       "sample_ratio=1)");
  EXPECT_EQ(Must("DELETE FROM t WHERE id = 1").message, "DELETE 1");
  Must("INSERT INTO t VALUES (1, '0,0')");
  EXPECT_EQ(Must("DELETE FROM t WHERE id = 1").message, "DELETE 1");
  auto again = session_->Execute("DELETE FROM t WHERE id = 1");
  EXPECT_TRUE(again.status().IsNotFound()) << again.status().ToString();
  EXPECT_EQ(Ids("SELECT id FROM t ORDER BY vec <-> '0,0' OPTIONS (nprobe=1) "
                "LIMIT 3"),
            (std::vector<int64_t>{2}));
}

TEST_F(DatabaseTest, LimitPastTheTableIsClamped) {
  // A LIMIT sizes the result heap; one past the table's rows is clamped to
  // them instead of reserving LIMIT entries (std::length_error aborted the
  // process).
  Must("CREATE TABLE t (id int, vec float[2])");
  Must("INSERT INTO t VALUES (1, '1,0'), (2, '2,0')");
  const std::string select =
      "SELECT id FROM t ORDER BY vec <-> '0,0' OPTIONS (nprobe=1) "
      "LIMIT 9223372036854775807";
  EXPECT_EQ(Must(select).rows.size(), 2u);  // seq scan
  for (const std::string engine : {"faiss", "pase"}) {
    for (const std::string method : {"ivfflat", "hnsw"}) {
      SCOPED_TRACE(engine + " " + method);
      Must("CREATE INDEX t_idx ON t USING " + method +
           " (vec) WITH (clusters=1, sample_ratio=1, engine='" + engine +
           "')");
      auto result = Must(select);
      ASSERT_EQ(result.rows.size(), 2u);
      EXPECT_EQ(result.rows[0].id, 1);
      EXPECT_EQ(result.rows[1].id, 2);
      EXPECT_NE(Must("EXPLAIN " + select).message.find(
                    "k=9223372036854775807"),
                std::string::npos);
      Must("DROP INDEX t_idx");
    }
  }
}

TEST_F(DatabaseTest, DeleteValidatesColumnAndTable) {
  LoadSmallTable();
  EXPECT_FALSE(session_->Execute("DELETE FROM items WHERE vec = 1").ok());
  EXPECT_TRUE(
      session_->Execute("DELETE FROM ghost WHERE id = 1").status().IsNotFound());
}

TEST_F(DatabaseTest, UserRowIdsPreservedThroughIndexScan) {
  Must("CREATE TABLE t (id int, vec float[2])");
  Must("INSERT INTO t VALUES (777, '0,0'), (888, '1,1'), (999, '2,2')");
  Must("CREATE INDEX i ON t USING ivfflat (vec) WITH (clusters=2, "
       "sample_ratio=1)");
  auto result =
      Must("SELECT id FROM t ORDER BY vec <-> '0.1,0.1' OPTIONS (nprobe=2) "
           "LIMIT 1");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].id, 777);
}

// Extracts a counter's value from the SHOW METRICS table ("name   value").
uint64_t TableValue(const std::string& table, const std::string& name) {
  const size_t pos = table.find(name + " ");
  if (pos == std::string::npos) return ~uint64_t{0};
  const size_t eol = table.find('\n', pos);
  return std::stoull(table.substr(pos + name.size(), eol - pos - name.size()));
}

TEST_F(DatabaseTest, ShowMetricsRoundTripsAndCounts) {
  Must("SHOW METRICS RESET");  // start from a clean registry
  LoadSmallTable();
  Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 2");
  EXPECT_FALSE(session_->Execute("SELECT nope FROM items ORDER BY vec <-> '1' "
                            "LIMIT 1")
                   .ok());
  auto shown = Must("SHOW METRICS");
  // The export is the full counter/histogram table with live values.
  EXPECT_EQ(TableValue(shown.message, "sql.select"), 2u);
  EXPECT_EQ(TableValue(shown.message, "sql.insert_rows"), 5u);
  EXPECT_EQ(TableValue(shown.message, "sql.create_table"), 1u);
  EXPECT_EQ(TableValue(shown.message, "sql.errors"), 1u);
  EXPECT_NE(shown.message.find("sql.select_nanos"), std::string::npos);
  // The heap scan goes through the buffer manager, so page counters moved.
  EXPECT_GT(TableValue(shown.message, "bufmgr.pin"), 0u);

  // RESET zeroes everything; the subsequent export reflects it.
  Must("SHOW METRICS RESET");
  auto cleared = Must("SHOW METRICS");
  EXPECT_EQ(TableValue(cleared.message, "sql.select"), 0u);
  EXPECT_EQ(TableValue(cleared.message, "sql.errors"), 0u);
}

TEST_F(DatabaseTest, ExecStatsReportRowsAndLatency) {
  LoadSmallTable();
  auto seq = Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' LIMIT 2");
  EXPECT_EQ(seq.stats.rows_returned, 2u);
  EXPECT_EQ(seq.stats.rows_scanned, 5u);  // full heap scan
  EXPECT_GT(seq.stats.wall_seconds, 0.0);

  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
       "(clusters=2, sample_ratio=1)");
  auto indexed = Must("SELECT id FROM items ORDER BY vec <-> '1,0,0,0' "
                      "OPTIONS (nprobe=1) LIMIT 2");
  EXPECT_EQ(indexed.stats.rows_returned, 2u);
  // nprobe=1 visits one bucket: at least the results, fewer than the table.
  EXPECT_GE(indexed.stats.rows_scanned, 2u);
  EXPECT_LE(indexed.stats.rows_scanned, 5u);

  auto ddl = Must("DROP INDEX items_idx");
  EXPECT_EQ(ddl.stats.rows_returned, 0u);
  EXPECT_GT(ddl.stats.wall_seconds, 0.0);
}

TEST_F(DatabaseTest, LargeLimitGetsWorkingEfsDefault) {
  // LIMIT above the old fixed efs=200 must not trip the efs >= k guard.
  Must("CREATE TABLE big (id int, vec float[4])");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", '" + std::to_string(i * 0.01) +
              "," + std::to_string((i * 37 % 100) * 0.01) + ",0,0')";
  }
  Must(insert);
  Must("CREATE INDEX big_idx ON big USING hnsw (vec) WITH (bnn=8, efb=16)");
  auto result =
      Must("SELECT id FROM big ORDER BY vec <-> '1,0,0,0' LIMIT 250");
  EXPECT_GT(result.rows.size(), 200u);
}

TEST_F(DatabaseTest, IntegerPositionsAreExactOrRejected) {
  Must("CREATE TABLE t (id bigint, vec float[2], a int)");
  Must("INSERT INTO t VALUES (1, '0,0', 1), (2, '1,0', 2), (3, '2,0', 3), "
       "(9007199254740993, '3,0', 4)");

  // 2^53 + 1 has no double: it must round-trip exactly, not as ...992.
  auto big = Must("SELECT id FROM t WHERE id = 9007199254740993 "
                  "ORDER BY vec <-> '3,0' LIMIT 1");
  ASSERT_EQ(big.rows.size(), 1u);
  EXPECT_EQ(big.rows[0].id, 9007199254740993);
  EXPECT_TRUE(Must("SELECT id FROM t WHERE id = 9007199254740992 "
                   "ORDER BY vec <-> '3,0' LIMIT 1")
                  .rows.empty());

  // A fractional comparison constant used to truncate (a < 2.5 became
  // a < 2 and dropped a = 2); it is an error, not a wrong answer.
  auto frac = session_->Execute(
      "SELECT id FROM t WHERE a < 2.5 ORDER BY vec <-> '0,0' LIMIT 5");
  ASSERT_FALSE(frac.ok());
  EXPECT_TRUE(frac.status().IsInvalidArgument());
  EXPECT_FALSE(session_->Execute("SELECT id FROM t WHERE a IN (1, 2.5) "
                                 "ORDER BY vec <-> '0,0' LIMIT 5")
                   .ok());
  EXPECT_EQ(Must("SELECT id FROM t WHERE a < 3 ORDER BY vec <-> '0,0' "
                 "LIMIT 5")
                .rows.size(),
            2u);

  // Non-integral and out-of-range row ids and attributes insert nothing.
  for (const char* bad : {"INSERT INTO t VALUES (5.9, '5,0', 5)",
                          "INSERT INTO t VALUES (1e30, '5,0', 5)",
                          "INSERT INTO t VALUES (6, '5,0', 1e30)",
                          "INSERT INTO t VALUES (9223372036854775808, "
                          "'5,0', 5)"}) {
    auto result = session_->Execute(bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << bad;
  }
  EXPECT_EQ(Must("SELECT id FROM t ORDER BY vec <-> '5,0' LIMIT 10")
                .rows.size(),
            4u);
  EXPECT_FALSE(
      session_->Execute("SELECT id FROM t ORDER BY vec <-> '5,0' LIMIT 2.5")
          .ok());
}

}  // namespace
}  // namespace vecdb::sql
