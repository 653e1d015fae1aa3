// Visibility oracle: seeded random SQL scripts run against MiniDatabase
// and against an in-memory model of the heap. A script INSERTs (re-using
// ids and duplicating them within a statement), DELETEs by id and by
// predicate, CHECKPOINTs, and closes and reopens the database. After each
// statement every scan must see exactly the model's live rows: the seq
// scan equals brute force over them, and an index scan at exhaustive
// settings (nprobe = clusters, efs >= rows) equals the seq scan, with and
// without a WHERE, for all eleven engine/method pairs under both index
// recovery policies. A second suite runs seq and index scans beside a
// writer that deletes and re-inserts ids, for the race detector.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sql/database.h"
#include "sql/session.h"

namespace vecdb::sql {
namespace {

constexpr uint32_t kDim = 4;
constexpr int kClusters = 4;
constexpr int kAttrValues = 10;  ///< attribute `a` is uniform in [0, 10)

struct Pair {
  const char* engine;
  const char* method;
  bool exact_distances;  ///< false: PQ/SQ8 codes approximate distances
};

constexpr Pair kPairs[] = {
    {"faiss", "flat", true},     {"faiss", "ivfflat", true},
    {"faiss", "ivfpq", false},   {"faiss", "ivfsq8", false},
    {"faiss", "hnsw", true},     {"pase", "ivfflat", true},
    {"pase", "ivfpq", false},    {"pase", "ivfsq8", false},
    {"pase", "hnsw", true},      {"bridge", "ivfflat", true},
    {"bridge", "hnsw", true},
};

/// A fresh directory; the process id keeps runs of this binary from
/// different build trees apart when they overlap.
std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/vis_" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string FormatVec(const std::vector<float>& v) {
  std::string out;
  char buf[32];
  for (size_t d = 0; d < v.size(); ++d) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", d == 0 ? "" : ",",
                  static_cast<double>(v[d]));
    out += buf;
  }
  return out;
}

/// The heap as the model sees it: rows in heap (position) order.
struct ModelRow {
  int64_t id = 0;
  std::vector<float> vec;
  int64_t a = 0;
  bool dead = false;
};

struct Expected {
  int64_t id;
  double distance;
};

/// One script: a table `s` with no index (seq scans) and a table `t` with
/// the pair's index, both given every DML statement.
class Script {
 public:
  Script(const Pair& pair, IndexRecovery recovery, uint64_t seed)
      : pair_(pair), rng_(seed) {
    options_.pool_pages = 512;
    options_.index_recovery = recovery;
    const char* policy =
        recovery == IndexRecovery::kReload ? "_reload_" : "_rebuild_";
    dir_ = TestDir(std::string(pair.engine) + "_" + pair.method + policy +
                   std::to_string(seed));
    Reopen();
  }
  ~Script() {
    session_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Run(int steps) {
    for (const char* table : {"s", "t"}) {
      Must(std::string("CREATE TABLE ") + table +
           " (id int, vec float[4], a int)");
    }
    InsertRandomRows(60);
    DeleteRandomRows();
    InsertRandomRows(4);
    Must(std::string("CREATE INDEX t_idx ON t USING ") + pair_.method +
         " (vec) WITH (clusters=" + std::to_string(kClusters) +
         ", sample_ratio=1, m=2, pq_codes=16, bnn=8, efb=32, engine='" +
         pair_.engine + "')");
    VerifyScans("after CREATE INDEX");
    for (int step = 0; step < steps; ++step) {
      const int dice = static_cast<int>(rng_() % 20);
      std::string what;
      if (dice < 8) {
        InsertRandomRows(1 + static_cast<int>(rng_() % 5));
        what = "INSERT";
      } else if (dice < 16) {
        what = DeleteRandomRows();
      } else if (dice < 18) {
        Must("CHECKPOINT");
        what = "CHECKPOINT";
      } else {
        Reopen();
        what = "reopen";
      }
      VerifyScans("step " + std::to_string(step) + " (" + what + ")");
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  void Reopen() {
    session_.reset();
    db_.reset();
    db_ = MiniDatabase::Open(dir_, options_).ValueOrDie();
    session_ = db_->CreateSession();
  }

  QueryResult Must(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  /// Runs `sql` against both tables ("%" stands for the table name) and
  /// returns the first one's message; both must agree.
  std::string Both(const std::string& sql) {
    std::string message[2];
    for (int i = 0; i < 2; ++i) {
      std::string stmt = sql;
      stmt.replace(stmt.find('%'), 1, i == 0 ? "s" : "t");
      auto result = session_->Execute(stmt);
      message[i] = result.ok() ? result->message : result.status().ToString();
    }
    EXPECT_EQ(message[0], message[1]) << sql;
    return message[0];
  }

  int64_t PickId() {
    // Mostly ids already used (live, dead or both), sometimes a fresh one.
    if (!heap_.empty() && rng_() % 4 != 0) {
      return heap_[rng_() % heap_.size()].id;
    }
    return next_id_++;
  }

  void InsertRandomRows(int rows) {
    std::string sql = "INSERT INTO % VALUES ";
    for (int r = 0; r < rows; ++r) {
      ModelRow row;
      // A duplicate id within the statement, sometimes.
      row.id = r > 0 && rng_() % 4 == 0 ? heap_.back().id : PickId();
      std::uniform_real_distribution<float> unit(0.0f, 1.0f);
      for (uint32_t d = 0; d < kDim; ++d) row.vec.push_back(unit(rng_));
      row.a = static_cast<int64_t>(rng_() % kAttrValues);
      if (r > 0) sql += ", ";
      sql += "(" + std::to_string(row.id) + ", '" + FormatVec(row.vec) +
             "', " + std::to_string(row.a) + ")";
      heap_.push_back(std::move(row));
    }
    EXPECT_EQ(Both(sql), "INSERT " + std::to_string(rows));
  }

  std::string DeleteRandomRows() {
    if (rng_() % 2 == 0) {
      const int64_t id = PickId();
      bool any = false;
      size_t count = 0;
      for (auto& row : heap_) {
        if (row.id != id) continue;
        any = true;
        if (!row.dead) ++count;
        row.dead = true;
      }
      const std::string message =
          Both("DELETE FROM % WHERE id = " + std::to_string(id));
      if (count > 0) {
        EXPECT_EQ(message, "DELETE " + std::to_string(count));
      } else {
        EXPECT_NE(message.find(any ? "already deleted" : "no row with id"),
                  std::string::npos)
            << message;
      }
      return "DELETE by id";
    }
    const int64_t lo = static_cast<int64_t>(rng_() % kAttrValues);
    size_t count = 0;
    for (auto& row : heap_) {
      if (row.a == lo && !row.dead) {
        row.dead = true;
        ++count;
      }
    }
    EXPECT_EQ(Both("DELETE FROM % WHERE a >= " + std::to_string(lo) +
                   " AND a <= " + std::to_string(lo)),
              "DELETE " + std::to_string(count));
    return "DELETE by predicate";
  }

  /// Brute force over the live rows that pass the optional `a < a_below`
  /// filter (a_below < 0: no filter).
  std::vector<Expected> BruteForce(const std::vector<float>& query,
                                   int64_t a_below) const {
    std::vector<Expected> out;
    for (const ModelRow& row : heap_) {
      if (row.dead || (a_below >= 0 && row.a >= a_below)) continue;
      double dist = 0.0;
      for (uint32_t d = 0; d < kDim; ++d) {
        const double diff =
            static_cast<double>(row.vec[d]) - static_cast<double>(query[d]);
        dist += diff * diff;
      }
      out.push_back({row.id, dist});
    }
    std::sort(out.begin(), out.end(), [](const Expected& x, const Expected& y) {
      return x.distance < y.distance;
    });
    return out;
  }

  void ExpectRows(const std::vector<QueryResult::Row>& got,
                  const std::vector<Expected>& want, size_t limit,
                  const std::string& what) {
    const size_t n = std::min(limit, want.size());
    ASSERT_EQ(got.size(), n) << what;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
      EXPECT_NEAR(got[i].distance, want[i].distance, 1e-4) << what;
    }
  }

  /// Quantized distances reorder rows, so a PQ/SQ8 scan is checked as a
  /// multiset of live ids (the whole table at this LIMIT) in ascending
  /// order of its own distances.
  void ExpectSameIds(const std::vector<QueryResult::Row>& got,
                     const std::vector<Expected>& want,
                     const std::string& what) {
    std::multiset<int64_t> got_ids;
    std::multiset<int64_t> want_ids;
    for (const auto& row : got) got_ids.insert(row.id);
    for (const auto& row : want) want_ids.insert(row.id);
    EXPECT_EQ(got_ids, want_ids) << what;
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].distance, got[i].distance) << what;
    }
  }

  void VerifyScans(const std::string& when) {
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    std::vector<float> query;
    for (uint32_t d = 0; d < kDim; ++d) query.push_back(unit(rng_));
    const size_t all = heap_.size() + 1;
    for (const int64_t a_below : {int64_t{-1}, int64_t{1}, int64_t{6}}) {
      for (const size_t limit : {size_t{10}, all}) {
        std::string sql = "SELECT * FROM % ";
        if (a_below >= 0) sql += "WHERE a < " + std::to_string(a_below) + " ";
        sql += "ORDER BY vec <-> '" + FormatVec(query) +
               "' OPTIONS (nprobe=" + std::to_string(kClusters) +
               ", efs=" + std::to_string(std::max<size_t>(all, 64)) +
               ") LIMIT " + std::to_string(limit);
        const std::string what = when + ": " + sql;
        std::string seq_sql = sql;
        seq_sql.replace(seq_sql.find('%'), 1, "s");
        std::string index_sql = sql;
        index_sql.replace(index_sql.find('%'), 1, "t");
        const QueryResult seq = Must(seq_sql);
        const QueryResult idx = Must(index_sql);
        ExpectRows(seq.rows, BruteForce(query, a_below), limit,
                   "seq " + what);
        const std::vector<Expected> want = BruteForce(query, a_below);
        if (pair_.exact_distances) {
          ExpectRows(idx.rows, want, limit, "index " + what);
          ASSERT_EQ(idx.rows.size(), seq.rows.size()) << what;
          for (size_t i = 0; i < seq.rows.size(); ++i) {
            EXPECT_EQ(idx.rows[i].id, seq.rows[i].id) << what;
          }
        } else if (limit == all) {
          ExpectSameIds(idx.rows, want, "index " + what);
        } else {
          // A top-k cut of quantized distances: live, selected rows only.
          std::multiset<int64_t> live;
          for (const auto& row : want) live.insert(row.id);
          EXPECT_EQ(idx.rows.size(), std::min(limit, want.size())) << what;
          for (const auto& row : idx.rows) {
            auto it = live.find(row.id);
            ASSERT_NE(it, live.end()) << "index " << what << " id " << row.id;
            live.erase(it);
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

  Pair pair_;
  std::mt19937_64 rng_;
  DatabaseOptions options_;
  std::string dir_;
  std::unique_ptr<MiniDatabase> db_;
  std::shared_ptr<Session> session_;
  std::vector<ModelRow> heap_;
  int64_t next_id_ = 0;
};

class VisibilityTest
    : public ::testing::TestWithParam<std::tuple<size_t, IndexRecovery>> {};

TEST_P(VisibilityTest, ScansSeeExactlyTheLiveRows) {
  const auto [pair_index, recovery] = GetParam();
  for (uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Script script(kPairs[pair_index], recovery, seed);
    script.Run(30);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, VisibilityTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kPairs)),
                       ::testing::Values(IndexRecovery::kRebuild,
                                         IndexRecovery::kReload)),
    [](const ::testing::TestParamInfo<VisibilityTest::ParamType>& info) {
      const Pair& pair = kPairs[std::get<0>(info.param)];
      return std::string(pair.engine) + "_" + pair.method +
             (std::get<1>(info.param) == IndexRecovery::kReload ? "_reload"
                                                                : "_rebuild");
    });

TEST(VisibilityStressTest, ScansBesideDeleteAndReinsert) {
  // A writer deletes id x and inserts it again at the same vector, over
  // and over. In every snapshot each id is live exactly once or (between
  // the two statements) not at all, so a scan that returned a dead row
  // would show an id twice. Seq scans read the snapshot lock-free; index
  // scans read it under the table lock.
  constexpr int kIds = 64;
  const std::string dir = TestDir("stress");
  DatabaseOptions options;
  options.pool_pages = 256;
  auto db = MiniDatabase::Open(dir, options).ValueOrDie();
  auto setup = db->CreateSession();
  auto vec = [](int id) {
    return std::to_string(id % 8) + "," + std::to_string(id / 8) + ",0,0";
  };
  ASSERT_TRUE(setup->Execute("CREATE TABLE s (id int, vec float[4])").ok());
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (id int, vec float[4])").ok());
  for (const char* table : {"s", "t"}) {
    std::string sql = std::string("INSERT INTO ") + table + " VALUES ";
    for (int id = 0; id < kIds; ++id) {
      if (id > 0) sql += ", ";
      sql += "(" + std::to_string(id) + ", '" + vec(id) + "')";
    }
    ASSERT_TRUE(setup->Execute(sql).ok());
  }
  ASSERT_TRUE(setup->Execute("CREATE INDEX t_idx ON t USING ivfflat (vec) "
                             "WITH (clusters=2, sample_ratio=1)")
                  .ok());
  // Set when the writer finishes or anyone fails; every loop stops then.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto session = db->CreateSession();
    for (int round = 0; round < 150 && !stop.load(); ++round) {
      const std::string id = std::to_string(round % kIds);
      for (const char* table : {"s", "t"}) {
        auto del = session->Execute(std::string("DELETE FROM ") + table +
                                    " WHERE id = " + id);
        auto ins = session->Execute(std::string("INSERT INTO ") + table +
                                    " VALUES (" + id + ", '" +
                                    vec(round % kIds) + "')");
        if (!del.ok() || del->message != "DELETE 1" || !ins.ok()) {
          ADD_FAILURE() << table << ": re-insert of id " << id << " failed: "
                        << (del.ok() ? del->message : del.status().ToString());
          stop.store(true);
        }
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (const char* table : {"s", "t"}) {
    readers.emplace_back([&db, &stop, table] {
      auto session = db->CreateSession();
      const std::string sql = std::string("SELECT id FROM ") + table +
                              " ORDER BY vec <-> '3,3,0,0' OPTIONS "
                              "(nprobe=2) LIMIT 1000";
      for (int iter = 0; iter < 20 || !stop.load(); ++iter) {
        auto result = session->Execute(sql);
        std::set<int64_t> ids;
        if (result.ok()) {
          for (const auto& row : result->rows) ids.insert(row.id);
        }
        if (!result.ok() || ids.size() != result->rows.size() ||
            ids.size() + 1 < static_cast<size_t>(kIds)) {
          ADD_FAILURE() << table << ": "
                        << (result.ok() ? std::to_string(result->rows.size()) +
                                              " rows, " +
                                              std::to_string(ids.size()) +
                                              " distinct ids"
                                        : result.status().ToString());
          stop.store(true);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  setup.reset();
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vecdb::sql
