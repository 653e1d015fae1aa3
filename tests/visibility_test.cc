// Visibility oracle: seeded random SQL scripts run against MiniDatabase
// and against an in-memory model of the heap. A script INSERTs (re-using
// ids and duplicating them within a statement), DELETEs by id and by
// predicate, CHECKPOINTs, and closes and reopens the database. After each
// statement every scan must see exactly the model's live rows: the seq
// scan equals brute force over them, and an index scan at exhaustive
// settings (nprobe = clusters, efs >= rows) equals the seq scan, with and
// without a WHERE, for all eleven engine/method pairs under both index
// recovery policies. A second suite runs scans beside writers for the
// race detector: seq and index scans beside a writer that deletes and
// re-inserts ids, and every pair's index scans beside multi-row INSERTs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
  // scans load it under the table lock, then scan without it.
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

/// One index scan's answer checked against the statement prefixes it may
/// have seen: rows 0..kBase-1, then kBatch rows per INSERT.
class PrefixOracle {
 public:
  static constexpr int kBase = 48;
  static constexpr int kBatch = 6;
  static constexpr int kBatches = 20;
  static constexpr int kTotal = kBase + kBatch * kBatches;

  PrefixOracle() {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    vecs_.resize(kTotal);
    for (auto& vec : vecs_) {
      for (uint32_t d = 0; d < kDim; ++d) vec.push_back(unit(rng));
    }
  }

  /// VALUES rows for ids [first, first + count): id i is heap position i.
  std::string Values(int first, int count) const {
    std::string sql;
    for (int id = first; id < first + count; ++id) {
      if (id > first) sql += ", ";
      sql += "(" + std::to_string(id) + ", '" + FormatVec(vecs_[id]) +
             "', " + std::to_string(id % kAttrValues) + ")";
    }
    return sql;
  }

  const std::vector<float>& query() const { return vecs_[0]; }

  /// Empty when some prefix of m INSERTs, m in [lo, hi], explains `rows`
  /// (a scan's answer at exhaustive settings, `a < a_below` when
  /// a_below >= 0); else what is wrong.
  std::string Check(const std::vector<QueryResult::Row>& rows, int lo,
                    int hi, int64_t a_below, size_t limit,
                    bool exact_distances) const {
    std::set<int64_t> ids;
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t id = rows[i].id;
      if (i > 0 && rows[i - 1].distance > rows[i].distance) {
        return "not sorted at rank " + std::to_string(i);
      }
      if (!ids.insert(id).second) return "id " + std::to_string(id) + " twice";
      if (id < 0 || id >= kBase + kBatch * hi ||
          (a_below >= 0 && id % kAttrValues >= a_below)) {
        return "id " + std::to_string(id) + " is not a visible match";
      }
    }
    for (int m = lo; m <= hi; ++m) {
      const std::vector<Expected> want = Top(kBase + kBatch * m, a_below);
      if (rows.size() != std::min(limit, want.size())) continue;
      if (limit >= want.size()) {
        // The whole visible match set: every row of each INSERT or none.
        std::set<int64_t> want_ids;
        for (const Expected& e : want) want_ids.insert(e.id);
        if (ids == want_ids) return "";
      } else if (!exact_distances) {
        return "";  // a top-k cut of quantized distances
      } else {
        bool same = true;
        for (size_t i = 0; same && i < rows.size(); ++i) {
          same = rows[i].id == want[i].id &&
                 std::fabs(rows[i].distance - want[i].distance) < 1e-4;
        }
        if (same) return "";
      }
    }
    return std::to_string(rows.size()) + " rows match no prefix of " +
           std::to_string(lo) + ".." + std::to_string(hi) + " INSERTs";
  }

 private:
  /// Brute force over the first `rows` rows passing `a < a_below`.
  std::vector<Expected> Top(int rows, int64_t a_below) const {
    std::vector<Expected> out;
    for (int id = 0; id < rows; ++id) {
      if (a_below >= 0 && id % kAttrValues >= a_below) continue;
      double dist = 0.0;
      for (uint32_t d = 0; d < kDim; ++d) {
        const double diff = static_cast<double>(vecs_[id][d]) -
                            static_cast<double>(query()[d]);
        dist += diff * diff;
      }
      out.push_back({id, dist});
    }
    std::sort(out.begin(), out.end(), [](const Expected& x, const Expected& y) {
      return x.distance < y.distance;
    });
    return out;
  }

  std::vector<std::vector<float>> vecs_;
};

TEST(VisibilityStressTest, IndexScansBesideMultiRowInserts) {
  // Every pair's index scans beside a writer whose statements INSERT
  // kBatch rows each. A scan plans under the table lock and then runs
  // unlocked while the writer appends to the index under the engine's
  // own latches; bounded by its snapshot, it must see every row of an
  // INSERT or none. At exhaustive settings (nprobe = clusters, efs >=
  // rows) each answer is sorted, distinct and live, holds min(k, matching
  // visible rows) rows, and for exact-distance pairs is the brute-force
  // top k of some prefix of INSERTs the scan overlapped. (The rebuild-only
  // pairs go stale at the first INSERT, so their scans become seq scans.)
  const PrefixOracle oracle;
  const std::string query = FormatVec(oracle.query());
  for (const Pair& pair : kPairs) {
    const std::string name = std::string(pair.engine) + "_" + pair.method;
    SCOPED_TRACE(name);
    const std::string dir = TestDir("inserts_" + name);
    DatabaseOptions options;
    options.pool_pages = 512;
    // Stretches each scan between its plan and its engine call, so the
    // writer's INSERTs land inside that window.
    options.scan_delay_nanos_for_test = 2000;
    auto db = MiniDatabase::Open(dir, options).ValueOrDie();
    auto setup = db->CreateSession();
    ASSERT_TRUE(
        setup->Execute("CREATE TABLE t (id int, vec float[4], a int)").ok());
    ASSERT_TRUE(setup
                    ->Execute("INSERT INTO t VALUES " +
                              oracle.Values(0, PrefixOracle::kBase))
                    .ok());
    ASSERT_TRUE(setup
                    ->Execute(std::string("CREATE INDEX t_idx ON t USING ") +
                              pair.method + " (vec) WITH (clusters=" +
                              std::to_string(kClusters) +
                              ", sample_ratio=1, m=2, pq_codes=16, bnn=8, "
                              "efb=32, engine='" + pair.engine + "')")
                    .ok());
    // started: INSERTs issued; published: INSERTs returned. A scan that
    // began after `published` reached lo and ended before `started`
    // passed hi saw between lo and hi of them.
    std::atomic<int> started{0};
    std::atomic<int> published{0};
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    std::thread writer([&] {
      auto session = db->CreateSession();
      for (int b = 0; b < PrefixOracle::kBatches && !failed.load(); ++b) {
        started.store(b + 1);
        auto result = session->Execute(
            "INSERT INTO t VALUES " +
            oracle.Values(PrefixOracle::kBase + b * PrefixOracle::kBatch,
                          PrefixOracle::kBatch));
        if (!result.ok()) {
          ADD_FAILURE() << "INSERT failed: " << result.status().ToString();
          failed.store(true);
        }
        published.store(b + 1);
        // Room for scans between statements as well as during them.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      done.store(true);
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        auto session = db->CreateSession();
        for (int iter = 0; !failed.load() && (iter < 4 || !done.load());
             ++iter) {
          const int64_t a_below = (iter + r) % 2 == 1 ? 5 : -1;
          const size_t limit = iter % 3 == 0 ? PrefixOracle::kTotal + 1 : 10;
          std::string sql = "SELECT * FROM t ";
          if (a_below >= 0) sql += "WHERE a < " + std::to_string(a_below) + " ";
          sql += "ORDER BY vec <-> '" + query + "' OPTIONS (nprobe=" +
                 std::to_string(kClusters) + ", efs=" +
                 std::to_string(PrefixOracle::kTotal + 64) + ") LIMIT " +
                 std::to_string(limit);
          const int lo = published.load();
          auto result = session->Execute(sql);
          const int hi = started.load();
          const std::string error =
              result.ok() ? oracle.Check(result->rows, lo, hi, a_below, limit,
                                         pair.exact_distances)
                          : result.status().ToString();
          if (!error.empty()) {
            ADD_FAILURE() << sql << ": " << error;
            failed.store(true);
          }
        }
      });
    }
    writer.join();
    for (auto& reader : readers) reader.join();
    setup.reset();
    db.reset();
    std::filesystem::remove_all(dir);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace vecdb::sql
