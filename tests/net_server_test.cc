// End-to-end tests for the networked front end: VecServer + VecClient on
// a loopback socket. Covers the ISSUE acceptance criteria — concurrent
// clients with exact parity against the in-process Session path,
// statement cancellation via CANCEL <id> SQL and the out-of-band cancel
// frame, statement_timeout_ms enforcement with the connection surviving,
// capacity refusal, and protocol-error resilience. The ServerStressTest
// suite is additionally run under TSan by ci/run_checks.sh.
#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "net/client.h"
#include "sql/database.h"
#include "sql/session.h"

namespace vecdb::net {
namespace {

using sql::DatabaseOptions;
using sql::MiniDatabase;
using sql::QueryResult;

std::string TestDir(const char* suffix) {
  std::string dir = ::testing::TempDir() + "/net_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    "_" + suffix;
  std::filesystem::remove_all(dir);
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

/// Multi-row INSERT for ids [first, first + count) into
/// t (id, vec, price) with price = id % 7.
std::string InsertBatch(int64_t first, int count) {
  std::string sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < count; ++i) {
    if (i > 0) sql += ", ";
    const int64_t id = first + i;
    sql += "(" + std::to_string(id) + ", '" +
           Vec4(static_cast<int>(id)) + "', " + std::to_string(id % 7) + ")";
  }
  return sql;
}

QueryResult Must(VecClient& client, const std::string& stmt) {
  auto result = client.Execute(stmt);
  EXPECT_TRUE(result.ok()) << stmt << " -> " << result.status().ToString();
  return result.ok() ? *result : QueryResult{};
}

QueryResult Must(sql::Session& session, const std::string& stmt) {
  auto result = session.Execute(stmt);
  EXPECT_TRUE(result.ok()) << stmt << " -> " << result.status().ToString();
  return result.ok() ? *result : QueryResult{};
}

/// Opens a database + server pair; the fixture-free tests call this.
struct Harness {
  std::unique_ptr<MiniDatabase> db;
  std::unique_ptr<VecServer> server;
};

Harness StartHarness(const std::string& dir, DatabaseOptions db_options,
                     ServerOptions server_options = {}) {
  Harness h;
  auto db = MiniDatabase::Open(dir, db_options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  h.db = std::move(*db);
  auto server = VecServer::Start(h.db.get(), server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  h.server = std::move(*server);
  return h;
}

std::unique_ptr<VecClient> MustConnect(uint16_t port) {
  auto client = VecClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

TEST(ServerTest, OptionsAreValidated) {
  auto db = MiniDatabase::Open(TestDir("opts"), SmallPool());
  ASSERT_TRUE(db.ok());
  ServerOptions bad_port;
  bad_port.listen_port = 65536;
  EXPECT_TRUE(VecServer::Start(db->get(), bad_port)
                  .status()
                  .IsInvalidArgument());
  ServerOptions no_conns;
  no_conns.max_connections = 0;
  EXPECT_TRUE(VecServer::Start(db->get(), no_conns)
                  .status()
                  .IsInvalidArgument());
  ServerOptions no_workers;
  no_workers.worker_threads = 0;
  EXPECT_TRUE(VecServer::Start(db->get(), no_workers)
                  .status()
                  .IsInvalidArgument());
}

TEST(ServerTest, StartStopIsCleanAndIdempotent) {
  auto h = StartHarness(TestDir("db"), SmallPool());
  ASSERT_NE(h.server, nullptr);
  EXPECT_NE(h.server->port(), 0);
  EXPECT_EQ(h.server->connections(), 0u);
  h.server->Stop();
  h.server->Stop();  // second Stop is a no-op
}

TEST(ServerTest, ExecuteRoundTripAndErrorsKeepConnectionUsable) {
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto client = MustConnect(h.server->port());
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->session_id(), 0u);

  Must(*client, "CREATE TABLE t (id int, vec float[4], price int)");
  Must(*client, InsertBatch(1, 20));
  auto result =
      Must(*client, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 3");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.columns, std::vector<std::string>{"id"});
  EXPECT_GT(result.stats.rows_scanned, 0u);

  // A failing statement comes back as its Status, not a dropped
  // connection: the code survives the wire and the next statement runs.
  auto missing = client->Execute(
      "SELECT id FROM ghost ORDER BY vec <#> '1,1,1,1' LIMIT 1");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
  auto parse_error = client->Execute("SELEKT banana");
  EXPECT_FALSE(parse_error.ok());
  EXPECT_EQ(Must(*client, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                          "LIMIT 3")
                .rows.size(),
            3u);
}

TEST(ServerTest, ShowSessionsReportsPeerAddress) {
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto client = MustConnect(h.server->port());
  ASSERT_NE(client, nullptr);
  auto local = h.db->CreateSession();
  const std::string table = Must(*local, "SHOW SESSIONS").message;
  EXPECT_NE(table.find("127.0.0.1:"), std::string::npos) << table;
  EXPECT_NE(table.find("local"), std::string::npos) << table;
}

// The headline acceptance test: 8 concurrent clients over the wire, mixed
// INSERT / SELECT / filtered-search load, and read results byte-identical
// to the in-process Session path.
TEST(ServerTest, EightConcurrentClientsMatchInProcessSession) {
  constexpr int kClients = 8;
  constexpr int kRowsPerClient = 40;
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto setup = h.db->CreateSession();
  Must(*setup, "CREATE TABLE t (id int, vec float[4], price int)");

  // Phase 1: every client inserts a disjoint id range, interleaved with
  // reads, all concurrently over the wire.
  {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = VecClient::Connect("127.0.0.1", h.server->port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        const int64_t base = 1000 + c * kRowsPerClient;
        for (int chunk = 0; chunk < kRowsPerClient; chunk += 10) {
          if (!(*client)->Execute(InsertBatch(base + chunk, 10)).ok()) {
            ++failures;
          }
          // Interleave a read; row counts vary while inserts race, so
          // only success is asserted here.
          if (!(*client)
                   ->Execute("SELECT id FROM t ORDER BY vec <#> "
                             "'1,1,1,1' LIMIT 5")
                   .ok()) {
            ++failures;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
  }

  ASSERT_EQ(Must(*setup, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                         "LIMIT 100000")
                .rows.size(),
            static_cast<size_t>(kClients * kRowsPerClient));
  Must(*setup, "CREATE INDEX t_idx ON t USING ivfflat (vec) WITH "
               "(clusters=8, sample_ratio=1)");

  // Phase 2: deterministic read-only queries. Expected answers come from
  // the in-process Session path; every client must match them exactly —
  // ids, distances, columns, and row counts.
  const std::vector<std::string> queries = {
      "SELECT id FROM t ORDER BY vec <#> '1,2,3,4' LIMIT 10",
      "SELECT id FROM t ORDER BY vec <-> '1,2,3,4' "
      "OPTIONS (nprobe=8) LIMIT 10",
      "SELECT id FROM t WHERE price < 3 ORDER BY vec <-> '1,2,3,4' "
      "OPTIONS (nprobe=8) LIMIT 10",
  };
  std::vector<QueryResult> expected;
  for (const auto& q : queries) expected.push_back(Must(*setup, q));

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = VecClient::Connect("127.0.0.1", h.server->port());
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        auto got = (*client)->Execute(queries[q]);
        if (!got.ok() || got->columns != expected[q].columns ||
            got->rows.size() != expected[q].rows.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < got->rows.size(); ++i) {
          // Doubles cross the wire as raw bits: exact equality holds.
          if (got->rows[i].id != expected[q].rows[i].id ||
              got->rows[i].distance != expected[q].rows[i].distance) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Fixture for the cancellation tests: a table big enough — via the
/// per-row seq-scan delay seam — that a full scan takes ~800ms, so a
/// cancel or a 100ms timeout provably lands mid-statement.
class ServerCancelTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 4000;
  static constexpr uint64_t kDelayNanos = 200 * 1000;  // 0.2ms per row
  static constexpr const char* kLongSelect =
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 5";

  void SetUp() override {
    DatabaseOptions options = SmallPool();
    options.scan_delay_nanos_for_test = kDelayNanos;
    harness_ = StartHarness(TestDir("db"), options);
    auto setup = harness_.db->CreateSession();
    Must(*setup, "CREATE TABLE t (id int, vec float[4], price int)");
    for (int64_t first = 0; first < kRows; first += 100) {
      Must(*setup, InsertBatch(first, 100));
    }
  }

  Harness harness_;
};

TEST_F(ServerCancelTest, CancelStatementAbortsLongScanOverTheWire) {
  auto client = MustConnect(harness_.server->port());
  ASSERT_NE(client, nullptr);
  std::atomic<bool> done{false};
  Status long_status;
  std::thread victim([&] {
    long_status = client->Execute(kLongSelect).status();
    done.store(true);
  });
  // Fire CANCEL <id> from an in-process session until the statement
  // aborts; cancels that land before the statement starts are dropped
  // (PostgreSQL semantics), hence the retry loop.
  auto admin = harness_.db->CreateSession();
  const std::string cancel_sql =
      "CANCEL " + std::to_string(client->session_id());
  while (!done.load()) {
    ASSERT_TRUE(admin->Execute(cancel_sql).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  victim.join();
  ASSERT_TRUE(long_status.IsCancelled()) << long_status.ToString();
  EXPECT_NE(long_status.message().find("statement cancelled"),
            std::string::npos)
      << long_status.ToString();
  // The connection survived: the next statement runs normally.
  EXPECT_EQ(Must(*client, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                          "LIMIT 1")
                .rows.size(),
            1u);
}

TEST_F(ServerCancelTest, OutOfBandCancelFrameAbortsLongScan) {
  auto client = MustConnect(harness_.server->port());
  ASSERT_NE(client, nullptr);
  std::atomic<bool> done{false};
  Status long_status;
  std::thread victim([&] {
    long_status = client->Execute(kLongSelect).status();
    done.store(true);
  });
  // The cancel frame travels on the same socket while Execute blocks in
  // another thread — this is exactly the out-of-band path the scheduler's
  // always-POLLIN registration exists for.
  while (!done.load()) {
    ASSERT_TRUE(client->Cancel().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  victim.join();
  ASSERT_TRUE(long_status.IsCancelled()) << long_status.ToString();
  EXPECT_EQ(Must(*client, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                          "LIMIT 1")
                .rows.size(),
            1u);
}

TEST_F(ServerCancelTest, StatementTimeoutFiresEarlyAndConnectionSurvives) {
  auto client = MustConnect(harness_.server->port());
  ASSERT_NE(client, nullptr);
  Timer timer;
  auto result = client->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
      "OPTIONS (statement_timeout_ms = 100) LIMIT 5");
  const double elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("statement timeout"),
            std::string::npos)
      << result.status().ToString();
  // The full scan takes >= kRows * kDelayNanos = 800ms of wall time; the
  // timeout must abort far earlier (100ms deadline + one checkpoint
  // interval + scheduling slack).
  EXPECT_LT(elapsed_ms, 600.0);
  // SET makes the timeout a session default; clearing it via a larger
  // OPTIONS value proves the precedence chain end to end.
  ASSERT_TRUE(Must(*client, "SET statement_timeout_ms = 100").message ==
              "SET");
  auto via_set = client->Execute(kLongSelect);
  ASSERT_TRUE(via_set.status().IsCancelled());
  auto override_set = client->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
      "OPTIONS (statement_timeout_ms = 60000) LIMIT 1");
  EXPECT_TRUE(override_set.ok()) << override_set.status().ToString();
}

TEST(ServerTest, ConnectionsBeyondCapacityAreRefused) {
  ServerOptions server_options;
  server_options.max_connections = 2;
  auto h = StartHarness(TestDir("db"), SmallPool(), server_options);
  auto a = MustConnect(h.server->port());
  auto b = MustConnect(h.server->port());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto c = VecClient::Connect("127.0.0.1", h.server->port());
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted()) << c.status().ToString();
  EXPECT_NE(c.status().message().find("too many connections"),
            std::string::npos);
  // Freeing a slot re-admits: close one and retry until the scheduler
  // reaps the old connection.
  a->Close();
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto retry = VecClient::Connect("127.0.0.1", h.server->port());
    if (retry.ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot was never freed after closing a connection";
}

TEST(ServerTest, GarbageBytesGetOneErrorFrameThenCloseOthersUnaffected) {
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto healthy = MustConnect(h.server->port());
  ASSERT_NE(healthy, nullptr);
  Must(*healthy, "CREATE TABLE t (id int, vec float[4], price int)");

  auto raw = Socket::ConnectTcp("127.0.0.1", h.server->port());
  ASSERT_TRUE(raw.ok());
  std::vector<uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(raw->SendAll(garbage.data(), garbage.size()).ok());
  // The server answers with exactly one Error frame, then closes.
  FrameDecoder decoder;
  std::optional<Frame> reply;
  for (;;) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      reply = std::move(**next);
      break;
    }
    uint8_t buf[512];
    auto n = raw->RecvSome(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u) << "connection closed before the error frame";
    decoder.Feed(buf, *n);
  }
  ASSERT_EQ(reply->type, FrameType::kError);
  auto err = DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kCorruption);
  // ...then EOF.
  for (;;) {
    uint8_t buf[512];
    auto n = raw->RecvSome(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
  }
  // The healthy connection never noticed.
  Must(*healthy, InsertBatch(1, 5));
  EXPECT_EQ(Must(*healthy, "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                           "LIMIT 5")
                .rows.size(),
            5u);
}

TEST(ServerTest, PipelinedStatementsKeepOrder) {
  // Statements queue FIFO per connection: a burst submitted before the
  // first finishes must come back in submission order. Exercised through
  // the pending-queue path via many small sequential statements.
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto client = MustConnect(h.server->port());
  ASSERT_NE(client, nullptr);
  Must(*client, "CREATE TABLE t (id int, vec float[4], price int)");
  for (int i = 0; i < 50; ++i) {
    Must(*client, InsertBatch(i * 2, 2));
    auto r = Must(*client, "SELECT id FROM t ORDER BY vec <#> '0,0,0,0' "
                           "LIMIT 1000");
    EXPECT_EQ(r.rows.size(), static_cast<size_t>((i + 1) * 2));
  }
}

// --- TSan stress: connection churn + concurrent statements + shutdown ---

TEST(ServerStressTest, ChurnMixedLoadAndCancel) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  auto h = StartHarness(TestDir("db"), SmallPool());
  auto setup = h.db->CreateSession();
  Must(*setup, "CREATE TABLE t (id int, vec float[4], price int)");
  std::atomic<int64_t> next_id{0};
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kThreads; ++c) {
      threads.emplace_back([&, c] {
        auto client = VecClient::Connect("127.0.0.1", h.server->port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < 6; ++i) {
          const int64_t base = next_id.fetch_add(4);
          if (!(*client)->Execute(InsertBatch(base, 4)).ok()) ++failures;
          auto r = (*client)->Execute(
              "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' LIMIT 8");
          if (!r.ok()) ++failures;
          // A cancel with no statement in flight must be harmless.
          if (c % 2 == 0 && !(*client)->Cancel().ok()) ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // The scheduler reaps closed connections asynchronously; give it a
  // bounded window to notice every Goodbye/EOF.
  for (int i = 0; i < 500 && h.server->connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(h.server->connections(), 0u);
}

TEST(ServerStressTest, StopWithClientsMidFlight) {
  DatabaseOptions options = SmallPool();
  options.scan_delay_nanos_for_test = 100 * 1000;  // 0.1ms per row
  auto h = StartHarness(TestDir("db"), options);
  auto setup = h.db->CreateSession();
  Must(*setup, "CREATE TABLE t (id int, vec float[4], price int)");
  for (int64_t first = 0; first < 1000; first += 100) {
    Must(*setup, InsertBatch(first, 100));
  }
  // Clients hammer long scans; Stop() lands mid-statement. Every Execute
  // must return (cancelled, connection-closed, or completed) — never hang.
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      auto client = VecClient::Connect("127.0.0.1", h.server->port());
      if (!client.ok()) return;
      for (int i = 0; i < 100; ++i) {
        if (!(*client)
                 ->Execute("SELECT id FROM t ORDER BY vec <#> "
                           "'1,1,1,1' LIMIT 5")
                 .ok()) {
          break;  // server went away mid-run: expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  h.server->Stop();
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace vecdb::net
