// Cooperative-cancellation tests below the wire: QueryContext checkpoint
// semantics, the engine checkpoint loops (every index class on every scan
// path: serial and parallel Search, SearchBatch, each filter strategy),
// and the SQL layer's SET / CANCEL / statement_timeout_ms plumbing on an
// in-process Session.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/factory.h"
#include "core/query_context.h"
#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "filter/selection.h"
#include "faisslike/ivf_flat.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "sql/database.h"
#include "sql/session.h"
#include "temp_path.h"

namespace vecdb {
namespace {

TEST(QueryContextTest, CheckStopDistinguishesCancelFromTimeout) {
  QueryContext idle;
  EXPECT_FALSE(idle.StopRequested());
  EXPECT_TRUE(idle.CheckStop("x").ok());

  std::atomic<bool> flag{true};
  QueryContext cancelled;
  cancelled.cancel = &flag;
  EXPECT_TRUE(cancelled.StopRequested());
  const Status c = cancelled.CheckStop("seqscan");
  ASSERT_TRUE(c.IsCancelled());
  EXPECT_EQ(c.message(), "seqscan: statement cancelled");

  QueryContext expired;
  expired.deadline_nanos = 1;  // the steady clock passed 1ns long ago
  EXPECT_TRUE(expired.StopRequested());
  const Status t = expired.CheckStop("seqscan");
  ASSERT_TRUE(t.IsCancelled());
  EXPECT_EQ(t.message(), "seqscan: statement timeout");

  // An unset flag with no deadline never stops the statement.
  flag.store(false);
  EXPECT_FALSE(cancelled.StopRequested());
  EXPECT_TRUE(cancelled.CheckStop("seqscan").ok());
}

// --- Engine checkpoints: a pre-stopped context must abort every engine's
// search loop with Cancelled, not return partial results as success.

Dataset EngineData() {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = 1200;
  opt.num_queries = 2;
  opt.num_natural_clusters = 8;
  opt.seed = 7;
  return GenerateClustered(opt);
}

SearchParams CancelledParams() {
  static std::atomic<bool> flag{true};
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  params.efs = 64;
  params.ctx.cancel = &flag;
  return params;
}

TEST(EngineCancelTest, FaisslikeIvfFlatAbortsSerialAndParallel) {
  auto ds = EngineData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 8;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params = CancelledParams();
  auto serial = index.Search(ds.query_vector(0), params);
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsCancelled()) << serial.status().ToString();
  params.num_threads = 4;
  auto parallel = index.Search(ds.query_vector(0), params);
  ASSERT_FALSE(parallel.ok());
  EXPECT_TRUE(parallel.status().IsCancelled());
}

TEST(EngineCancelTest, FaisslikeIvfFlatTimeoutMessage) {
  auto ds = EngineData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 8;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  params.ctx.deadline_nanos = 1;  // already expired
  auto result = index.Search(ds.query_vector(0), params);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCancelled());
  EXPECT_NE(result.status().message().find("statement timeout"),
            std::string::npos)
      << result.status().ToString();
}

TEST(EngineCancelTest, FaisslikeHnswAborts) {
  auto ds = EngineData();
  faisslike::HnswOptions opt;
  faisslike::HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  auto result = index.Search(ds.query_vector(0), CancelledParams());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

class PaseCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/cancel_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir_, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 8192);
    ds_ = EngineData();
  }

  pase::PaseEnv Env() { return {smgr_.get(), bufmgr_.get()}; }

  std::string dir_;
  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
  Dataset ds_;
};

TEST_F(PaseCancelTest, IvfFlatAbortsSerialAndParallel) {
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 8;
  pase::PaseIvfFlatIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  SearchParams params = CancelledParams();
  auto serial = index.Search(ds_.query_vector(0), params);
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsCancelled()) << serial.status().ToString();
  params.num_threads = 4;
  auto parallel = index.Search(ds_.query_vector(0), params);
  ASSERT_FALSE(parallel.ok());
  EXPECT_TRUE(parallel.status().IsCancelled());
}

TEST_F(PaseCancelTest, HnswAborts) {
  pase::PaseHnswOptions opt;
  pase::PaseHnswIndex index(Env(), ds_.dim, opt);
  ASSERT_TRUE(index.Build(ds_.base.data(), ds_.num_base).ok());
  auto result = index.Search(ds_.query_vector(0), CancelledParams());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(PaseCancelTest, EveryIndexAbortsOnEveryScanPath) {
  struct Combo {
    const char* method;
    const char* engine;
  };
  constexpr Combo kAllCombos[] = {
      {"flat", "faiss"},     {"ivfflat", "faiss"}, {"ivfpq", "faiss"},
      {"ivfsq8", "faiss"},   {"hnsw", "faiss"},    {"ivfflat", "pase"},
      {"ivfpq", "pase"},     {"ivfsq8", "pase"},   {"hnsw", "pase"},
      {"ivfflat", "bridge"}, {"hnsw", "bridge"},
  };
  filter::SelectionVector selection(ds_.num_base);
  for (size_t i = 0; i < ds_.num_base; i += 3) selection.Set(i);
  int counter = 0;
  for (const auto& combo : kAllCombos) {
    const std::string name = std::string(combo.method) + "/" + combo.engine;
    SCOPED_TRACE(name);
    IndexSpec spec;
    spec.method = combo.method;
    spec.engine = combo.engine;
    spec.dim = ds_.dim;
    spec.options = {{"clusters", 8}, {"m", 4},   {"pq_codes", 16},
                    {"bnn", 8},      {"efb", 32}};
    spec.rel_prefix = "every" + std::to_string(counter++);
    auto index = CreateIndex(spec, Env()).ValueOrDie();
    ASSERT_TRUE(index->Build(ds_.base.data(), ds_.num_base).ok());

    // Partial results returned as success are the failure mode: every
    // path must answer Cancelled.
    SearchParams params = CancelledParams();
    auto serial = index->Search(ds_.query_vector(0), params);
    EXPECT_TRUE(serial.status().IsCancelled())
        << "serial Search: " << serial.status().ToString();
    params.num_threads = 4;
    auto parallel = index->Search(ds_.query_vector(0), params);
    EXPECT_TRUE(parallel.status().IsCancelled())
        << "parallel Search: " << parallel.status().ToString();
    params.num_threads = 1;
    auto batch = index->SearchBatch(ds_.queries.data(), 2, params);
    EXPECT_TRUE(batch.status().IsCancelled())
        << "SearchBatch: " << batch.status().ToString();
    for (const auto strategy : {filter::FilterStrategy::kPreFilter,
                                filter::FilterStrategy::kInFilter,
                                filter::FilterStrategy::kPostFilter}) {
      FilterRequest request;
      request.selection = &selection;
      request.strategy = strategy;
      auto filtered =
          index->FilteredSearch(ds_.query_vector(0), request, params);
      // An unimplemented strategy may refuse; it must not answer.
      if (filtered.status().IsNotSupported()) continue;
      EXPECT_TRUE(filtered.status().IsCancelled())
          << filter::StrategyName(strategy) << ": "
          << filtered.status().ToString();
    }
  }
}

// --- SQL layer: SET / CANCEL semantics and timeout validation on an
// in-process Session (the wire path is covered by net_server_test).

class SqlCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir =
        ::testing::TempDir() + "/cancel_sql_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    sql::DatabaseOptions options;
    options.pool_pages = 256;
    options.scan_delay_nanos_for_test = 100 * 1000;  // 0.1ms per row
    db_ = sql::MiniDatabase::Open(dir, options).ValueOrDie();
    session_ = db_->CreateSession();
    ASSERT_TRUE(session_
                    ->Execute("CREATE TABLE t (id int, vec float[4])")
                    .ok());
    for (int64_t first = 0; first < 2000; first += 100) {
      std::string sql = "INSERT INTO t VALUES ";
      for (int i = 0; i < 100; ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(first + i) + ", '1,2,3," +
               std::to_string(first + i) + "')";
      }
      ASSERT_TRUE(session_->Execute(sql).ok());
    }
  }

  std::unique_ptr<sql::MiniDatabase> db_;
  std::shared_ptr<sql::Session> session_;
};

TEST_F(SqlCancelTest, SeqScanTimesOutViaOptions) {
  // Full scan: 2000 rows * 0.1ms = 200ms; the 50ms deadline aborts it.
  auto result = session_->Execute(
      "SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
      "OPTIONS (statement_timeout_ms = 50) LIMIT 5");
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("statement timeout"),
            std::string::npos);
}

TEST_F(SqlCancelTest, RequestCancelAbortsInFlightStatement) {
  std::atomic<bool> done{false};
  Status long_status;
  std::thread victim([&] {
    long_status = session_
                      ->Execute("SELECT id FROM t ORDER BY vec <#> "
                                "'1,1,1,1' LIMIT 5")
                      .status();
    done.store(true);
  });
  while (!done.load()) {
    session_->RequestCancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  victim.join();
  ASSERT_TRUE(long_status.IsCancelled()) << long_status.ToString();
  EXPECT_NE(long_status.message().find("statement cancelled"),
            std::string::npos);
  // The flag clears when the next statement starts: a cancel that landed
  // after the abort does not poison the session.
  EXPECT_TRUE(session_
                  ->Execute("SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                            "OPTIONS (statement_timeout_ms = 60000) LIMIT 1")
                  .ok());
}

TEST_F(SqlCancelTest, CancelSqlValidation) {
  // CANCEL of a live session succeeds (fire-and-forget); unknown ids are
  // NotFound; the executor message is stable.
  auto other = db_->CreateSession();
  auto ok = session_->Execute("CANCEL " + std::to_string(other->id()));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->message, "CANCEL");
  auto missing = session_->Execute("CANCEL 999999");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
}

TEST_F(SqlCancelTest, SetValidatesTimeoutRange) {
  EXPECT_TRUE(session_->Execute("SET statement_timeout_ms = 500").ok());
  EXPECT_TRUE(session_->Execute("SET statement_timeout_ms = 0").ok());
  // Negative and absurd timeouts are rejected up front, as is the same
  // value arriving through per-statement OPTIONS.
  EXPECT_TRUE(session_->Execute("SET statement_timeout_ms = -5")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_->Execute("SET statement_timeout_ms = 99999999999")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_
                  ->Execute("SELECT id FROM t ORDER BY vec <#> '1,1,1,1' "
                            "OPTIONS (statement_timeout_ms = -1) LIMIT 1")
                  .status()
                  .IsInvalidArgument());
}

TEST(SqlCancelOpenTest, DatabaseTimeoutOptionValidatedAtOpen) {
  const std::string dir = TempPath("cancel_open_validate");
  std::filesystem::remove_all(dir);
  sql::DatabaseOptions options;
  options.statement_timeout_ms = 25u * 60 * 60 * 1000;  // > 24h cap
  auto db = sql::MiniDatabase::Open(dir, options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
}

}  // namespace
}  // namespace vecdb
