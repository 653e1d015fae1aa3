// Filtered-search subsystem tests. The load-bearing check: every strategy
// (pre-filter, in-filter, post-filter, and the planner's auto choice) must
// return results identical to a brute-force filtered oracle, at every
// selectivity in {0.001, 0.01, 0.1, 0.5, 1.0}, on both engines and all
// three index families. The indexes run exhaustively (nprobe = clusters,
// efs = n) so approximation cannot hide a strategy bug; for IVF_PQ the
// oracle ranks by the engine's own ADC distances.
#include <gtest/gtest.h>

#include <filesystem>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "filter/predicate.h"
#include "filter/selection.h"
#include "filter/strategy.h"
#include "pase/hnsw.h"
#include "pase/ivf_flat.h"
#include "pase/ivf_pq.h"
#include "sql/database.h"
#include "sql/session.h"

namespace vecdb {
namespace {

using filter::CmpOp;
using filter::FilterStrategy;
using filter::Predicate;
using filter::SelectionVector;

// ---------------------------------------------------------------------------
// SelectionVector

TEST(SelectionVectorTest, SetTestClearCount) {
  SelectionVector sel(130);  // spans three words
  EXPECT_EQ(sel.size(), 130u);
  EXPECT_EQ(sel.CountSet(), 0u);
  sel.Set(0);
  sel.Set(63);
  sel.Set(64);
  sel.Set(129);
  EXPECT_TRUE(sel.Test(0));
  EXPECT_TRUE(sel.Test(63));
  EXPECT_TRUE(sel.Test(64));
  EXPECT_TRUE(sel.Test(129));
  EXPECT_FALSE(sel.Test(1));
  EXPECT_EQ(sel.CountSet(), 4u);
  sel.Clear(63);
  EXPECT_FALSE(sel.Test(63));
  EXPECT_EQ(sel.CountSet(), 3u);
}

TEST(SelectionVectorTest, OutOfRangeIsNotSelected) {
  SelectionVector sel(10);
  sel.Set(10);   // ignored: outside the universe
  sel.Set(100);  // ignored
  EXPECT_FALSE(sel.Test(10));
  EXPECT_FALSE(sel.Test(100));
  EXPECT_EQ(sel.CountSet(), 0u);
  SelectionVector empty;
  EXPECT_FALSE(empty.Test(0));
  EXPECT_DOUBLE_EQ(empty.Selectivity(), 0.0);
}

TEST(SelectionVectorTest, SelectivityAndForEachSet) {
  SelectionVector sel(100);
  std::vector<size_t> want;
  for (size_t i = 0; i < 100; i += 7) {
    sel.Set(i);
    want.push_back(i);
  }
  EXPECT_DOUBLE_EQ(sel.Selectivity(),
                   static_cast<double>(want.size()) / 100.0);
  std::vector<size_t> got;
  sel.ForEachSet([&](size_t pos) { got.push_back(pos); });
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Predicate / Bind / Eval

TEST(PredicateTest, CompareOps) {
  const std::vector<std::string> cols = {"id", "price"};
  struct Case {
    CmpOp op;
    int64_t value;
    int64_t row_price;
    bool want;
  };
  const Case cases[] = {
      {CmpOp::kEq, 5, 5, true},  {CmpOp::kEq, 5, 6, false},
      {CmpOp::kNe, 5, 6, true},  {CmpOp::kNe, 5, 5, false},
      {CmpOp::kLt, 5, 4, true},  {CmpOp::kLt, 5, 5, false},
      {CmpOp::kLe, 5, 5, true},  {CmpOp::kLe, 5, 6, false},
      {CmpOp::kGt, 5, 6, true},  {CmpOp::kGt, 5, 5, false},
      {CmpOp::kGe, 5, 5, true},  {CmpOp::kGe, 5, 4, false},
  };
  for (const auto& c : cases) {
    auto pred = Predicate::Compare("price", c.op, c.value);
    auto bound = filter::Bind(*pred, cols).ValueOrDie();
    const int64_t row[2] = {1, c.row_price};
    EXPECT_EQ(bound.Eval(row), c.want)
        << filter::CmpOpName(c.op) << " " << c.value << " vs "
        << c.row_price;
  }
}

TEST(PredicateTest, InAndOrTree) {
  const std::vector<std::string> cols = {"id", "price", "tag"};
  // (price < 50 AND tag IN (1, 3)) OR id = 7
  auto pred = Predicate::Or(
      Predicate::And(Predicate::Compare("price", CmpOp::kLt, 50),
                     Predicate::In("tag", {1, 3})),
      Predicate::Compare("id", CmpOp::kEq, 7));
  auto bound = filter::Bind(*pred, cols).ValueOrDie();
  const int64_t match_and[3] = {1, 40, 3};
  const int64_t match_or[3] = {7, 99, 0};
  const int64_t miss_tag[3] = {1, 40, 2};
  const int64_t miss_price[3] = {1, 60, 1};
  EXPECT_TRUE(bound.Eval(match_and));
  EXPECT_TRUE(bound.Eval(match_or));
  EXPECT_FALSE(bound.Eval(miss_tag));
  EXPECT_FALSE(bound.Eval(miss_price));
}

TEST(PredicateTest, BindRejectsUnknownColumn) {
  auto pred = Predicate::Compare("nope", CmpOp::kEq, 1);
  EXPECT_FALSE(filter::Bind(*pred, {"id", "price"}).ok());
}

TEST(PredicateTest, ToStringRendersTree) {
  auto pred = Predicate::And(Predicate::Compare("price", CmpOp::kLt, 50),
                             Predicate::In("tag", {1, 3}));
  EXPECT_EQ(filter::ToString(*pred), "(price < 50 AND tag IN (1, 3))");
}

TEST(PredicateTest, CloneIsDeep) {
  auto pred = Predicate::Or(Predicate::Compare("a", CmpOp::kGe, 2),
                            Predicate::Compare("b", CmpOp::kLt, 9));
  auto copy = pred->Clone();
  pred.reset();
  EXPECT_EQ(filter::ToString(*copy), "(a >= 2 OR b < 9)");
}

// ---------------------------------------------------------------------------
// Columnar evaluator: EvalColumns must equal per-row Eval bit for bit.

constexpr int64_t kMinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

/// Column values and thresholds share one pool, so equality hits and every
/// comparison runs on the int64 boundaries and their neighbours.
int64_t PoolValue(std::mt19937_64& rng) {
  static const int64_t kPool[] = {kMinI64, kMinI64 + 1, -7, -1, 0,
                                  1,       7,           42, kMaxI64 - 1,
                                  kMaxI64};
  std::uniform_int_distribution<size_t> pick(0, std::size(kPool) - 1);
  return kPool[pick(rng)];
}

/// Random tree over columns c0..c{num_cols-1}: leaves draw one of the six
/// CmpOps or an IN list, interior nodes AND/OR, down to `depth` levels.
std::unique_ptr<Predicate> RandomPredicate(std::mt19937_64& rng, int depth,
                                           size_t num_cols) {
  std::uniform_int_distribution<int> shape(0, 9);
  const int roll = shape(rng);
  if (depth > 0 && roll < 4) {
    auto lhs = RandomPredicate(rng, depth - 1, num_cols);
    auto rhs = RandomPredicate(rng, depth - 1, num_cols);
    return roll < 2 ? Predicate::And(std::move(lhs), std::move(rhs))
                    : Predicate::Or(std::move(lhs), std::move(rhs));
  }
  const std::string column =
      "c" + std::to_string(std::uniform_int_distribution<size_t>(
                               0, num_cols - 1)(rng));
  if (roll == 9) {
    std::vector<int64_t> values(1 + rng() % 4);
    for (auto& v : values) v = PoolValue(rng);
    return Predicate::In(column, std::move(values));
  }
  const auto op = static_cast<CmpOp>(rng() % 6);
  return Predicate::Compare(column, op, PoolValue(rng));
}

TEST(ColumnarEvalTest, MatchesRowEvalOnRandomTrees) {
  constexpr size_t kCols = 3;
  const std::vector<std::string> names = {"c0", "c1", "c2"};
  std::mt19937_64 rng(20241017);
  for (size_t num_rows : std::vector<size_t>{0, 1, 63, 64, 65, 1000}) {
    std::vector<std::vector<int64_t>> columns(kCols,
                                              std::vector<int64_t>(num_rows));
    for (auto& column : columns) {
      for (auto& v : column) v = PoolValue(rng);
    }
    for (int trial = 0; trial < 200; ++trial) {
      auto pred = RandomPredicate(rng, 3, kCols);
      auto bound = filter::Bind(*pred, names).ValueOrDie();
      const SelectionVector sel = bound.EvalColumns(columns, num_rows);
      ASSERT_EQ(sel.size(), num_rows);
      size_t want_count = 0;
      for (size_t pos = 0; pos < num_rows; ++pos) {
        const int64_t row[kCols] = {columns[0][pos], columns[1][pos],
                                    columns[2][pos]};
        const bool want = bound.Eval(row);
        want_count += want ? 1 : 0;
        ASSERT_EQ(sel.Test(pos), want)
            << filter::ToString(*pred) << " rows=" << num_rows
            << " pos=" << pos;
      }
      // No stray bits past the last row: the popcount sees only rows.
      ASSERT_EQ(sel.CountSet(), want_count) << filter::ToString(*pred);
    }
  }
}

TEST(ColumnarEvalTest, BoundaryThresholdsOnEveryOp) {
  const std::vector<std::string> names = {"c0"};
  const std::vector<std::vector<int64_t>> columns = {
      {kMinI64, kMinI64 + 1, -1, 0, 1, kMaxI64 - 1, kMaxI64}};
  const size_t n = columns[0].size();
  for (int64_t threshold : {kMinI64, kMinI64 + 1, int64_t{0}, kMaxI64 - 1,
                            kMaxI64}) {
    for (int op = 0; op < 6; ++op) {
      auto pred =
          Predicate::Compare("c0", static_cast<CmpOp>(op), threshold);
      auto bound = filter::Bind(*pred, names).ValueOrDie();
      const SelectionVector sel = bound.EvalColumns(columns, n);
      for (size_t pos = 0; pos < n; ++pos) {
        EXPECT_EQ(sel.Test(pos), bound.Eval(&columns[0][pos]))
            << filter::ToString(*pred) << " at " << columns[0][pos];
      }
    }
  }
  auto in = Predicate::In("c0", {kMaxI64, kMinI64});
  auto bound = filter::Bind(*in, names).ValueOrDie();
  const SelectionVector sel = bound.EvalColumns(columns, n);
  EXPECT_EQ(sel.CountSet(), 2u);
  EXPECT_TRUE(sel.Test(0));
  EXPECT_TRUE(sel.Test(n - 1));
}

TEST(ColumnarEvalTest, EvaluatesOnlyTheRequestedPrefix) {
  // Columns may run longer than num_rows; rows past it never appear.
  const std::vector<std::vector<int64_t>> columns = {
      std::vector<int64_t>(130, 5)};
  auto bound =
      filter::Bind(*Predicate::Compare("c0", CmpOp::kEq, 5), {"c0"})
          .ValueOrDie();
  const SelectionVector sel = bound.EvalColumns(columns, 65);
  EXPECT_EQ(sel.size(), 65u);
  EXPECT_EQ(sel.CountSet(), 65u);
  EXPECT_FALSE(sel.Test(65));
}

// ---------------------------------------------------------------------------
// Planner

TEST(PlannerTest, ChoosesByCrossoverThresholds) {
  const size_t n = 100000;
  EXPECT_EQ(filter::ChooseStrategy(0.01, 10, n), FilterStrategy::kPreFilter);
  EXPECT_EQ(filter::ChooseStrategy(filter::kPrefilterThreshold, 10, n),
            FilterStrategy::kPreFilter);
  EXPECT_EQ(filter::ChooseStrategy(0.2, 10, n), FilterStrategy::kInFilter);
  EXPECT_EQ(filter::ChooseStrategy(filter::kInfilterThreshold, 10, n),
            FilterStrategy::kInFilter);
  EXPECT_EQ(filter::ChooseStrategy(0.9, 10, n), FilterStrategy::kPostFilter);
  EXPECT_EQ(filter::ChooseStrategy(1.0, 10, n), FilterStrategy::kPostFilter);
}

TEST(PlannerTest, TinyMatchCountRoutesToPreFilter) {
  // est_matches <= k: brute-forcing the survivors is never worse than the
  // result set itself, regardless of selectivity thresholds.
  EXPECT_EQ(filter::ChooseStrategy(0.9, 10, 10),
            FilterStrategy::kPreFilter);
}

TEST(PlannerTest, ParseStrategyRoundTrips) {
  for (FilterStrategy s :
       {FilterStrategy::kAuto, FilterStrategy::kPreFilter,
        FilterStrategy::kPostFilter, FilterStrategy::kInFilter}) {
    EXPECT_EQ(filter::ParseStrategy(filter::StrategyName(s)).ValueOrDie(),
              s);
  }
  EXPECT_FALSE(filter::ParseStrategy("bogus").ok());
}

// ---------------------------------------------------------------------------
// Strategy-vs-oracle identity on every engine/index/selectivity

constexpr size_t kN = 2000;
constexpr size_t kK = 10;
constexpr double kSelectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};

Dataset FilterData() {
  SyntheticOptions opt;
  opt.dim = 16;
  opt.num_base = kN;
  opt.num_queries = 2;
  return GenerateClustered(opt);
}

/// Selects positions [0, round(sel * n)): attribute value = position, the
/// predicate is `value < round(sel * n)`.
SelectionVector MakePrefixSelection(size_t n, double sel) {
  SelectionVector out(n);
  const size_t matches = static_cast<size_t>(std::lround(sel * n));
  for (size_t i = 0; i < matches; ++i) out.Set(i);
  return out;
}

/// The oracle: the engine's own exhaustive ranking (k = n), filtered down
/// to the selection in test code, truncated to k. Using the engine's
/// Search keeps the oracle in the same distance domain (exact L2 for
/// flat/HNSW, ADC for PQ), so identity checks are bit-exact.
std::vector<Neighbor> Oracle(const VectorIndex& index, const float* query,
                             const SelectionVector& selection,
                             const SearchParams& params) {
  SearchParams all = params;
  all.k = index.NumVectors();
  auto ranked = index.Search(query, all).ValueOrDie();
  std::vector<Neighbor> kept;
  for (const auto& nb : ranked) {
    if (selection.Test(static_cast<size_t>(nb.id))) kept.push_back(nb);
    if (kept.size() == params.k) break;
  }
  return kept;
}

/// Ties in distance (possible under PQ's quantized ADC) may legally order
/// differently across strategies; canonicalize by (distance, id) before
/// the exact comparison.
void SortCanonical(std::vector<Neighbor>* v) {
  std::sort(v->begin(), v->end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  });
}

void ExpectIdentical(std::vector<Neighbor> got, std::vector<Neighbor> want,
                     const std::string& label) {
  SortCanonical(&got);
  SortCanonical(&want);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " at rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist)
        << label << " at rank " << i;
  }
}

/// Runs all three forced strategies plus the planner's auto choice against
/// the oracle at every selectivity.
void CheckAllStrategies(const VectorIndex& index, const Dataset& ds,
                        const SearchParams& params) {
  for (double sel : kSelectivities) {
    const SelectionVector selection = MakePrefixSelection(kN, sel);
    const size_t matches = selection.CountSet();
    for (size_t q = 0; q < ds.num_queries; ++q) {
      const float* query = ds.query_vector(q);
      const auto want = Oracle(index, query, selection, params);
      ASSERT_EQ(want.size(), std::min(kK, matches));
      for (FilterStrategy strategy :
           {FilterStrategy::kPreFilter, FilterStrategy::kInFilter,
            FilterStrategy::kPostFilter, FilterStrategy::kAuto}) {
        FilterRequest req;
        req.selection = &selection;
        req.strategy = strategy;
        auto got = index.FilteredSearch(query, req, params).ValueOrDie();
        const std::string label = index.Describe() + " sel=" +
                                  std::to_string(sel) + " strategy=" +
                                  filter::StrategyName(strategy);
        // The post-filter contract: exactly min(k, matching) results (the
        // doubling retry must run the shortfall down to the true count).
        ASSERT_EQ(got.size(), std::min(kK, matches)) << label;
        ExpectIdentical(std::move(got), want, label);
      }
    }
  }
}

TEST(FilterOracleTest, FaissIvfFlat) {
  auto ds = FilterData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.nprobe = 16;
  CheckAllStrategies(index, ds, params);
}

TEST(FilterOracleTest, FaissIvfPq) {
  auto ds = FilterData();
  faisslike::IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 4;
  opt.pq_codes = 16;
  opt.sample_ratio = 1.0;
  faisslike::IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.nprobe = 16;
  CheckAllStrategies(index, ds, params);
}

TEST(FilterOracleTest, FaissHnsw) {
  auto ds = FilterData();
  faisslike::HnswOptions opt;
  opt.bnn = 16;
  opt.efb = 40;
  faisslike::HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.efs = static_cast<uint32_t>(kN);  // exhaustive beam
  CheckAllStrategies(index, ds, params);
}

class PaseFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir =
        ::testing::TempDir() + "/filter_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    smgr_ = std::make_unique<pgstub::StorageManager>(
        pgstub::StorageManager::Open(dir, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<pgstub::BufferManager>(smgr_.get(), 4096);
  }
  pase::PaseEnv Env() { return {smgr_.get(), bufmgr_.get()}; }

  std::unique_ptr<pgstub::StorageManager> smgr_;
  std::unique_ptr<pgstub::BufferManager> bufmgr_;
};

TEST_F(PaseFilterTest, PaseIvfFlat) {
  auto ds = FilterData();
  pase::PaseIvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 1.0;
  pase::PaseIvfFlatIndex index(Env(), ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.nprobe = 16;
  CheckAllStrategies(index, ds, params);
}

TEST_F(PaseFilterTest, PaseIvfPq) {
  auto ds = FilterData();
  pase::PaseIvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 4;
  opt.pq_codes = 16;
  opt.sample_ratio = 1.0;
  pase::PaseIvfPqIndex index(Env(), ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.nprobe = 16;
  CheckAllStrategies(index, ds, params);
}

TEST_F(PaseFilterTest, PaseHnsw) {
  auto ds = FilterData();
  pase::PaseHnswOptions opt;
  opt.bnn = 16;
  opt.efb = 40;
  pase::PaseHnswIndex index(Env(), ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = kK;
  params.efs = static_cast<uint32_t>(kN);
  CheckAllStrategies(index, ds, params);
}

// ---------------------------------------------------------------------------
// FilteredSearch contract details

TEST(FilteredSearchTest, RejectsMissingSelectionAndNullQuery) {
  auto ds = FilterData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 4;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 5;
  params.nprobe = 4;
  FilterRequest req;  // no selection
  EXPECT_FALSE(index.FilteredSearch(ds.query_vector(0), req, params).ok());
  SelectionVector sel(kN);
  sel.Set(1);
  req.selection = &sel;
  EXPECT_FALSE(index.FilteredSearch(nullptr, req, params).ok());
}

TEST(FilteredSearchTest, EmptySelectionReturnsNoRows) {
  auto ds = FilterData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 4;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 5;
  params.nprobe = 4;
  const SelectionVector sel(kN);  // nothing selected
  for (FilterStrategy strategy :
       {FilterStrategy::kPreFilter, FilterStrategy::kInFilter,
        FilterStrategy::kPostFilter, FilterStrategy::kAuto}) {
    FilterRequest req;
    req.selection = &sel;
    req.strategy = strategy;
    auto got =
        index.FilteredSearch(ds.query_vector(0), req, params).ValueOrDie();
    EXPECT_TRUE(got.empty()) << filter::StrategyName(strategy);
  }
}

TEST(FilteredSearchTest, ConcurrentInFilterSharedBitmap) {
  // Many threads running in-filter searches against one shared selection
  // bitmap and one shared metrics registry; run under TSan by
  // ci/run_checks.sh. Every thread must see the single-threaded answer.
  auto ds = FilterData();
  faisslike::IvfFlatOptions opt;
  opt.num_clusters = 8;
  opt.sample_ratio = 1.0;
  faisslike::IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const SelectionVector sel = MakePrefixSelection(kN, 0.25);
  SearchParams params;
  params.k = kK;
  params.nprobe = 8;
  FilterRequest req;
  req.selection = &sel;
  req.strategy = FilterStrategy::kInFilter;
  std::vector<std::vector<Neighbor>> want;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    want.push_back(
        index.FilteredSearch(ds.query_vector(q), req, params).ValueOrDie());
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        for (size_t q = 0; q < ds.num_queries; ++q) {
          auto got = index.FilteredSearch(ds.query_vector(q), req, params);
          if (!got.ok() || got->size() != want[q].size()) {
            ++mismatches;
            continue;
          }
          for (size_t i = 0; i < got->size(); ++i) {
            if ((*got)[i].id != want[q][i].id) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// SQL end-to-end

class SqlFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/sqlfilter_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    db_ = sql::MiniDatabase::Open(dir_).ValueOrDie();
    session_ = db_->CreateSession();
  }

  /// Closes the database without a checkpoint and opens it again: Open
  /// recovers the heap, replays WAL tombstones and rebuilds the indexes
  /// and the predicate columns.
  void Reopen() {
    session_.reset();
    db_.reset();
    db_ = sql::MiniDatabase::Open(dir_).ValueOrDie();
    session_ = db_->CreateSession();
  }

  sql::QueryResult Must(const std::string& stmt) {
    auto result = session_->Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << " -> "
                             << result.status().ToString();
    return result.ok() ? *result : sql::QueryResult{};
  }

  /// 200 rows: id = 1000+i, price = i, tag = i % 5; vectors on a ring.
  void LoadTable() {
    Must("CREATE TABLE items (id int, vec float[8], price int, tag int)");
    std::string insert = "INSERT INTO items VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(1000 + i) + ", '";
      for (int d = 0; d < 8; ++d) {
        if (d > 0) insert += ",";
        insert += std::to_string((i * 37 % 100) / 100.0 + d * 0.01);
      }
      insert += "', " + std::to_string(i) + ", " + std::to_string(i % 5) +
                ")";
    }
    Must(insert);
  }

  static std::vector<int64_t> Ids(const sql::QueryResult& r) {
    std::vector<int64_t> out;
    for (const auto& row : r.rows) out.push_back(row.id);
    return out;
  }

  static uint64_t TableValue(const std::string& table,
                             const std::string& name) {
    const size_t pos = table.find(name + " ");
    if (pos == std::string::npos) return ~uint64_t{0};
    const size_t eol = table.find('\n', pos);
    return std::stoull(
        table.substr(pos + name.size(), eol - pos - name.size()));
  }

  static constexpr const char* kQuery =
      "'0.37,0.38,0.39,0.4,0.41,0.42,0.43,0.44'";

  std::string dir_;
  std::unique_ptr<sql::MiniDatabase> db_;
  std::shared_ptr<sql::Session> session_;
};

TEST_F(SqlFilterTest, SeqScanHonorsWhere) {
  LoadTable();
  auto result = Must(std::string("SELECT id FROM items WHERE price < 10 "
                                 "ORDER BY vec <-> ") +
                     kQuery + " LIMIT 20");
  // Only the 10 matching rows exist; all must have price < 10.
  ASSERT_EQ(result.rows.size(), 10u);
  for (int64_t id : Ids(result)) {
    EXPECT_GE(id, 1000);
    EXPECT_LT(id, 1010);
  }
}

TEST_F(SqlFilterTest, IndexScanMatchesSeqScanUnderEveryStrategy) {
  LoadTable();
  const std::string where =
      " WHERE price >= 20 AND tag IN (0, 2) ORDER BY vec <-> ";
  auto seq = Must("SELECT id FROM items" + where + kQuery + " LIMIT 5");
  ASSERT_EQ(seq.rows.size(), 5u);
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
       "(clusters=8, sample_ratio=1)");
  for (const char* strategy : {"auto", "prefilter", "postfilter",
                               "infilter"}) {
    auto indexed = Must("SELECT id FROM items" + where + kQuery +
                        " OPTIONS (nprobe=8, filter_strategy=" + strategy +
                        ") LIMIT 5");
    EXPECT_EQ(Ids(indexed), Ids(seq)) << strategy;
  }
}

TEST_F(SqlFilterTest, ExplainReportsPredicateAndStrategy) {
  LoadTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
       "(clusters=8, sample_ratio=1)");
  auto plan = Must(std::string("EXPLAIN SELECT id FROM items WHERE "
                               "price < 100 ORDER BY vec <-> ") +
                   kQuery + " OPTIONS (nprobe=8) LIMIT 5");
  EXPECT_NE(plan.message.find("filter=price < 100"), std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("strategy="), std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("est_selectivity="), std::string::npos)
      << plan.message;
  // A forced strategy shows up verbatim.
  auto forced = Must(std::string("EXPLAIN SELECT id FROM items WHERE "
                                 "price < 100 ORDER BY vec <-> ") +
                     kQuery +
                     " OPTIONS (nprobe=8, filter_strategy=prefilter) "
                     "LIMIT 5");
  EXPECT_NE(forced.message.find("strategy=prefilter"), std::string::npos)
      << forced.message;
}

TEST_F(SqlFilterTest, ShowMetricsReportsFilterCounters) {
  LoadTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
       "(clusters=8, sample_ratio=1)");
  Must("SHOW METRICS RESET");
  const std::string base =
      std::string("SELECT id FROM items WHERE price < 100 ORDER BY vec "
                  "<-> ") +
      kQuery + " OPTIONS (nprobe=8, filter_strategy=";
  Must(base + "prefilter) LIMIT 5");
  Must(base + "postfilter) LIMIT 5");
  Must(base + "infilter) LIMIT 5");
  auto shown = Must("SHOW METRICS");
  EXPECT_EQ(TableValue(shown.message, "filter.prefilter_queries"), 1u);
  EXPECT_EQ(TableValue(shown.message, "filter.postfilter_queries"), 1u);
  EXPECT_EQ(TableValue(shown.message, "filter.infilter_queries"), 1u);
  EXPECT_GT(TableValue(shown.message, "filter.bitmap_probes"), 0u);
  EXPECT_NE(shown.message.find("filter.selectivity_bp"),
            std::string::npos);
}

TEST_F(SqlFilterTest, UnknownFilterStrategyIsAnError) {
  LoadTable();
  EXPECT_FALSE(session_->Execute(std::string("SELECT id FROM items WHERE "
                                        "price < 10 ORDER BY vec <-> ") +
                            kQuery +
                            " OPTIONS (filter_strategy=sideways) LIMIT 5")
                   .ok());
}

TEST_F(SqlFilterTest, WhereOnUnknownColumnIsAnError) {
  LoadTable();
  EXPECT_FALSE(session_->Execute(std::string("SELECT id FROM items WHERE "
                                        "nope = 1 ORDER BY vec <-> ") +
                            kQuery + " LIMIT 5")
                   .ok());
}

TEST_F(SqlFilterTest, InsertArityMustMatchAttrColumns) {
  Must("CREATE TABLE t (id int, vec float[2], price int)");
  EXPECT_FALSE(session_->Execute("INSERT INTO t VALUES (1, '0,0')").ok());
  EXPECT_FALSE(session_->Execute("INSERT INTO t VALUES (1, '0,0', 2, 3)").ok());
  Must("INSERT INTO t VALUES (1, '0,0', 2)");
}

TEST_F(SqlFilterTest, DeleteByPredicateTombstonesAllMatches) {
  LoadTable();
  auto del = Must("DELETE FROM items WHERE price >= 100");
  EXPECT_EQ(del.message, "DELETE 100");
  auto rest = Must(std::string("SELECT id FROM items ORDER BY vec <-> ") +
                   kQuery + " LIMIT 200");
  EXPECT_EQ(rest.rows.size(), 100u);
  for (int64_t id : Ids(rest)) EXPECT_LT(id, 1100);
  // Deleting the same range again matches nothing: DELETE 0, not an error.
  EXPECT_EQ(Must("DELETE FROM items WHERE price >= 100").message,
            "DELETE 0");
}

TEST_F(SqlFilterTest, DeleteByIdFastPathKeepsHistoricalErrors) {
  LoadTable();
  EXPECT_EQ(Must("DELETE FROM items WHERE id = 1005").message, "DELETE 1");
  EXPECT_TRUE(session_->Execute("DELETE FROM items WHERE id = 1005")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(session_->Execute("DELETE FROM items WHERE id = 99999")
                  .status()
                  .IsNotFound());
}

TEST_F(SqlFilterTest, FilteredSelectSkipsDeletedRows) {
  LoadTable();
  Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
       "(clusters=8, sample_ratio=1)");
  Must("DELETE FROM items WHERE tag = 0");  // 40 of the 200 rows
  auto result = Must(std::string("SELECT id FROM items WHERE price < 50 "
                                 "ORDER BY vec <-> ") +
                     kQuery + " OPTIONS (nprobe=8) LIMIT 50");
  EXPECT_EQ(result.rows.size(), 40u);  // 50 matches minus 10 with tag 0
  for (int64_t id : Ids(result)) {
    EXPECT_NE((id - 1000) % 5, 0) << id;
  }
}

// ---------------------------------------------------------------------------
// Plan equivalence: the filter plan read off the predicate columns must be
// the plan a per-row pass over the heap would build, after a predicate
// DELETE, across a close/reopen (columns rebuilt at Open), and when a
// tombstone survives only in the WAL.

class SqlPlanOracleTest : public SqlFilterTest {
 protected:
  static constexpr int kRows = 1000;  // > filter::kPlannerSampleRows
  static constexpr size_t kLimit = 10;
  static constexpr const char* kLineQuery = "'-1,0,0,0,0,0,0,0'";

  /// id = 1000+i, price = i, tag = i % 5; vector i = (i/100, 0, ..., 0),
  /// so distance to kLineQuery grows strictly with i and the exact top-k
  /// of any predicate is its k smallest live matching positions.
  void LoadLine() {
    Must("CREATE TABLE items (id int, vec float[8], price int, tag int)");
    for (int first = 0; first < kRows; first += 250) {
      std::string insert = "INSERT INTO items VALUES ";
      for (int i = first; i < first + 250; ++i) {
        if (i > first) insert += ", ";
        insert += "(" + std::to_string(1000 + i) + ", '" +
                  std::to_string(i / 100.0) + ",0,0,0,0,0,0,0', " +
                  std::to_string(i) + ", " + std::to_string(i % 5) + ")";
      }
      Must(insert);
    }
    Must("CREATE INDEX items_idx ON items USING ivfflat (vec) WITH "
         "(clusters=8, sample_ratio=1)");
  }

  /// Predicates spanning the planner's three regimes.
  static std::vector<std::unique_ptr<Predicate>> Predicates() {
    std::vector<std::unique_ptr<Predicate>> out;
    out.push_back(Predicate::Compare("price", CmpOp::kLt, 20));
    out.push_back(Predicate::And(Predicate::Compare("price", CmpOp::kLt, 400),
                                 Predicate::Compare("tag", CmpOp::kNe, 2)));
    out.push_back(Predicate::Compare("price", CmpOp::kGe, 100));
    out.push_back(Predicate::Or(Predicate::In("tag", {0, 3}),
                                Predicate::Compare("id", CmpOp::kEq, 1501)));
    return out;
  }

  /// Live model rows satisfying `pred`, in heap order.
  std::vector<bool> ModelMatches(const Predicate& pred) const {
    auto bound =
        filter::Bind(pred, {"id", "price", "tag"}).ValueOrDie();
    std::vector<bool> match(kRows);
    for (int i = 0; i < kRows; ++i) {
      const int64_t row[3] = {1000 + i, i, i % 5};
      match[static_cast<size_t>(i)] =
          dead_.count(1000 + i) == 0 && bound.Eval(row);
    }
    return match;
  }

  /// Runs EXPLAIN and the SELECT under auto and every forced strategy,
  /// checks each against the model, and returns the EXPLAIN texts and
  /// result ids so callers can also compare runs with each other.
  std::vector<std::string> CheckPlans() {
    std::vector<std::string> observed;
    constexpr size_t kSample = filter::kPlannerSampleRows;
    for (const auto& pred : Predicates()) {
      const std::vector<bool> match = ModelMatches(*pred);
      // The per-row heap pass's estimate: the live matches among the
      // positions pos % stride == 0.
      const size_t stride = (kRows + kSample - 1) / kSample;
      size_t sampled = 0;
      size_t hits = 0;
      for (size_t pos = 0; pos < kRows; pos += stride) {
        ++sampled;
        hits += match[pos] ? 1 : 0;
      }
      const double est =
          static_cast<double>(hits) / static_cast<double>(sampled);
      std::vector<int64_t> want;
      for (int i = 0; i < kRows && want.size() < kLimit; ++i) {
        if (match[static_cast<size_t>(i)]) want.push_back(1000 + i);
      }
      const size_t live_rows = kRows - dead_.size();
      const std::string where = " FROM items WHERE " +
                                filter::ToString(*pred) +
                                " ORDER BY vec <-> " + kLineQuery;
      for (const char* strategy :
           {"auto", "prefilter", "infilter", "postfilter"}) {
        const std::string options = std::string(" OPTIONS (nprobe=8, "
                                                "filter_strategy=") +
                                    strategy + ") LIMIT " +
                                    std::to_string(kLimit);
        const FilterStrategy effective =
            std::string(strategy) == "auto"
                ? filter::ChooseStrategy(est, kLimit, live_rows)
                : filter::ParseStrategy(strategy).ValueOrDie();
        auto plan = Must("EXPLAIN SELECT id" + where + options);
        EXPECT_NE(plan.message.find(
                      std::string(" strategy=") +
                      filter::StrategyName(effective) +
                      " est_selectivity=" + std::to_string(est)),
                  std::string::npos)
            << plan.message;
        auto rows = Must("SELECT id" + where + options);
        EXPECT_EQ(Ids(rows), want) << filter::ToString(*pred) << " "
                                   << strategy;
        observed.push_back(plan.message);
        std::string ids;
        for (int64_t id : Ids(rows)) ids += std::to_string(id) + " ";
        observed.push_back(ids);
      }
    }
    return observed;
  }

  /// Ids the test has deleted (the model's tombstone set).
  std::set<int64_t> dead_;
};

TEST_F(SqlPlanOracleTest, PlansMatchHeapPassAfterPredicateDelete) {
  LoadLine();
  CheckPlans();
  // tag = 1 leaves a hole at every fifth position, including sampled ones.
  auto del = Must("DELETE FROM items WHERE tag = 1 OR price >= 900");
  for (int i = 0; i < kRows; ++i) {
    if (i % 5 == 1 || i >= 900) dead_.insert(1000 + i);
  }
  EXPECT_EQ(del.message, "DELETE " + std::to_string(dead_.size()));
  CheckPlans();
}

TEST_F(SqlPlanOracleTest, PlansSurviveCloseAndReopen) {
  LoadLine();
  Must("DELETE FROM items WHERE price < 30 AND tag = 0");
  for (int i = 0; i < 30; i += 5) dead_.insert(1000 + i);
  Must("CHECKPOINT");
  const std::vector<std::string> before = CheckPlans();
  Reopen();
  EXPECT_EQ(CheckPlans(), before);
}

TEST_F(SqlPlanOracleTest, PlansHonorTombstonesLivingOnlyInTheWal) {
  LoadLine();
  Must("CHECKPOINT");
  // After the checkpoint: the catalog's tombstone set is empty, and these
  // deletes exist only as WAL records until recovery replays them.
  Must("DELETE FROM items WHERE id = 1000");
  Must("DELETE FROM items WHERE tag = 3 AND price < 500");
  dead_.insert(1000);
  for (int i = 3; i < 500; i += 5) dead_.insert(1000 + i);
  const std::vector<std::string> before = CheckPlans();
  Reopen();
  EXPECT_EQ(CheckPlans(), before);
}

}  // namespace
}  // namespace vecdb
