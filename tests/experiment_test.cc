#include "core/experiment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/parallel.h"
#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "faisslike/flat_index.h"

namespace vecdb {
namespace {

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Ratio(2.5), "2.5x");
  EXPECT_EQ(TablePrinter::Megabytes(1024 * 1024), "1.0 MB");
  EXPECT_EQ(TablePrinter::Megabytes(3 * 1024 * 1024 / 2), "1.5 MB");
}

TEST(ParallelAccountingTest, ModeledSecondsIsCriticalPathPlusSerial) {
  ParallelAccounting acct;
  acct.Reset(4);
  acct.worker_busy_nanos = {100, 400, 200, 300};
  acct.serial_nanos = 50;
  EXPECT_DOUBLE_EQ(acct.ModeledSeconds(), 450e-9);
  EXPECT_DOUBLE_EQ(acct.TotalWorkSeconds(), 1050e-9);
}

TEST(ParallelAccountingTest, ResetSizesAndZeroes) {
  ParallelAccounting acct;
  acct.serial_nanos = 5;
  acct.Reset(3);
  EXPECT_EQ(acct.worker_busy_nanos.size(), 3u);
  EXPECT_EQ(acct.serial_nanos, 0);
  EXPECT_DOUBLE_EQ(acct.ModeledSeconds(), 0.0);
}

TEST(BenchArgsTest, ParsesAllFlags) {
  const char* argv[] = {"bench",
                        "--scale=0.5",
                        "--max-queries=7",
                        "--max-base=123",
                        "--datasets=SIFT1M,GIST1M",
                        "--data-dir=/tmp/x"};
  BenchArgs args = BenchArgs::Parse(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.scale, 0.5);
  EXPECT_EQ(args.max_queries, 7u);
  EXPECT_EQ(args.max_base, 123u);
  ASSERT_EQ(args.datasets.size(), 2u);
  EXPECT_EQ(args.datasets[0], "SIFT1M");
  EXPECT_EQ(args.datasets[1], "GIST1M");
  EXPECT_EQ(args.data_dir, "/tmp/x");
}

TEST(BenchArgsTest, DefaultsWhenNoFlags) {
  const char* argv[] = {"bench"};
  BenchArgs args = BenchArgs::Parse(1, const_cast<char**>(argv));
  EXPECT_GT(args.scale, 0.0);
  EXPECT_TRUE(args.datasets.empty());
  EXPECT_EQ(args.max_base, 0u);
}

TEST(BenchArgsDeathTest, UnknownFlagExitsNonZero) {
  const char* argv[] = {"bench", "--scale=0.5", "--sacle=0.1"};
  EXPECT_EXIT(BenchArgs::Parse(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag --sacle=0.1");
}

TEST(BenchArgsDeathTest, HelpPrintsFlagsAndExitsZero) {
  const char* argv[] = {"bench", "--help"};
  // The usage goes to stdout; point it at stderr, which the matcher reads.
  EXPECT_EXIT(
      {
        dup2(STDERR_FILENO, STDOUT_FILENO);
        BenchArgs::Parse(2, const_cast<char**>(argv));
      },
      ::testing::ExitedWithCode(0), "usage: bench .*--max-queries=N");
}

TEST(RunSearchBatchTest, TimesAndScoresRecall) {
  SyntheticOptions opt;
  opt.dim = 8;
  opt.num_base = 200;
  opt.num_queries = 10;
  auto ds = GenerateClustered(opt);
  ComputeGroundTruth(&ds, 5, Metric::kL2);
  faisslike::FlatIndex index(ds.dim);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  params.k = 5;
  auto run = std::move(RunSearchBatch(index, ds, params)).ValueOrDie();
  EXPECT_EQ(run.queries, 10u);
  EXPECT_GT(run.avg_millis, 0.0);
  EXPECT_DOUBLE_EQ(run.recall_at_k, 1.0);  // exact index
  // max_queries caps the batch.
  auto capped =
      std::move(RunSearchBatch(index, ds, params, 3)).ValueOrDie();
  EXPECT_EQ(capped.queries, 3u);
}

TEST(RunSearchBatchTest, EmptyQueriesIsError) {
  SyntheticOptions opt;
  opt.dim = 4;
  opt.num_base = 10;
  opt.num_queries = 0;
  auto ds = GenerateClustered(opt);
  faisslike::FlatIndex index(ds.dim);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  SearchParams params;
  EXPECT_FALSE(RunSearchBatch(index, ds, params).ok());
}

}  // namespace
}  // namespace vecdb
