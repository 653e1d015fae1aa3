#include "common/profiler.h"

#include <gtest/gtest.h>

namespace vecdb {
namespace {

TEST(ProfilerTest, AccumulatesNanosAndHits) {
  Profiler p;
  p.Add("phase", 100);
  p.Add("phase", 250);
  EXPECT_EQ(p.Nanos("phase"), 350);
  EXPECT_EQ(p.Hits("phase"), 2);
  EXPECT_DOUBLE_EQ(p.Seconds("phase"), 350e-9);
}

TEST(ProfilerTest, UnknownLabelIsZero) {
  Profiler p;
  EXPECT_EQ(p.Nanos("nothing"), 0);
  EXPECT_EQ(p.Hits("nothing"), 0);
}

volatile double benchmark_dont_optimize_ = 0;

TEST(ProfScopeTest, ChargesElapsedTime) {
  Profiler p;
  {
    ProfScope scope(&p, "work");
    double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += i * 0.5;
    benchmark_dont_optimize_ = sink;
  }
  EXPECT_GT(p.Nanos("work"), 0);
  EXPECT_EQ(p.Hits("work"), 1);
}

TEST(ProfScopeTest, NullProfilerIsSafe) {
  ProfScope scope(nullptr, "ignored");
  SUCCEED();
}

}  // namespace
}  // namespace vecdb
