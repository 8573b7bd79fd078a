#include <atomic>

#include "gtest/gtest.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

TEST(StrSplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StrTrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(StrTrim("  x y \t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(FormatFloatTest, Precision) {
  EXPECT_EQ(FormatFloat(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFloat(2.0, 0), "2");
}

TEST(ParseNumberTest, AcceptsOnlyWholeFields) {
  int i = 7;
  EXPECT_TRUE(ParseInt("-42", &i));
  EXPECT_EQ(i, -42);
  int64_t big = 0;
  EXPECT_TRUE(ParseInt("9000000000", &big));
  EXPECT_EQ(big, int64_t{9000000000});
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("-1.5e-3", &d));
  EXPECT_EQ(d, -1.5e-3);
  EXPECT_TRUE(ParseDouble("1e-320", &d));  // subnormal underflow is a value
  EXPECT_GT(d, 0.0);
  i = 7;
  for (const char* bad : {"", " 1", "1 ", "1x", "x", "-", "1.5", "0x10",
                          "9000000000"}) {
    EXPECT_FALSE(ParseInt(bad, &i)) << bad;
  }
  EXPECT_EQ(i, 7);  // untouched on failure
  EXPECT_FALSE(ParseInt("99999999999999999999", &big));
  d = 2.0;
  for (const char* bad : {"", " 1.0", "1.0 ", "1.0x", "abc", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
  EXPECT_EQ(d, 2.0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ASSERT_GE(sink, 0.0);
  EXPECT_GT(watch.ElapsedSeconds(), 0.0);
  const double before = watch.ElapsedSeconds();
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), before + 1.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelForTest, CoversRangeSequentially) {
  std::vector<int> hits(20, 0);
  ParallelFor(20, 1, [&](int i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, CoversRangeThreaded) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 4, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterationsIsNoop) {
  ParallelFor(0, 4, [](int) { FAIL(); });
}

}  // namespace
}  // namespace ahg
