// Self-tests of the benchmark's measurement rules (perfbench/lib). Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lib/benchlib.h"

namespace perfbench {
namespace {

using humdex::QbhMatch;

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Nearest rank 990 leaves exactly ten samples above it.
  ASSERT_TRUE(TailPercentile(v, 99.0).has_value());
  EXPECT_EQ(*TailPercentile(v, 99.0), 990.0);
  v.pop_back();  // 999 samples: rank 990 leaves nine
  EXPECT_FALSE(TailPercentile(v, 99.0).has_value());
  // A lower percentile of the same samples still qualifies.
  ASSERT_TRUE(TailPercentile(v, 50.0).has_value());
  EXPECT_EQ(*TailPercentile(v, 50.0), 500.0);
  EXPECT_FALSE(TailPercentile({}, 50.0).has_value());
}

TEST(TailPercentileTest, WindowedTailIsTheMedianOfPerWindowTails) {
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 1 ? 100.0 * i : i);
  }
  // A burst in the middle window sets the whole run's p99 but not the
  // median of the three windows' p99s.
  EXPECT_EQ(*TailPercentile(v, 99.0), 97000.0);
  ASSERT_TRUE(WindowedTail(v, 99.0).has_value());
  EXPECT_EQ(*WindowedTail(v, 99.0), 990.0);
  // Fewer than two windows' worth: one window over everything.
  v.resize(1999);
  EXPECT_EQ(*WindowedTail(v, 99.0), *TailPercentile(v, 99.0));
  // Each window must itself leave ten samples beyond its p99.
  v.resize(999);
  EXPECT_FALSE(WindowedTail(v, 99.0).has_value());
}

TEST(TailPercentileTest, MedianOfEvenCountAveragesMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
}

TEST(MedianRateTest, AStallMovesTheMeanRateButNotTheMedian) {
  // 100 completions per second for 10 s, with a 2 s stall after the fifth.
  std::vector<double> end;
  for (int i = 1; i <= 1000; ++i) end.push_back(0.01 * i + (i > 500 ? 2 : 0));
  const double mean_rate = 1000 / end.back();
  EXPECT_NEAR(mean_rate, 1000.0 / 12, 1e-9);
  EXPECT_NEAR(MedianRate(end), 100.0, 1e-6);
  // Order does not matter; too few completions give one window.
  std::reverse(end.begin(), end.end());
  EXPECT_NEAR(MedianRate(end), 100.0, 1e-6);
  EXPECT_NEAR(MedianRate({0.5, 1.0, 2.0}), 1.5, 1e-12);
  EXPECT_EQ(MedianRate({}), 0.0);
}

TEST(OpenLoopTest, StallDelaysLaterRequestsAndCountsFromDueTime) {
  std::vector<double> due;
  for (int i = 0; i < 12; ++i) due.push_back(0.010 * i);
  const Call call = [](std::size_t, std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 2 ? 150 : 1));
    return true;
  };
  const std::vector<CallTiming> t = RunOpenLoop(due, 1, call);
  ASSERT_EQ(t.size(), due.size());
  // Before the stall the generator keeps its schedule.
  EXPECT_LT(t[1].late_s(), 0.05);
  // Request 3 was due at 30 ms but could not be sent before the stalled
  // request 2 (sent at 20 ms) returned at about 170 ms.
  EXPECT_GT(t[3].late_s(), 0.12);
  // Its latency counts that wait, not just its own 1 ms of service.
  EXPECT_GT(t[3].latency_s(), 0.12);
  EXPECT_LT(t[3].end_s - t[3].start_s, 0.1);
  EXPECT_NEAR(t[3].latency_s() - (t[3].end_s - t[3].start_s), t[3].late_s(),
              1e-9);
  // The backlog lasts: the last request (due 110 ms) is still late.
  EXPECT_GT(t[11].late_s(), 0.03);
  for (const CallTiming& c : t) EXPECT_TRUE(c.ok);
}

TEST(OpenLoopTest, PoissonArrivalsAreSeededAndAtTheRate) {
  const std::vector<double> a = PoissonArrivals(100.0, 50.0, 7);
  EXPECT_EQ(a, PoissonArrivals(100.0, 50.0, 7));
  EXPECT_NE(a, PoissonArrivals(100.0, 50.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 300.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 50.0);
}

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanLog log;
  const int root = log.Add(1, "root", -1, 0, 100);
  log.Add(1, "a", root, 10, 30);
  const int b = log.Add(1, "b", root, 20, 50);    // overlaps a: counts once
  log.Add(1, "c", root, 90, 120);                 // only 90..100 is inside
  const int grandchild = log.Add(1, "b.x", b, 25, 45);
  // Covered: 10..50 and 90..100, 50 ns of the root's 100.
  EXPECT_EQ(log.SelfNs(root), 50);
  // A grandchild subtracts from its parent only.
  EXPECT_EQ(log.SelfNs(b), 10);
  EXPECT_EQ(log.SelfNs(grandchild), 20);
  // Children that cover the whole parent leave no self time.
  const int full = log.Add(2, "full", -1, 0, 10);
  log.Add(2, "x", full, 0, 6);
  log.Add(2, "y", full, 4, 15);
  EXPECT_EQ(log.SelfNs(full), 0);
}

std::string CapturedPage() {
  std::ifstream in(std::string(PERFBENCH_TEST_DATA) + "/metrics_page.txt");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MetricsPageTest, ParsesCountersAndHistogramsOfACapturedPage) {
  const std::string text = CapturedPage();
  ASSERT_FALSE(text.empty());
  auto page = MetricsPage::Parse(text);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  const MetricsPage& p = page.value();
  EXPECT_EQ(p.Value("wal.appends"), 2400.0);
  EXPECT_EQ(p.Value("wal.bytes"), 580930.0);
  EXPECT_EQ(p.Value("thread_pool.queue_depth"), 0.0);
  EXPECT_EQ(p.HistCount("checkpoint.duration_ns"), 56.0);
  EXPECT_GT(p.HistSum("checkpoint.duration_ns"), 0.0);
  EXPECT_GT(p.HistQuantile("checkpoint.duration_ns", 0.99),
            p.HistQuantile("checkpoint.duration_ns", 0.5));
  EXPECT_TRUE(p.Has("storage.open_ns"));
  EXPECT_FALSE(p.Has("serve.hedged_attempts"));
}

TEST(MetricsPageTest, MissingSeriesFailsLoudly) {
  auto page = MetricsPage::Parse(CapturedPage());
  ASSERT_TRUE(page.ok());
  EXPECT_THROW(page.value().Value("wal.renamed_appends"), std::runtime_error);
  EXPECT_THROW(page.value().HistSum("checkpoint.renamed_ns"),
               std::runtime_error);
  EXPECT_THROW(page.value().HistQuantile("checkpoint.duration_ns", 0.42),
               std::runtime_error);
  // The delta needs the series after the run; before it, absent reads 0.
  auto empty = MetricsPage::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(MetricsPage::Delta(page.value(), empty.value(), "wal.appends"),
            2400.0);
  EXPECT_THROW(MetricsPage::Delta(empty.value(), page.value(), "wal.appends"),
               std::runtime_error);
}

TEST(MetricsPageTest, MalformedLinesAreErrors) {
  EXPECT_FALSE(MetricsPage::Parse("humdex_x\n").ok());
  EXPECT_FALSE(MetricsPage::Parse("humdex_x 12abc\n").ok());
  EXPECT_TRUE(MetricsPage::Parse("# TYPE humdex_x counter\nhumdex_x 3\n").ok());
}

QbhMatch M(std::int64_t id, double d) {
  return QbhMatch{id, "m" + std::to_string(id), d};
}

TEST(OracleTest, ExactComparisonIsBitForBit) {
  const std::vector<QbhMatch> want = {M(3, 1.5), M(7, 2.25)};
  EXPECT_EQ(CompareExact(want, want), "");
  std::vector<QbhMatch> got = want;
  got[1].distance = std::nextafter(2.25, 3.0);  // one ulp off
  EXPECT_NE(CompareExact(got, want), "");
  got = want;
  got[0].name = "other";
  EXPECT_NE(CompareExact(got, want), "");
  got = {want[0]};
  EXPECT_NE(CompareExact(got, want), "");
}

TEST(OracleTest, RangeRuleAcceptsAnySubsetOfInserts) {
  // Ids below 100 are the base corpus; 100 and up were inserted in the run.
  const std::vector<QbhMatch> ref = {M(4, 1.0), M(120, 1.5), M(9, 2.0),
                                     M(101, 2.5)};
  EXPECT_EQ(CheckRangeAnswer(ref, ref, 100), "");
  // An insert the query did not see yet may be missing.
  EXPECT_EQ(CheckRangeAnswer({M(4, 1.0), M(9, 2.0), M(101, 2.5)}, ref, 100),
            "");
  EXPECT_EQ(CheckRangeAnswer({M(4, 1.0), M(9, 2.0)}, ref, 100), "");
}

TEST(OracleTest, RangeRuleRejectsAPlantedWrongDistance) {
  const std::vector<QbhMatch> ref = {M(4, 1.0), M(120, 1.5), M(9, 2.0)};
  // Wrong distance on an inserted id.
  EXPECT_NE(CheckRangeAnswer({M(4, 1.0), M(120, 1.25), M(9, 2.0)}, ref, 100),
            "");
  // Wrong distance on a base id.
  EXPECT_NE(CheckRangeAnswer({M(4, 1.0), M(120, 1.5), M(9, 2.5)}, ref, 100),
            "");
  // A base match missing, an id the reference does not have, a bad order.
  EXPECT_NE(CheckRangeAnswer({M(4, 1.0), M(120, 1.5)}, ref, 100), "");
  EXPECT_NE(CheckRangeAnswer({M(4, 1.0), M(130, 1.6), M(9, 2.0)}, ref, 100),
            "");
  EXPECT_NE(CheckRangeAnswer({M(9, 2.0), M(4, 1.0)}, ref, 100), "");
}

}  // namespace
}  // namespace perfbench
