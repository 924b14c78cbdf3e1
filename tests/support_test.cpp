#include <gtest/gtest.h>

#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace fem2::support {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    FEM2_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextBelowIsUnbiasedEnough) {
  Rng rng(11);
  std::array<int, 7> counts{};
  const int n = 70'000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(7)]++;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, n / 7.0 * 0.1);
  }
}

TEST(Rng, UniformIntCoversBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.split();
  // The child stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.5, -2.0, 4.25, 0.0, 3.5, 3.5};
  RunningStats stats;
  for (const double x : xs) stats.add(x);
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_EQ(stats.min(), -2.0);
  EXPECT_EQ(stats.max(), 4.25);
  EXPECT_EQ(stats.count(), xs.size());
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(21);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.bucket_count(0), 10u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  // Out-of-range samples clamp.
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.total(), 102u);
}

TEST(Percentile, ExactValues) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_ws("  a\tb  c \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(iequals("HeLLo", "hello"));
  EXPECT_FALSE(iequals("hello", "hell"));
}

TEST(Strings, SplitWsIntoViewsReusesTheVector) {
  std::vector<std::string_view> tokens{"stale"};
  split_ws("a\r\vb\f c", tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "b", "c"}));
  split_ws(" \t ", tokens);
  EXPECT_TRUE(tokens.empty());
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("+2.5e1"), 25.0);
  EXPECT_EQ(parse_double("-0.0"), 0.0);
  EXPECT_TRUE(std::signbit(*parse_double("-0.0")));
  EXPECT_EQ(parse_double("4.9406564584124654e-324"), 4.9406564584124654e-324);
  EXPECT_EQ(parse_double("-inf"), -HUGE_VAL);
  EXPECT_TRUE(std::isnan(*parse_double("nan")));
  for (const char* bad : {"", "+", "-", "+-1", "++1", " 1", "1 ", "1e", "0x1p3",
                          "1e999", "1e-400", "1,5", "one"})
    EXPECT_EQ(parse_double(bad), std::nullopt) << bad;
  EXPECT_EQ(parse_index("0"), 0u);
  EXPECT_EQ(parse_index("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", "+1", "-1", "1.0", "18446744073709551616", "1e3"})
    EXPECT_EQ(parse_index(bad), std::nullopt) << bad;
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(7), "7");
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 3), "2");
}

TEST(Table, RendersAlignedGrid) {
  Table t("title");
  t.set_header({"a", "long-header"});
  t.row().cell("x").cell(std::uint64_t{42});
  t.row().cell("longer-cell").cell(3.14159, 2);
  const std::string out = t.render();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| long-header |"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

}  // namespace
}  // namespace fem2::support
