#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/fifo.hpp"
#include "support/rng.hpp"
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

std::vector<int> drain(Fifo<int>& q) {
  std::vector<int> out;
  while (!q.empty()) out.push_back(q.pop_front());
  return out;
}

TEST(Fifo, WrapsAroundAndGrowsWhileWrapped) {
  Fifo<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop_front(), i);
  // The ring (8 slots) now wraps: 5 at slot 5, then slots 6, 7, 0, 1...
  for (int i = 6; i < 12; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.size(), 7u);
  // Growing while wrapped keeps the order.
  q.push_back(12);
  q.push_back(13);
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(q.front(), 5);
  EXPECT_EQ(drain(q), (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
}

TEST(Fifo, PushFrontEraseIfAndClear) {
  Fifo<std::string> q;
  q.push_back("b");
  q.push_front("a");
  for (int i = 0; i < 6; ++i) q.push_front("x" + std::to_string(i));
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.capacity(), 8u);
  q.push_back("c");  // full: grows with the head mid-ring
  EXPECT_EQ(q.size(), 9u);
  const auto removed = q.erase_if(
      [](const std::string& s) { return s.front() == 'x' && s != "x3"; });
  EXPECT_EQ(removed, 5u);
  std::vector<std::string> order;
  while (!q.empty()) order.push_back(q.pop_front());
  EXPECT_EQ(order, (std::vector<std::string>{"x3", "a", "b", "c"}));

  // Against a std::deque reference over many wrapped operations.
  Fifo<int> ring;
  std::deque<int> ref;
  Rng rng(11);
  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.next_below(5);
    if (op == 0) {
      ring.push_front(step);
      ref.push_front(step);
    } else if (op <= 2) {
      ring.push_back(step);
      ref.push_back(step);
    } else if (op == 3 && !ref.empty()) {
      EXPECT_EQ(ring.pop_front(), ref.front());
      ref.pop_front();
    } else if (op == 4) {
      const int m = static_cast<int>(rng.next_below(7)) + 2;
      EXPECT_EQ(ring.erase_if([m](int v) { return v % m == 0; }),
                static_cast<std::size_t>(std::erase_if(
                    ref, [m](int v) { return v % m == 0; })));
    }
    ASSERT_EQ(ring.size(), ref.size());
  }
  EXPECT_EQ(drain(ring), std::vector<int>(ref.begin(), ref.end()));

  ring.push_back(1);
  ring.push_back(2);
  const std::size_t slots = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), slots);
  ring.push_back(3);
  EXPECT_EQ(drain(ring), std::vector<int>{3});
}

TEST(Fifo, EmptyFrontAndPopFailACheck) {
  Fifo<int> q;
  EXPECT_THROW((void)q.front(), CheckError);
  EXPECT_THROW((void)q.pop_front(), CheckError);
  q.push_back(7);
  EXPECT_EQ(q.pop_front(), 7);
  EXPECT_THROW((void)q.pop_front(), CheckError);
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

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split_ws("  a\tb  c \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
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
