// Unit tests for the rg::support utilities.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "support/glob.hpp"
#include "support/intern.hpp"
#include "support/prng.hpp"
#include "support/site.hpp"
#include "support/small_vector.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace rg::support {
namespace {

// --- Interner ----------------------------------------------------------------

TEST(Interner, EmptyStringIsSymbolZero) {
  Interner interner;
  EXPECT_EQ(interner.intern(""), 0u);
  EXPECT_EQ(interner.text(0), "");
}

TEST(Interner, SameStringSameSymbol) {
  Interner interner;
  const Symbol a = interner.intern("mutex-a");
  const Symbol b = interner.intern("mutex-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("mutex-a"), a);
  EXPECT_EQ(interner.intern("mutex-b"), b);
}

TEST(Interner, TextRoundTrips) {
  Interner interner;
  const Symbol s = interner.intern("some::function(int)");
  EXPECT_EQ(interner.text(s), "some::function(int)");
}

TEST(Interner, ViewsSurviveGrowth) {
  // Short names fit in std::string's inline (SSO) buffer, so their bytes
  // live inside the storage element itself: growth must not move them.
  Interner interner;
  const Symbol first = interner.intern("first");
  const std::string_view view = interner.text(first);
  constexpr int kNames = 5000;
  std::vector<Symbol> syms;
  for (int i = 0; i < kNames; ++i)
    syms.push_back(interner.intern("n" + std::to_string(i)));
  EXPECT_EQ(view, "first");
  EXPECT_EQ(interner.text(first), "first");
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(interner.intern("n" + std::to_string(i)), syms[i]) << i;
    EXPECT_EQ(interner.text(syms[i]), "n" + std::to_string(i)) << i;
  }
}

TEST(Interner, SizeCountsDistinct) {
  Interner interner;
  const std::size_t base = interner.size();
  interner.intern("x");
  interner.intern("y");
  interner.intern("x");
  EXPECT_EQ(interner.size(), base + 2);
}

// --- SiteRegistry -------------------------------------------------------------

TEST(SiteRegistry, UnknownSiteIsZero) {
  EXPECT_EQ(kUnknownSite, 0u);
  EXPECT_EQ(global_sites().describe(kUnknownSite),
            "<unknown> (<unknown>:0)");
}

TEST(SiteRegistry, SameLocationSameId) {
  const SiteId a = site_id("f", "file.cpp", 10);
  const SiteId b = site_id("f", "file.cpp", 10);
  const SiteId c = site_id("f", "file.cpp", 11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SiteRegistry, DescribeFormat) {
  const SiteId id = site_id("handler", "proxy.cpp", 42);
  EXPECT_EQ(global_sites().describe(id), "handler (proxy.cpp:42)");
}

TEST(SiteRegistry, HereMacroIsStable) {
  const SiteId a = RG_HERE();
  const SiteId b = RG_HERE();
  EXPECT_NE(a, b);  // different lines
  auto same_line = [] { return RG_HERE(); };
  EXPECT_EQ(same_line(), same_line());
}

// --- small_vector --------------------------------------------------------------

TEST(SmallVector, StartsEmptyInline) {
  small_vector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVector, PushAndIndex) {
  small_vector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i * 10);
  ASSERT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 10);
}

TEST(SmallVector, SpillsToHeap) {
  small_vector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, CopyPreservesContents) {
  small_vector<std::string, 2> v;
  v.push_back("a");
  v.push_back("b");
  v.push_back("c");  // heap
  small_vector<std::string, 2> copy(v);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0], "a");
  EXPECT_EQ(copy[2], "c");
  // Deep copy: mutating the copy leaves the original alone.
  copy[0] = "z";
  EXPECT_EQ(v[0], "a");
}

TEST(SmallVector, MoveStealsHeapBuffer) {
  small_vector<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const int* data = v.data();
  small_vector<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.data(), data);  // heap buffer stolen
  EXPECT_EQ(moved.size(), 10u);
}

TEST(SmallVector, MoveInlineCopiesElements) {
  small_vector<std::string, 4> v;
  v.push_back("hello");
  small_vector<std::string, 4> moved(std::move(v));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], "hello");
}

TEST(SmallVector, PopBack) {
  small_vector<int, 4> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
}

TEST(SmallVector, ResizeGrowsAndShrinks) {
  small_vector<int, 4> v;
  v.resize(6, 7);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[5], 7);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVector, EqualityIsElementwise) {
  small_vector<int, 4> a{1, 2, 3};
  small_vector<int, 4> b{1, 2, 3};
  small_vector<int, 4> c{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

/// Property: small_vector behaves like std::vector under a random op
/// sequence, for several seeds and inline capacities.
class SmallVectorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallVectorProperty, MatchesStdVector) {
  Xoshiro256 rng(GetParam());
  small_vector<int, 3> actual;
  std::vector<int> expected;
  for (int step = 0; step < 500; ++step) {
    const auto op = rng.below(4);
    if (op == 0 || expected.empty()) {
      const int v = static_cast<int>(rng.below(1000));
      actual.push_back(v);
      expected.push_back(v);
    } else if (op == 1) {
      actual.pop_back();
      expected.pop_back();
    } else if (op == 2) {
      const auto idx = rng.below(expected.size());
      EXPECT_EQ(actual[idx], expected[idx]);
    } else {
      actual.clear();
      expected.clear();
    }
    ASSERT_EQ(actual.size(), expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVectorProperty,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

// --- PRNG -----------------------------------------------------------------------

TEST(Prng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Prng, BelowRespectsBound) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Prng, RangeInclusive) {
  Xoshiro256 rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

// --- glob -------------------------------------------------------------------------

TEST(Glob, Literal) {
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_FALSE(glob_match("abc", "ab"));
}

TEST(Glob, Star) {
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("std::*", "std::string::assign"));
  EXPECT_TRUE(glob_match("*grab*", "_M_grab(allocator)"));
  EXPECT_FALSE(glob_match("std::*", "boost::any"));
}

TEST(Glob, QuestionMark) {
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_FALSE(glob_match("a?c", "abbc"));
}

TEST(Glob, MultipleStarsBacktrack) {
  EXPECT_TRUE(glob_match("*a*b*", "xxaxxbxx"));
  EXPECT_TRUE(glob_match("a*a*a", "aaa"));
  EXPECT_FALSE(glob_match("a*a*a", "aa"));
  EXPECT_TRUE(glob_match("**", "x"));
}

// --- strings ----------------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, SplitOnce) {
  auto [k, v] = split_once("Via: SIP/2.0", ':');
  EXPECT_EQ(k, "Via");
  EXPECT_EQ(trim(v), "SIP/2.0");
  auto [all, none] = split_once("nocolon", ':');
  EXPECT_EQ(all, "nocolon");
  EXPECT_TRUE(none.empty());
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("via", "vias"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("Call-ID"), "call-id"); }

TEST(Strings, ParseU32) {
  std::uint32_t v = 0;
  EXPECT_TRUE(parse_u32("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u32("4294967295", v));
  EXPECT_EQ(v, 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296", v));
  EXPECT_FALSE(parse_u32("", v));
  EXPECT_FALSE(parse_u32("12x", v));
  EXPECT_FALSE(parse_u32("-1", v));
}

// --- stats -------------------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2.0);
  acc.add(4.0);
  acc.add(6.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
  EXPECT_NEAR(acc.stddev(), 2.0, 1e-12);
}

TEST(Stats, StddevNeedsTwoSamples) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> samples{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(samples, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
}

// --- table -------------------------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  Table t("Fig. 6");
  t.header({"Test case", "Original", "HWLC", "HWLC+DR"});
  t.row("T1", 483, 448, 120);
  const std::string out = t.render();
  EXPECT_NE(out.find("Fig. 6"), std::string::npos);
  EXPECT_NE(out.find("T1"), std::string::npos);
  EXPECT_NE(out.find("483"), std::string::npos);
  EXPECT_NE(out.find("HWLC+DR"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t;
  t.header({"a", "b"});
  t.row("x", 1);
  EXPECT_EQ(t.render_csv(), "a,b\nx,1\n");
}

TEST(Table, DoubleFormatting) {
  Table t;
  t.header({"v"});
  t.row(3.14159);
  EXPECT_NE(t.render().find("3.14"), std::string::npos);
}

}  // namespace
}  // namespace rg::support
