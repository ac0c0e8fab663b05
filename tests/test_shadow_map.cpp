// Shadow memory map: granularity, ranges, reset.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "shadow/shadow_map.hpp"
#include "support/prng.hpp"

namespace rg::shadow {
namespace {

struct State {
  int value = 0;
};

TEST(ShadowMap, DefaultConstructedOnFirstTouch) {
  ShadowMap<State> map;
  EXPECT_EQ(map.find(0x1000), nullptr);
  EXPECT_EQ(map.at(0x1000).value, 0);
  ASSERT_NE(map.find(0x1000), nullptr);
}

TEST(ShadowMap, GranuleSharing) {
  ShadowMap<State> map;
  map.at(0x1000).value = 7;
  // Same 8-byte granule:
  EXPECT_EQ(map.at(0x1007).value, 7);
  // Next granule:
  EXPECT_EQ(map.at(0x1008).value, 0);
}

TEST(ShadowMap, GranuleMath) {
  EXPECT_EQ(granule_of(0x0), granule_of(0x7));
  EXPECT_NE(granule_of(0x7), granule_of(0x8));
  EXPECT_EQ(granule_base(granule_of(0x1234)), 0x1230u);
}

TEST(ShadowMap, ForRangeCoversSpanningAccess) {
  ShadowMap<State> map;
  int touched = 0;
  map.for_range(0x1006, 4, [&](State& s) {
    ++touched;
    s.value = 1;
  });
  EXPECT_EQ(touched, 2);  // crosses a granule boundary
  EXPECT_EQ(map.at(0x1000).value, 1);
  EXPECT_EQ(map.at(0x1008).value, 1);
}

TEST(ShadowMap, ZeroSizeTouchesOneGranule) {
  ShadowMap<State> map;
  int touched = 0;
  map.for_range(0x2000, 0, [&](State&) { ++touched; });
  EXPECT_EQ(touched, 1);
}

TEST(ShadowMap, LargeRange) {
  ShadowMap<State> map;
  int touched = 0;
  map.for_range(0x3000, 64, [&](State&) { ++touched; });
  EXPECT_EQ(touched, 8);
}

TEST(ShadowMap, ResetRange) {
  ShadowMap<State> map;
  map.at(0x4000).value = 9;
  map.at(0x4008).value = 9;
  map.at(0x4010).value = 9;
  map.reset_range(0x4000, 16);
  EXPECT_EQ(map.at(0x4000).value, 0);
  EXPECT_EQ(map.at(0x4008).value, 0);
  EXPECT_EQ(map.at(0x4010).value, 9);  // outside the range
}

TEST(ShadowMap, PagesAllocatedLazily) {
  ShadowMap<State> map;
  EXPECT_EQ(map.page_count(), 0u);
  map.at(0x10000);
  EXPECT_EQ(map.page_count(), 1u);
  map.at(0x10008);  // same page
  EXPECT_EQ(map.page_count(), 1u);
  map.at(0x20000);  // different page
  EXPECT_EQ(map.page_count(), 2u);
}

TEST(ShadowMap, CrossPageRange) {
  ShadowMap<State> map;
  // Range straddling a page boundary.
  int touched = 0;
  map.for_range(0xFF8, 16, [&](State& s) {
    ++touched;
    s.value = 3;
  });
  EXPECT_EQ(touched, 2);
  EXPECT_EQ(map.at(0xFF8).value, 3);
  EXPECT_EQ(map.at(0x1000).value, 3);
  EXPECT_EQ(map.page_count(), 2u);
}

TEST(ShadowMap, HighAddresses) {
  ShadowMap<State> map;
  const rt::Addr high = 0x7fff'ffff'f000ULL;
  map.at(high).value = 5;
  EXPECT_EQ(map.at(high + 4).value, 5);
  EXPECT_EQ(map.at(high + 8).value, 0);
}

TEST(ShadowMap, ResetRangeMaterialisesNoPages) {
  ShadowMap<State> map;
  map.reset_range(0x5000, 4096);
  map.reset_range(0x9FF8, 64);
  EXPECT_EQ(map.page_count(), 0u);
  EXPECT_EQ(map.find(0x5000), nullptr);
  EXPECT_EQ(map.find(0xA000), nullptr);
}

TEST(ShadowMap, ResetRangeAcrossPageBoundary) {
  ShadowMap<State> map;
  map.at(0x6FF0).value = 4;
  map.at(0x6FF8).value = 4;
  ASSERT_EQ(map.page_count(), 1u);
  // [0x6FF0, 0x7010) covers the last two granules of the existing page and
  // the first two of the next page, which was never touched.
  map.reset_range(0x6FF0, 32);
  EXPECT_EQ(map.page_count(), 1u);
  EXPECT_EQ(map.find(0x7000), nullptr);
  EXPECT_EQ(map.find(0x6FF0)->value, 0);
  EXPECT_EQ(map.find(0x6FF8)->value, 0);
}

TEST(ShadowMap, ResetRangeSpansManyPages) {
  ShadowMap<State> map;
  constexpr rt::Addr kPage = rt::Addr{1} << kPageShift;
  constexpr rt::Addr kBase = 0x8000;
  // Pages 0, 2 and 4 of the range exist; 1 and 3 were never touched.
  for (const rt::Addr p : {0, 2, 4}) {
    map.at(kBase + p * kPage).value = 1;
    map.at(kBase + p * kPage + kPage - 8).value = 1;
  }
  map.at(kBase + 5 * kPage).value = 1;
  ASSERT_EQ(map.page_count(), 4u);
  // [kBase + 8, kBase + 5 pages) leaves the first granule and page 5 alone.
  map.reset_range(kBase + 8, 5 * kPage - 8);
  EXPECT_EQ(map.page_count(), 4u);
  EXPECT_EQ(map.find(kBase)->value, 1);
  EXPECT_EQ(map.find(kBase + kPage - 8)->value, 0);
  for (const rt::Addr p : {2, 4}) {
    EXPECT_EQ(map.find(kBase + p * kPage)->value, 0);
    EXPECT_EQ(map.find(kBase + p * kPage + kPage - 8)->value, 0);
  }
  EXPECT_EQ(map.find(kBase + kPage), nullptr);
  EXPECT_EQ(map.find(kBase + 3 * kPage), nullptr);
  EXPECT_EQ(map.find(kBase + 5 * kPage)->value, 1);
}

/// Seeded model check: mixed at / for_range / reset_range ops, each in a
/// window of three pages at one of `bases`, against a granule -> value
/// reference map in which an absent granule reads 0. Only at / for_range
/// may create pages.
void check_against_reference(bool tlb, const std::vector<rt::Addr>& bases,
                             int ops) {
  ShadowMap<State> map;
  map.set_tlb_enabled(tlb);
  std::map<std::uint64_t, int> ref;
  std::set<std::uint64_t> touched_pages;
  const auto page_of = [](std::uint64_t g) {
    return g >> (kPageShift - kGranuleShift);
  };
  support::Xoshiro256 rng(2024);
  // Three pages' worth of addresses so ranges often straddle pages.
  constexpr std::uint64_t kSpan = 3 * (1u << kPageShift);
  for (int op = 1; op <= ops; ++op) {
    const rt::Addr addr = bases[rng.below(bases.size())] + rng.below(kSpan);
    const auto size = static_cast<std::uint32_t>(rng.below(200));
    const std::uint64_t first = granule_of(addr);
    const std::uint64_t last = granule_of(addr + (size == 0 ? 1 : size) - 1);
    switch (rng.below(3)) {
      case 0:
        map.at(addr).value = op;
        ref[first] = op;
        touched_pages.insert(page_of(first));
        break;
      case 1:
        map.for_range(addr, size, [&](State& s) { s.value += op; });
        for (std::uint64_t g = first; g <= last; ++g) {
          ref[g] += op;
          touched_pages.insert(page_of(g));
        }
        break;
      case 2:
        map.reset_range(addr, size);
        for (std::uint64_t g = first; g <= last; ++g) ref.erase(g);
        break;
    }
  }
  for (const rt::Addr base : bases) {
    for (std::uint64_t g = granule_of(base); g <= granule_of(base + kSpan);
         ++g) {
      const State* s = map.find(granule_base(g));
      const auto it = ref.find(g);
      const int expected = it == ref.end() ? 0 : it->second;
      ASSERT_EQ(s == nullptr ? 0 : s->value, expected) << "granule " << g;
    }
  }
  EXPECT_EQ(map.page_count(), touched_pages.size());
}

TEST(ShadowMap, MatchesReferenceModelWithTlb) {
  check_against_reference(true, {0x40000}, 10'000);
}

TEST(ShadowMap, MatchesReferenceModelWithoutTlb) {
  check_against_reference(false, {0x40000}, 10'000);
}

/// Windows scattered so that their page numbers differ only above bit 32,
/// share their low 20 bits, or sit side by side: about 900 pages, which
/// takes the page table through several doublings.
std::vector<rt::Addr> scattered_bases() {
  std::vector<rt::Addr> bases;
  for (rt::Addr i = 1; i <= 100; ++i) {
    bases.push_back(((i << 33) | 0x40) << kPageShift);
    bases.push_back((i << 20) << kPageShift);
    bases.push_back(((rt::Addr{1} << 28) + 4 * i) << kPageShift);
  }
  return bases;
}

TEST(ShadowMap, ScatteredPagesMatchReferenceModelWithTlb) {
  check_against_reference(true, scattered_bases(), 30'000);
}

TEST(ShadowMap, ScatteredPagesMatchReferenceModelWithoutTlb) {
  check_against_reference(false, scattered_bases(), 30'000);
}

}  // namespace
}  // namespace rg::shadow
