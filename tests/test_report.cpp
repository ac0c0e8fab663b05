// ReportManager: location deduplication, suppressions, rendering.
#include <gtest/gtest.h>

#include "core/report.hpp"

namespace rg::core {
namespace {

Report make_report(const std::string& top_fn, std::uint32_t line,
                   std::vector<std::string> frames = {},
                   Report::Kind kind = Report::Kind::DataRace) {
  Report r;
  r.kind = kind;
  r.access.site = support::site_id(top_fn, "file.cpp", line);
  r.stack.push_back(r.access.site);
  std::uint32_t frame_line = 100;
  for (const std::string& fn : frames)
    r.stack.push_back(support::site_id(fn, "file.cpp", frame_line++));
  return r;
}

TEST(ReportManager, CountsDistinctLocations) {
  ReportManager mgr;
  EXPECT_TRUE(mgr.add(make_report("f", 1)));
  EXPECT_TRUE(mgr.add(make_report("g", 2)));
  EXPECT_FALSE(mgr.add(make_report("f", 1)));  // duplicate location
  EXPECT_EQ(mgr.distinct_locations(), 2u);
  EXPECT_EQ(mgr.total_warnings(), 3u);
}

TEST(ReportManager, OccurrencesAccumulate) {
  ReportManager mgr;
  mgr.add(make_report("f", 1));
  mgr.add(make_report("f", 1));
  mgr.add(make_report("f", 1));
  ASSERT_EQ(mgr.reports().size(), 1u);
  EXPECT_EQ(mgr.reports()[0].occurrences, 3u);
}

TEST(ReportManager, LocationKeyUsesTopFrames) {
  // Same access site but different calling context = different location.
  Report a = make_report("access", 1, {"caller1"});
  Report b = make_report("access", 1, {"caller2"});
  EXPECT_NE(a.location_key(), b.location_key());
}

TEST(ReportManager, LocationKeyIgnoresDeepFrames) {
  // Only the top 3 frames matter (Helgrind-style dedup).
  Report a = make_report("access", 1, {"c1", "c2", "deep1"});
  Report b = make_report("access", 1, {"c1", "c2", "deep2"});
  EXPECT_EQ(a.location_key(), b.location_key());
}

TEST(ReportManager, OriginDistinguishesLocations) {
  Report a = make_report("access", 1);
  Report b = make_report("access", 1);
  b.origin.known = true;
  b.origin.alloc.site = support::site_id("maker", "alloc.cpp", 9);
  EXPECT_NE(a.location_key(), b.location_key());
}

TEST(ReportManager, KindInKey) {
  Report a = make_report("f", 1);
  Report b = make_report("f", 1, {}, Report::Kind::LockOrderInversion);
  EXPECT_NE(a.location_key(), b.location_key());
}

// --- suppressions ------------------------------------------------------------------

constexpr const char* kSuppressionFile = R"(
# libstdc++ string reference counting (the Fig. 9 warning)
{
  cow-string-refcount
  Helgrind:Race
  fun:*_M_grab*
  fun:*basic_string*
}
{
  third-party-codec
  Helgrind:Race
  fun:codec_*
  ...
  fun:main
}
)";

TEST(Suppressions, ParseFile) {
  const auto sups = parse_suppressions(kSuppressionFile);
  ASSERT_EQ(sups.size(), 2u);
  EXPECT_EQ(sups[0].name, "cow-string-refcount");
  EXPECT_EQ(sups[0].kind_pattern, "Helgrind:Race");
  ASSERT_EQ(sups[0].frame_patterns.size(), 2u);
  EXPECT_EQ(sups[0].frame_patterns[0], "*_M_grab*");
  EXPECT_EQ(sups[1].frame_patterns[1], "...");
}

TEST(Suppressions, EmptyAndMalformedBlocksIgnored) {
  EXPECT_TRUE(parse_suppressions("").empty());
  EXPECT_TRUE(parse_suppressions("{\n}\n").empty());
  EXPECT_TRUE(parse_suppressions("stray text\n").empty());
}

TEST(Suppressions, MatchingReportIsSuppressed) {
  ReportManager mgr("Helgrind");
  mgr.load_suppressions(kSuppressionFile);
  Report r = make_report("std::string::_M_grab(alloc)", 1,
                         {"std::basic_string::basic_string(...)"});
  EXPECT_FALSE(mgr.add(r));
  EXPECT_EQ(mgr.distinct_locations(), 0u);
  EXPECT_EQ(mgr.suppressed_warnings(), 1u);
}

TEST(Suppressions, NonMatchingReportSurvives) {
  ReportManager mgr("Helgrind");
  mgr.load_suppressions(kSuppressionFile);
  EXPECT_TRUE(mgr.add(make_report("unrelated_function", 5)));
  EXPECT_EQ(mgr.distinct_locations(), 1u);
}

TEST(Suppressions, EllipsisSkipsFrames) {
  ReportManager mgr("Helgrind");
  mgr.load_suppressions(kSuppressionFile);
  Report r = make_report("codec_decode", 1,
                         {"depth1", "depth2", "depth3", "main"});
  EXPECT_FALSE(mgr.add(r));
  EXPECT_EQ(mgr.suppressed_warnings(), 1u);
}

TEST(Suppressions, KindMustMatch) {
  ReportManager mgr("Helgrind");
  mgr.load_suppressions(kSuppressionFile);
  Report r = make_report("std::string::_M_grab(x)", 1,
                         {"std::basic_string::copy"},
                         Report::Kind::LockOrderInversion);
  EXPECT_TRUE(mgr.add(r));  // suppression is for Race, not LockOrder
}

TEST(Suppressions, ToolNamePrefix) {
  ReportManager other_tool("Eraser");
  other_tool.load_suppressions(kSuppressionFile);  // Helgrind:* patterns
  Report r = make_report("std::string::_M_grab(x)", 1,
                         {"std::basic_string::copy"});
  EXPECT_TRUE(other_tool.add(r));  // different tool name: no match
}

// --- report cap (warning-storm hardening) ------------------------------------------

TEST(ReportCap, NewLocationsBeyondCapAreCounted) {
  ReportManager mgr;
  mgr.set_report_cap(2);
  EXPECT_TRUE(mgr.add(make_report("a", 1)));
  EXPECT_TRUE(mgr.add(make_report("b", 2)));
  EXPECT_FALSE(mgr.add(make_report("c", 3)));  // over cap: dropped
  EXPECT_FALSE(mgr.add(make_report("d", 4)));
  EXPECT_EQ(mgr.distinct_locations(), 2u);
  EXPECT_EQ(mgr.overflow_reports(), 2u);
  EXPECT_EQ(mgr.total_warnings(), 4u);  // warnings still counted
}

TEST(ReportCap, DuplicatesStillFoldAtCap) {
  // A repeat of an already-stored location folds into it even when the
  // table is full — only *new* locations overflow.
  ReportManager mgr;
  mgr.set_report_cap(1);
  EXPECT_TRUE(mgr.add(make_report("a", 1)));
  EXPECT_FALSE(mgr.add(make_report("a", 1)));  // dedup fold, not overflow
  EXPECT_EQ(mgr.overflow_reports(), 0u);
  ASSERT_EQ(mgr.reports().size(), 1u);
  EXPECT_EQ(mgr.reports()[0].occurrences, 2u);
}

TEST(ReportCap, ZeroCapMeansUnlimited) {
  ReportManager mgr;
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(mgr.add(make_report("f", i + 1)));
  EXPECT_EQ(mgr.distinct_locations(), 50u);
  EXPECT_EQ(mgr.overflow_reports(), 0u);
}

TEST(ReportCap, RenderSummarisesSuppressedTail) {
  ReportManager mgr;
  mgr.set_report_cap(1);
  mgr.add(make_report("kept", 1));
  mgr.add(make_report("dropped1", 2));
  mgr.add(make_report("dropped2", 3));
  const std::string text = mgr.render();
  EXPECT_NE(text.find("kept"), std::string::npos);
  EXPECT_EQ(text.find("dropped1"), std::string::npos);
  EXPECT_NE(text.find("2 further reports suppressed"), std::string::npos);
  EXPECT_NE(text.find("report cap of 1"), std::string::npos);
}

TEST(ReportCap, NoTailLineWithoutOverflow) {
  ReportManager mgr;
  mgr.set_report_cap(5);
  mgr.add(make_report("a", 1));
  EXPECT_EQ(mgr.render().find("further reports suppressed"),
            std::string::npos);
}

// --- rendering ----------------------------------------------------------------------

TEST(Rendering, IncludesFramesAndCounts) {
  ReportManager mgr;
  Report r = make_report("race_site", 7, {"caller_frame"});
  mgr.add(r);
  mgr.add(r);
  const std::string text = mgr.render();
  EXPECT_NE(text.find("race_site"), std::string::npos);
  EXPECT_NE(text.find("caller_frame"), std::string::npos);
  EXPECT_NE(text.find("2 occurrences"), std::string::npos);
}

TEST(Rendering, GeneratedSuppressionsRoundTrip) {
  // --gen-suppressions: feeding the generated file back suppresses every
  // location that produced it.
  ReportManager first("Helgrind");
  first.add(make_report("noisy_site_a", 1, {"caller_a"}));
  first.add(make_report("noisy_site_b", 2, {"caller_b"}));
  const std::string generated = first.generate_suppressions();
  EXPECT_NE(generated.find("Helgrind:Race"), std::string::npos);
  EXPECT_NE(generated.find("fun:noisy_site_a"), std::string::npos);

  ReportManager second("Helgrind");
  second.load_suppressions(generated);
  EXPECT_FALSE(second.add(make_report("noisy_site_a", 1, {"caller_a"})));
  EXPECT_FALSE(second.add(make_report("noisy_site_b", 2, {"caller_b"})));
  EXPECT_TRUE(second.add(make_report("fresh_site", 3, {"caller_c"})));
  EXPECT_EQ(second.suppressed_warnings(), 2u);
  EXPECT_EQ(second.distinct_locations(), 1u);
}

TEST(Rendering, LockOrderReport) {
  ReportManager mgr;
  Report r = make_report("locker", 3, {}, Report::Kind::LockOrderInversion);
  r.extra = "thread 1 acquires 'b' while holding 'a'";
  mgr.add(r);
  const std::string text = mgr.render();
  EXPECT_NE(text.find("lock order inversion"), std::string::npos);
  EXPECT_NE(text.find("while holding"), std::string::npos);
}

}  // namespace
}  // namespace rg::core
