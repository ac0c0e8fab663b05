// Hot-path equivalence regression: the scheduler's O(1) preemption point
// and the parallel experiment harness are pure mechanism — neither may
// change a single scheduling decision or reported warning. This suite runs
// the real proxy workload (T1, T3 and the §4.5 mixed workload T5) with the
// fast path on vs off (the reference mode rescans at every step and checks
// the runnable count) and demands identical results, and checks the pooled
// Fig. 6 harness against the serial one row by row. (The shadow-page TLB is
// proven inert at unit level by the ShadowMap reference-model tests.)
#include <gtest/gtest.h>

#include <vector>

#include "core/helgrind.hpp"
#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"

namespace rg {
namespace {

sipp::ExperimentConfig cached_config(std::uint64_t seed, bool optimized) {
  sipp::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  cfg.sched_fast_path = optimized;
  return cfg;
}

class HotpathEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotpathEquivalence, CachedDetectorMatchesUncached) {
  const std::uint64_t seed = GetParam();
  for (int testcase : {1, 3, 5}) {
    const sipp::Scenario scenario = sipp::build_testcase(testcase, seed);
    const sipp::ExperimentResult fast =
        sipp::run_scenario(scenario, cached_config(seed, true));
    const sipp::ExperimentResult slow =
        sipp::run_scenario(scenario, cached_config(seed, false));

    // Identical schedule...
    EXPECT_EQ(fast.sim.steps, slow.sim.steps) << scenario.name;
    EXPECT_EQ(fast.sim.virtual_time, slow.sim.virtual_time) << scenario.name;
    EXPECT_EQ(fast.responses, slow.responses) << scenario.name;
    // ...and an identical report multiset (location_keys preserves order
    // and multiplicity, so vector equality compares the full multiset).
    EXPECT_EQ(fast.reported_locations, slow.reported_locations)
        << scenario.name;
    EXPECT_EQ(fast.total_warnings, slow.total_warnings) << scenario.name;
    EXPECT_EQ(fast.location_keys, slow.location_keys) << scenario.name;
    // (report_text embeds raw addresses, which move run to run; the
    // suppression blocks are the address-free rendition of the stacks.)
    EXPECT_EQ(fast.generated_suppressions, slow.generated_suppressions)
        << scenario.name;
    // The shadow-page gauge reaches the experiment result. (Its value
    // follows the real heap layout, so the two runs need not agree.)
    EXPECT_GT(fast.tool_stats.shadow_pages, 0u) << scenario.name;
    EXPECT_GT(slow.tool_stats.shadow_pages, 0u) << scenario.name;

    // The optimized run actually exercised its fast path.
    EXPECT_GT(fast.sim.fast_path_steps, 0u) << scenario.name;
    EXPECT_GT(fast.tool_stats.shadow_tlb_hits, 0u) << scenario.name;
    EXPECT_EQ(slow.sim.fast_path_steps, 0u) << scenario.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotpathEquivalence,
                         ::testing::Values(3, 7, 11, 23));

TEST(HotpathEquivalence, ParallelFig6MatchesSerial) {
  // The Fig. 6 counts of the paper's table must not depend on whether the
  // (test case x config) cells ran serially or on an OS-thread pool.
  sipp::ExperimentConfig base;
  base.seed = 7;  // the seed the committed Fig. 5/6 baselines use
  const std::vector<int> cases{1, 2, 3};

  const std::vector<sipp::Fig6Row> serial =
      sipp::run_fig6_rows(cases, base, 1);
  const std::vector<sipp::Fig6Row> pooled =
      sipp::run_fig6_rows(cases, base, 4);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].testcase, pooled[i].testcase);
    EXPECT_EQ(serial[i].original, pooled[i].original);
    EXPECT_EQ(serial[i].hwlc, pooled[i].hwlc);
    EXPECT_EQ(serial[i].hwlc_dr, pooled[i].hwlc_dr);
    EXPECT_EQ(serial[i].hw_lock_fps, pooled[i].hw_lock_fps);
    EXPECT_EQ(serial[i].destructor_fps, pooled[i].destructor_fps);
    EXPECT_EQ(serial[i].remaining, pooled[i].remaining);
  }
}

}  // namespace
}  // namespace rg
