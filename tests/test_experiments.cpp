// E1/E2 — the Fig. 5/6 experiment invariants, per test case.
#include <gtest/gtest.h>

#include <unordered_set>

#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"

namespace rg::sipp {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.seed = 7;
  return cfg;
}

class Fig6PerTestCase : public ::testing::TestWithParam<int> {};

TEST_P(Fig6PerTestCase, ConfigurationsAreStrictlyOrdered) {
  const Fig6Row row = run_fig6_rows({GetParam()}, base_config(), 1).front();
  // The Fig. 6 shape: Original >= HWLC >= HWLC+DR, with real reductions.
  EXPECT_GT(row.original, 0u);
  EXPECT_LE(row.hwlc, row.original);
  EXPECT_LE(row.hwlc_dr, row.hwlc);
  EXPECT_LT(row.hwlc_dr, row.original);
  // "+DR reduces the amount ... by more than a half in all cases" (vs the
  // HWLC column, Fig. 6).
  EXPECT_LE(row.hwlc_dr * 2, row.hwlc + 1);
  // Headline claim: 65%..81% of all warnings removed. Allow a modest
  // tolerance band around the paper's interval for scheduling noise.
  EXPECT_GE(row.reduction(), 0.55) << row.testcase;
  EXPECT_LE(row.reduction(), 0.90) << row.testcase;
  // Fig. 5 stacking: the destructor component dominates the hw-lock one.
  EXPECT_GE(row.destructor_fps, row.hw_lock_fps / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(AllTestCases, Fig6PerTestCase,
                         ::testing::Range(1, kTestCaseCount + 1));

TEST(Experiments, DeterministicForFixedSeed) {
  const Scenario scenario = build_testcase(2, 7);
  ExperimentConfig cfg = base_config();
  const ExperimentResult a = run_scenario(scenario, cfg);
  const ExperimentResult b = run_scenario(scenario, cfg);
  EXPECT_EQ(a.reported_locations, b.reported_locations);
  EXPECT_EQ(a.total_warnings, b.total_warnings);
  EXPECT_EQ(a.location_keys, b.location_keys);
  EXPECT_EQ(a.sim.steps, b.sim.steps);
}

TEST(Experiments, AllRunsComplete) {
  for (int n = 1; n <= kTestCaseCount; ++n) {
    const Scenario scenario = build_testcase(n, 3);
    ExperimentConfig cfg = base_config();
    cfg.seed = 3;
    const ExperimentResult r = run_scenario(scenario, cfg);
    EXPECT_TRUE(r.sim.completed()) << scenario.name;
    EXPECT_GT(r.responses, 0u) << scenario.name;
  }
}

TEST(Experiments, LocationKeysNest) {
  // Warnings removed by an improvement never reappear: the HWLC+DR key
  // set is a subset of HWLC's, which is a subset of Original's... modulo
  // schedule variation, the subset property holds for the same seed.
  const Scenario scenario = build_testcase(4, 11);
  ExperimentConfig cfg = base_config();
  cfg.seed = 11;
  cfg.detector = core::HelgrindConfig::original();
  const auto original = run_scenario(scenario, cfg);
  cfg.detector = core::HelgrindConfig::hwlc();
  const auto hwlc = run_scenario(scenario, cfg);
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  const auto dr = run_scenario(scenario, cfg);
  const std::unordered_set<std::string> orig_keys(
      original.location_keys.begin(), original.location_keys.end());
  const std::unordered_set<std::string> hwlc_keys(hwlc.location_keys.begin(),
                                                  hwlc.location_keys.end());
  std::size_t hwlc_in_orig = 0;
  for (const auto& k : hwlc.location_keys)
    if (orig_keys.contains(k)) ++hwlc_in_orig;
  std::size_t dr_in_hwlc = 0;
  for (const auto& k : dr.location_keys)
    if (hwlc_keys.contains(k)) ++dr_in_hwlc;
  // Same seed, same schedule: near-perfect nesting.
  EXPECT_GE(hwlc_in_orig + 1, hwlc.location_keys.size());
  EXPECT_GE(dr_in_hwlc + 1, dr.location_keys.size());
}

TEST(Experiments, SuppressionsReduceCounts) {
  const Scenario scenario = build_testcase(2, 7);
  ExperimentConfig cfg = base_config();
  const auto unsuppressed = run_scenario(scenario, cfg);
  ASSERT_GT(unsuppressed.reported_locations, 0u);
  // Suppress everything coming through the dispatcher worker.
  cfg.suppressions =
      "{\n  suppress-all-races\n  Helgrind:Race\n  fun:*\n}\n";
  const auto suppressed = run_scenario(scenario, cfg);
  EXPECT_EQ(suppressed.reported_locations, 0u);
  EXPECT_GT(suppressed.suppressed_warnings, 0u);
}

TEST(Experiments, DeadlockToolRunsAlongside) {
  const Scenario scenario = build_testcase(2, 7);
  ExperimentConfig cfg = base_config();
  cfg.deadlock_tool = true;
  const auto r = run_scenario(scenario, cfg);
  EXPECT_TRUE(r.sim.completed());
  // The proxy uses a consistent lock order: no inversions.
  EXPECT_EQ(r.lock_order_reports, 0u);
}

TEST(Experiments, ScenarioSizesAreReasonable) {
  for (int n = 1; n <= kTestCaseCount; ++n) {
    const Scenario s = build_testcase(n, 1);
    EXPECT_EQ(s.name, "T" + std::to_string(n));
    EXPECT_GE(s.total_messages(), 10u) << s.name;
    EXPECT_LE(s.total_messages(), 300u) << s.name;
    EXPECT_NE(testcase_description(n), std::string("?"));
  }
}

TEST(Experiments, IntensityScalesMessageCount) {
  const Scenario small = build_testcase(5, 1, 1);
  const Scenario big = build_testcase(5, 1, 3);
  EXPECT_GT(big.total_messages(), small.total_messages());
}

TEST(Experiments, ThreadPoolModeAlsoCompletes) {
  const Scenario scenario = build_testcase(2, 7);
  ExperimentConfig cfg = base_config();
  cfg.mode = DispatchMode::ThreadPool;
  const auto r = run_scenario(scenario, cfg);
  EXPECT_TRUE(r.sim.completed());
  EXPECT_GT(r.responses, 0u);
}

}  // namespace
}  // namespace rg::sipp
