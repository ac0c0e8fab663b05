// E7/E8 — every §4.1 true-positive class is detected exactly when its
// fault is seeded, and the detector goes quiet when it is fixed.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"
#include "sip/proxy.hpp"
#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"

namespace rg::sip {
namespace {

struct FaultRunResult {
  std::size_t locations = 0;
  std::vector<core::Report> reports;
  std::string log;
};

/// Runs a small mixed workload against the proxy with the given faults and
/// returns the HWLC+DR report (so false-positive classes are already
/// silenced and what remains is the fault catalogue).
FaultRunResult run_with_faults(const FaultConfig& faults,
                               std::string* log = nullptr,
                               std::uint64_t seed = 21) {
  core::HelgrindTool tool(core::HelgrindConfig::hwlc_dr());
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  sim.attach(tool);
  sim.run([&] {
    ProxyConfig pcfg;
    pcfg.faults = faults;
    Proxy proxy(pcfg);
    proxy.start();
    sipp::MessageFactory mf;
    std::vector<rt::thread> workers;
    for (int i = 0; i < 6; ++i)
      workers.emplace_back([&proxy, &mf, i] {
        const std::string u = "user" + std::to_string(i);
        proxy.handle_wire(mf.register_request(u, "r" + u, 1));
        proxy.handle_wire(mf.invite("c" + u, u, "call" + u, 1));
        proxy.handle_wire(mf.ack("c" + u, u, "call" + u, 1));
        proxy.handle_wire(mf.bye("c" + u, u, "call" + u, 2));
      });
    for (auto& w : workers) w.join();
    rt::sleep_ticks(500);  // let the reaper/watchdog run
    proxy.shutdown();
  });
  FaultRunResult out;
  out.locations = tool.reports().distinct_locations();
  out.reports = tool.reports().reports();
  out.log = tool.reports().render();
  if (log != nullptr) *log = out.log;
  return out;
}

bool any_report_mentions(const FaultRunResult& result,
                         const std::string& needle) {
  for (const core::Report& r : result.reports) {
    for (support::SiteId frame : r.stack) {
      const auto site = support::global_sites().get(frame);
      if (std::string(support::symbol_text(site.function)).find(needle) !=
              std::string::npos ||
          std::string(support::symbol_text(site.file)).find(needle) !=
              std::string::npos)
        return true;
    }
  }
  return false;
}

TEST(TruePositives, CleanBuildIsQuiet) {
  const auto tool = run_with_faults(FaultConfig::none());
  EXPECT_EQ(tool.locations, 0u);
}

TEST(TruePositives, Fig7DomainMapRaceDetected) {
  FaultConfig faults = FaultConfig::none();
  faults.unprotected_domain_map = true;
  const auto tool = run_with_faults(faults);
  EXPECT_GE(tool.locations, 1u);
  EXPECT_TRUE(any_report_mentions(tool, "domain_data"));
}

TEST(TruePositives, UnsafeTimeFunctionDetected) {
  FaultConfig faults = FaultConfig::none();
  faults.unsafe_time_function = true;
  const auto tool = run_with_faults(faults);
  EXPECT_GE(tool.locations, 1u);
}

TEST(TruePositives, BenignStatsRacesDetected) {
  FaultConfig faults = FaultConfig::none();
  faults.benign_stats_races = true;
  const auto tool = run_with_faults(faults);
  EXPECT_GE(tool.locations, 1u);
  EXPECT_TRUE(any_report_mentions(tool, "stats"));
}

TEST(TruePositives, RacyDeadlockMonitorDetected) {
  // "One of the first reported data races was in the application's
  // deadlock detection code."
  FaultConfig faults = FaultConfig::none();
  faults.racy_deadlock_monitor = true;
  const auto tool = run_with_faults(faults);
  EXPECT_GE(tool.locations, 1u);
  EXPECT_TRUE(any_report_mentions(tool, "deadlock_monitor"));
}

TEST(TruePositives, ShutdownOrderRaceDetected) {
  FaultConfig faults = FaultConfig::none();
  faults.shutdown_order_race = true;
  const auto tool = run_with_faults(faults);
  EXPECT_GE(tool.locations, 1u);
}

TEST(TruePositives, InitOrderRaceIsScheduleDependent) {
  // §4.1.1: "This error was not directly found by the tool, but occurred
  // due to the different schedule" — across seeds it shows up sometimes.
  FaultConfig faults = FaultConfig::none();
  faults.init_order_race = true;
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto tool = run_with_faults(faults, nullptr, seed);
    if (tool.locations > 0) ++found;
  }
  // The race exists; some schedules expose it, none invents other races.
  EXPECT_GE(found, 1u);
  EXPECT_LE(found, 8u);
}

TEST(TruePositives, ThirdPartyDeletesRemainAsResidualFps) {
  // "Parts of the program where the source code is not available will not
  // benefit from this annotation."
  FaultConfig faults = FaultConfig::none();
  faults.third_party_unannotated_deletes = true;
  core::HelgrindTool tool(core::HelgrindConfig::hwlc_dr());
  rt::SimConfig cfg;
  cfg.sched.seed = 3;
  rt::Sim sim(cfg);
  sim.attach(tool);
  sim.run([&] {
    ProxyConfig pcfg;
    pcfg.faults = faults;
    Proxy proxy(pcfg);
    proxy.start();
    sipp::MessageFactory mf;
    std::vector<rt::thread> workers;
    for (int i = 0; i < 4; ++i)
      workers.emplace_back([&proxy, &mf, i] {
        proxy.handle_wire(mf.options("u" + std::to_string(i),
                                     "o" + std::to_string(i), 1));
      });
    for (auto& w : workers) w.join();
    proxy.shutdown();
  });
  FaultRunResult result;
  result.locations = tool.reports().distinct_locations();
  result.reports = tool.reports().reports();
  EXPECT_GE(result.locations, 1u);
  EXPECT_TRUE(any_report_mentions(result, "OptionsHandler"));
}

TEST(TruePositives, PoolReuseFpAppearsAndForceNewFixesIt) {
  // The §4 libstdc++ allocation-strategy issue and its environment-
  // variable fix.
  auto run_pool = [&](bool reuse) {
    FaultConfig faults = FaultConfig::none();
    faults.pooled_allocator_reuse = reuse;
    faults.benign_stats_races = false;
    sipp::ExperimentConfig cfg;
    cfg.seed = 9;
    cfg.faults = faults;
    cfg.detector = core::HelgrindConfig::hwlc_dr();
    const auto scenario = sipp::build_testcase(5, cfg.seed);
    return sipp::run_scenario(scenario, cfg).reported_locations;
  };
  const std::size_t with_reuse = run_pool(true);
  const std::size_t with_force_new = run_pool(false);
  EXPECT_GT(with_reuse, with_force_new);
  EXPECT_EQ(with_force_new, 0u);
}

TEST(TruePositives, FixingFaultsRemovesTheirWarnings) {
  // "It is generally a good idea to rerun the test suite after fixing a
  // problem. Then, all warnings related to the corrected defect will
  // disappear."
  const auto before = run_with_faults(FaultConfig::paper());
  FaultConfig partially_fixed = FaultConfig::paper();
  partially_fixed.unsafe_time_function = false;
  partially_fixed.benign_stats_races = false;
  const auto after = run_with_faults(partially_fixed);
  EXPECT_LT(after.locations, before.locations);
}

}  // namespace
}  // namespace rg::sip
