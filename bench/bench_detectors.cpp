// E9 — the §2.2 detector comparison, made concrete.
//
// Runs the T1..T8 suite under every detection algorithm discussed in the
// paper: the unrefined Eraser lockset, the three Helgrind configurations,
// the DJIT happens-before baseline, and the hybrid combination
// (Multi-Race / O'Callahan-Choi style). Reports distinct warning locations
// per detector: lockset over-approximates, happens-before under-
// approximates relative to it, the hybrid classifies. HWLC+DR and DJIT
// share one run per test case, and the hybrid merges their reports.
#include <cstdio>

#include "core/djit.hpp"
#include "core/helgrind.hpp"
#include "core/hybrid.hpp"
#include "rt/sim.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/testcases.hpp"
#include "support/table.hpp"

namespace {

/// Runs a scenario with the given tools attached to one Sim; callers read
/// each tool's own reports.
template <typename... Tools>
void run_tools(int testcase, std::uint64_t seed, Tools&... tools) {
  using namespace rg;
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  (sim.attach(tools), ...);
  sim.run([&] {
    sip::ProxyConfig pcfg;
    pcfg.faults = sip::FaultConfig::paper();
    sip::Proxy proxy(pcfg);
    proxy.start();
    sip::ThreadPerRequestDispatcher dispatcher(8);
    const sipp::Scenario scenario = sipp::build_testcase(testcase, seed);
    for (const auto& phase : scenario.phases)
      (void)dispatcher.dispatch(proxy, phase);
    proxy.shutdown();
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  std::uint64_t seed = 7;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  std::printf("§2.2 — detection algorithms compared (seed %llu)\n\n",
              static_cast<unsigned long long>(seed));

  support::Table table("distinct warning locations per detector");
  table.header({"Test case", "Eraser basic", "Helgrind orig", "HWLC+DR",
                "DJIT", "hybrid conf", "hybrid poss"});

  std::size_t total_eraser = 0, total_orig = 0, total_dr = 0, total_djit = 0;
  bool merge_complete = true;
  for (int n = 1; n <= sipp::kTestCaseCount; ++n) {
    core::HelgrindTool eraser(core::HelgrindConfig::eraser_basic());
    run_tools(n, seed, eraser);
    core::HelgrindTool original(core::HelgrindConfig::original());
    run_tools(n, seed, original);
    core::HelgrindTool dr(core::HelgrindConfig::hwlc_dr());
    core::DjitTool djit;
    run_tools(n, seed, dr, djit);
    const core::HybridReport hybrid =
        core::merge_hybrid(dr.reports(), djit.reports());
    // Every HWLC+DR location gets exactly one lockset verdict.
    merge_complete = merge_complete &&
                     hybrid.confirmed + hybrid.possible ==
                         dr.reports().distinct_locations();

    table.row("T" + std::to_string(n),
              eraser.reports().distinct_locations(),
              original.reports().distinct_locations(),
              dr.reports().distinct_locations(),
              djit.reports().distinct_locations(), hybrid.confirmed,
              hybrid.possible);
    total_eraser += eraser.reports().distinct_locations();
    total_orig += original.reports().distinct_locations();
    total_dr += dr.reports().distinct_locations();
    total_djit += djit.reports().distinct_locations();
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Expected shape (\"DJIT ... detects data races on a subset of "
              "shared locations that are reported by the lock-set "
              "approach\"):\n");
  std::printf("  Eraser basic (%zu) >= Helgrind original (%zu) >= "
              "HWLC+DR (%zu); DJIT (%zu) reports only apparent races.\n",
              total_eraser, total_orig, total_dr, total_djit);
  const bool shape = total_eraser >= total_orig && total_orig >= total_dr;
  std::printf("-> %s\n", shape ? "MATCHES the paper" : "DIVERGES");

  if (!merge_complete)
    std::fprintf(stderr, "hybrid merge lost HWLC+DR locations\n");
  return shape && merge_complete ? 0 : 1;
}
