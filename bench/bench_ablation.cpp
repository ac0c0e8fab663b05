// Ablation study — what each algorithmic ingredient of the detector buys,
// measured on the full T1..T8 suite. Rows:
//
//   eraser-basic        the §2.3.2 first listing (no states, no segments)
//   + states            Fig. 1 memory-state machine, thread-level ownership
//   + thread segments   the VisualThreads refinement (Fig. 2)
//   + HWLC              corrected hardware bus lock + rwlock API
//   + DR                destructor annotations (the paper's configuration)
//   + message HB        the §5 future-work extension
//
// Each ingredient should monotonically remove warnings; the two the paper
// contributes (HWLC, DR) should account for the 65-81% band (Fig. 6).
#include <cstdio>
#include <numeric>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/testcases.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

void run_suite(rg::core::HelgrindTool& tool, std::uint64_t seed,
               int testcase) {
  using namespace rg;
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  sim.attach(tool);
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

std::size_t total_for(const rg::core::HelgrindConfig& cfg,
                      std::uint64_t seed) {
  // Each test case is an independent Sim with its own tool instance; fan
  // them over a pool and sum (per-case determinism unchanged).
  std::vector<std::size_t> per_case(rg::sipp::kTestCaseCount, 0);
  rg::support::parallel_for_index(
      per_case.size(), 0, [&](std::size_t i) {
        rg::core::HelgrindTool tool(cfg);
        run_suite(tool, seed, static_cast<int>(i) + 1);
        per_case[i] = tool.reports().distinct_locations();
      });
  return std::accumulate(per_case.begin(), per_case.end(), std::size_t{0});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  std::uint64_t seed = 7;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  std::printf("Ablation over T1..T8 (seed %llu)\n\n",
              static_cast<unsigned long long>(seed));

  support::Table table("distinct warning locations, cumulative ingredients");
  table.header({"Detector variant", "total locations", "delta"});

  std::size_t prev = total_for(core::HelgrindConfig::eraser_basic(), seed);
  table.row("eraser-basic (no states)", prev, "-");

  auto add_row = [&](const char* name, const core::HelgrindConfig& cfg) {
    const std::size_t total = total_for(cfg, seed);
    const long long delta =
        static_cast<long long>(total) - static_cast<long long>(prev);
    char delta_text[24];
    std::snprintf(delta_text, sizeof delta_text, "%+lld", delta);
    table.row(name, total, delta_text);
    prev = total;
    return total;
  };

  core::HelgrindConfig states_only = core::HelgrindConfig::original();
  states_only.refinement = core::Refinement::States;
  add_row("+ Fig. 1 states (no segments)", states_only);

  add_row("+ thread segments (= original Helgrind)",
          core::HelgrindConfig::original());
  const std::size_t original = prev;

  add_row("+ HWLC (bus lock as rw-lock)", core::HelgrindConfig::hwlc());
  const std::size_t dr = add_row("+ DR (destructor annotations)",
                                 core::HelgrindConfig::hwlc_dr());
  add_row("+ message-passing HB (§5 extension)",
          core::HelgrindConfig::extended());

  std::printf("%s\n", table.render().c_str());

  const double reduction =
      original == 0 ? 0.0 : 1.0 - static_cast<double>(dr) / original;
  std::printf("The paper's two contributions (HWLC + DR) remove %.0f%% of "
              "the original tool's warnings (paper: 65-81%%).\n",
              reduction * 100.0);
  return 0;
}
