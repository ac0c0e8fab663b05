// E4 — regenerates the Figs. 10/11 comparison: the same request mix under
// thread-per-request dispatch (ownership passes via create/join: silent)
// and thread-pool dispatch (ownership passes via queue put/get that the
// baseline algorithm cannot see: false positives), plus the §5 future-work
// extension that derives happens-before edges from the hand-offs.
#include <cstdio>

#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rg;
  std::uint64_t seed = 17;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  std::printf("Figs. 10/11 — transition of ownership (seed %llu)\n",
              static_cast<unsigned long long>(seed));
  std::printf("Workload: T2 dialogs against a fault-free proxy, so every "
              "warning is dispatch-pattern noise.\n\n");

  auto run = [&](sipp::DispatchMode mode, const core::HelgrindConfig& det) {
    sipp::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.mode = mode;
    cfg.detector = det;
    cfg.faults = sip::FaultConfig::none();
    const auto scenario = sipp::build_testcase(2, seed);
    return sipp::run_scenario(scenario, cfg).reported_locations;
  };

  const std::size_t per_request_base =
      run(sipp::DispatchMode::ThreadPerRequest, core::HelgrindConfig::hwlc_dr());
  const std::size_t pool_base =
      run(sipp::DispatchMode::ThreadPool, core::HelgrindConfig::hwlc_dr());
  const std::size_t per_request_ext = run(sipp::DispatchMode::ThreadPerRequest,
                                          core::HelgrindConfig::extended());
  const std::size_t pool_ext =
      run(sipp::DispatchMode::ThreadPool, core::HelgrindConfig::extended());

  support::Table table("ownership-transfer false positives");
  table.header({"Dispatch pattern", "HWLC+DR (baseline)",
                "+hb_message_passing (ext)"});
  table.row("thread-per-request (Fig. 10)", per_request_base, per_request_ext);
  table.row("thread-pool (Fig. 11)", pool_base, pool_ext);
  std::printf("%s\n", table.render().c_str());

  const bool shape = per_request_base == 0 && pool_base > 0 && pool_ext == 0;
  std::printf(
      "Reproduction: thread-per-request silent [%s], thread-pool flagged "
      "by the baseline [%s], extension removes the pool FPs [%s] -> %s\n",
      per_request_base == 0 ? "yes" : "NO", pool_base > 0 ? "yes" : "NO",
      pool_ext == 0 ? "yes" : "NO",
      shape ? "MATCHES the paper" : "DIVERGES");

  return shape ? 0 : 1;
}
