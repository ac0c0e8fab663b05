// E11 — hot-path overhaul: what each per-event optimization buys, and proof
// that none of them changes what the detector reports.
//
// Three comparisons on the T5 mixed scenario (the §4.5 workload):
//   scheduler fast path   on/off   (no-switch budget, fiber scheduler)
//   shadow TLB            on/off   (last-page lookup cache)
//   Fig. 6 harness        serial vs OS-thread pool (3 cells per case)
// Every on/off pair asserts identical warning locations, location keys and
// scheduler steps; the parallel harness asserts rows equal to the serial
// sweep. Exit status 1 if any equivalence check fails.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"
#include "support/bench_json.hpp"
#include "support/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_scenario(const rg::sipp::Scenario& scenario,
                     const rg::sipp::ExperimentConfig& cfg, int rounds,
                     rg::sipp::ExperimentResult& out) {
  double best = 1e300;
  for (int i = 0; i < rounds; ++i) {
    const auto start = Clock::now();
    out = rg::sipp::run_scenario(scenario, cfg);
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

bool same_reports(const rg::sipp::ExperimentResult& a,
                  const rg::sipp::ExperimentResult& b) {
  return a.reported_locations == b.reported_locations &&
         a.location_keys == b.location_keys && a.sim.steps == b.sim.steps &&
         a.total_warnings == b.total_warnings;
}

bool same_rows(const std::vector<rg::sipp::Fig6Row>& a,
               const std::vector<rg::sipp::Fig6Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].testcase != b[i].testcase || a[i].original != b[i].original ||
        a[i].hwlc != b[i].hwlc || a[i].hwlc_dr != b[i].hwlc_dr ||
        a[i].hw_lock_fps != b[i].hw_lock_fps ||
        a[i].destructor_fps != b[i].destructor_fps)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  bool smoke = false;
  std::uint64_t seed = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      seed = std::strtoull(argv[i], nullptr, 10);
  }
  const int rounds = smoke ? 1 : 3;

  std::printf("Hot-path overhaul — per-event optimizations (seed %llu%s)\n\n",
              static_cast<unsigned long long>(seed), smoke ? ", smoke" : "");

  sipp::ExperimentConfig base;
  base.seed = seed;
  base.detector = core::HelgrindConfig::hwlc_dr();
  const sipp::Scenario scenario = sipp::build_testcase(5, seed);

  support::BenchJson json("hotpath");
  json.config(seed, static_cast<std::uint64_t>(rounds), scenario.name);
  json.add("seed", seed);
  json.add("smoke", smoke ? "true" : "false");
  json.add("workload", scenario.name);

  support::Table table("time per T5 run [s], optimization on vs off");
  table.header({"Optimization", "off", "on", "speedup", "identical"});
  bool all_equal = true;

  auto compare = [&](const char* name, const char* key,
                     sipp::ExperimentConfig off, sipp::ExperimentConfig on,
                     sipp::ExperimentResult& on_result) {
    sipp::ExperimentResult off_r;
    const double t_off = time_scenario(scenario, off, rounds, off_r);
    const double t_on = time_scenario(scenario, on, rounds, on_result);
    const bool equal = same_reports(off_r, on_result);
    all_equal = all_equal && equal;
    char off_s[32], on_s[32], speed[32];
    std::snprintf(off_s, sizeof off_s, "%.4f", t_off);
    std::snprintf(on_s, sizeof on_s, "%.4f", t_on);
    std::snprintf(speed, sizeof speed, "%.2fx", t_off / t_on);
    table.row(name, off_s, on_s, speed, equal ? "yes" : "NO");
    json.add(std::string(key) + "_off_s", t_off);
    json.add(std::string(key) + "_on_s", t_on);
  };

  // Scheduler no-switch fast path.
  sipp::ExperimentConfig cfg_off = base, cfg_on = base;
  cfg_off.sched_fast_path = false;
  sipp::ExperimentResult fast_r;
  compare("sched fast path", "sched_fast_path", cfg_off, cfg_on, fast_r);

  // Shadow-map last-page TLB.
  cfg_off = base;
  cfg_off.detector.shadow_tlb = false;
  sipp::ExperimentResult tlb_r;
  compare("shadow TLB", "shadow_tlb", cfg_off, base, tlb_r);

  std::printf("%s\n", table.render().c_str());

  const rt::ToolStats stats = tlb_r.tool_stats;
  std::printf(
      "counters (optimizations on):\n"
      "  sched fast-path steps   %llu / %llu (%.0f%%)\n"
      "  shadow TLB hit/miss     %llu / %llu\n\n",
      static_cast<unsigned long long>(fast_r.sim.fast_path_steps),
      static_cast<unsigned long long>(fast_r.sim.steps),
      fast_r.sim.steps == 0 ? 0.0
                            : 100.0 *
                                  static_cast<double>(
                                      fast_r.sim.fast_path_steps) /
                                  static_cast<double>(fast_r.sim.steps),
      static_cast<unsigned long long>(stats.shadow_tlb_hits),
      static_cast<unsigned long long>(stats.shadow_tlb_misses));
  json.add("sched_fast_path_steps", fast_r.sim.fast_path_steps);
  json.add("sched_steps", fast_r.sim.steps);
  json.add("shadow_tlb_hits", stats.shadow_tlb_hits);
  json.add("shadow_tlb_misses", stats.shadow_tlb_misses);

  // Parallel experiment harness: same rows, less wall clock.
  std::vector<int> cases;
  for (int n = 1; n <= (smoke ? 2 : sipp::kTestCaseCount); ++n)
    cases.push_back(n);
  sipp::ExperimentConfig fig6 = base;
  fig6.seed = 7;  // the seed the Fig. 6 baselines use
  fig6.detector = core::HelgrindConfig::original();

  auto t0 = Clock::now();
  const auto serial = sipp::run_fig6_rows(cases, fig6, 1);
  const double t_serial =
      std::chrono::duration<double>(Clock::now() - t0).count();
  t0 = Clock::now();
  const auto parallel = sipp::run_fig6_rows(cases, fig6, 0);
  const double t_parallel =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const bool rows_equal = same_rows(serial, parallel);
  all_equal = all_equal && rows_equal;

  std::printf(
      "Fig. 6 harness, T1..T%zu x 3 cells: serial %.3fs, pool %.3fs "
      "(%.2fx), rows identical: %s\n",
      cases.size(), t_serial, t_parallel, t_serial / t_parallel,
      rows_equal ? "yes" : "NO");
  json.add("fig6_cases", cases.size());
  json.add("fig6_serial_s", t_serial);
  json.add("fig6_parallel_s", t_parallel);
  json.add("equivalent", all_equal ? "true" : "false");
  json.write();

  if (!all_equal) {
    std::printf("\nEQUIVALENCE VIOLATION: an optimization changed the "
                "reported warnings.\n");
    return 1;
  }
  return 0;
}
