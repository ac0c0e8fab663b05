// E15 — lock-order prediction overhead.
//
// The lock-graph tool's contract is "always-on prediction is affordable":
// per-acquisition history capture, guard tracking and online cycle
// adjudication must price in under the classic detector noise floor. This
// bench compares the E6/T5 mixed workload (hwlc+dr):
//
//   baseline        lock-graph tool off
//   lockgraph       lock-graph tool on (acquisition histories + refinements)
//   +hazard         lockgraph on a run with a seeded registrar-vs-upstream
//                   inversion (informational: prices the reporting path,
//                   the workload itself differs from baseline)
//
// and fails (exit 1) if the lockgraph run is more than 5% slower than the
// tool-off baseline, if attaching the tool changed the data-race warnings
// or the response stream, or if same-seed prediction runs disagree on the
// predicted cycles. Timing is the process CPU time of each run, interleaved
// round by round; the overhead is the median over rounds of the tool-on /
// tool-off ratio, so a spell of host noise moves both sides of a ratio.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sipp/experiment.hpp"
#include "sipp/hazards.hpp"
#include "sipp/testcases.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

double run_once(const rg::sipp::Scenario& scenario,
                const rg::sipp::ExperimentConfig& cfg,
                rg::sipp::ExperimentResult& out) {
  const double start = rg::support::process_cpu_seconds();
  out = rg::sipp::run_scenario(scenario, cfg);
  return rg::support::process_cpu_seconds() - start;
}

bool same_run(const rg::sipp::ExperimentResult& a,
              const rg::sipp::ExperimentResult& b) {
  return a.reported_locations == b.reported_locations &&
         a.location_keys == b.location_keys && a.sim.steps == b.sim.steps &&
         a.total_warnings == b.total_warnings && a.responses == b.responses;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  bool smoke = false;
  std::uint64_t seed = 11;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      seed = std::strtoull(argv[i], nullptr, 10);
  }
  const int rounds = smoke ? 80 : 120;

  sipp::ExperimentConfig base;
  base.seed = seed;
  base.detector = core::HelgrindConfig::hwlc_dr();
  const sipp::Scenario scenario = sipp::build_testcase(5, seed);

  sipp::ExperimentConfig tool = base;
  tool.deadlock_tool = true;

  // Informational hazard leg: family A on its own scenario/config (the
  // inversion needs an upstream target and fault-free traffic). Predictions
  // come from runs that do not deadlock, so scan for a completing seed.
  std::uint64_t hz_seed = 1;
  for (std::uint64_t s = 1; s <= 16; ++s) {
    const sipp::ExperimentResult probe = sipp::run_scenario(
        sipp::build_hazard_scenario(sipp::HazardFamily::RegistrarVsUpstream,
                                    s),
        sipp::hazard_config(sipp::HazardFamily::RegistrarVsUpstream, s));
    if (probe.sim.completed()) {
      hz_seed = s;
      break;
    }
  }
  const sipp::Scenario hz_scenario = sipp::build_hazard_scenario(
      sipp::HazardFamily::RegistrarVsUpstream, hz_seed);
  const sipp::ExperimentConfig hz_cfg =
      sipp::hazard_config(sipp::HazardFamily::RegistrarVsUpstream, hz_seed);

  std::printf("Lock-order prediction overhead — %s, seed %llu%s\n\n",
              scenario.name.c_str(), static_cast<unsigned long long>(seed),
              smoke ? " (smoke)" : "");

  std::vector<double> t_base, t_tool, t_hz;
  sipp::ExperimentResult r_base, r_tool, r_hz;
  bool deterministic = true;
  std::size_t first_predicted = 0;
  std::uint64_t first_edges = 0;
  for (int i = 0; i < rounds; ++i) {
    t_base.push_back(run_once(scenario, base, r_base));
    t_tool.push_back(run_once(scenario, tool, r_tool));
    t_hz.push_back(run_once(hz_scenario, hz_cfg, r_hz));
    if (i == 0) {
      first_predicted = r_hz.predicted_cycles.size();
      first_edges = r_tool.lockgraph.edges;
    } else if (r_hz.predicted_cycles.size() != first_predicted ||
               r_tool.lockgraph.edges != first_edges) {
      deterministic = false;
    }
  }

  const double tool_overhead = support::median_ratio(t_tool, t_base) - 1.0;
  const double m_base = support::percentile(t_base, 50.0);
  const double m_tool = support::percentile(t_tool, 50.0);
  const double m_hz = support::percentile(t_hz, 50.0);
  const bool runs_equal = same_run(r_base, r_tool);

  support::Table table("CPU time per run [s], median of " +
                       std::to_string(rounds) +
                       " rounds; overhead = median per-round ratio");
  table.header({"variant", "time", "overhead", "edges", "predicted"});
  char t_s[32], o_s[32];
  std::snprintf(t_s, sizeof t_s, "%.4f", m_base);
  table.row("baseline (tool off)", t_s, "", "", "");
  std::snprintf(t_s, sizeof t_s, "%.4f", m_tool);
  std::snprintf(o_s, sizeof o_s, "%+.1f%%", 100.0 * tool_overhead);
  table.row("lock-graph tool", t_s, o_s,
            std::to_string(r_tool.lockgraph.edges),
            std::to_string(r_tool.predicted_cycles.size()));
  std::snprintf(t_s, sizeof t_s, "%.4f", m_hz);
  table.row("+ seeded inversion (info)", t_s, "",
            std::to_string(r_hz.lockgraph.edges),
            std::to_string(r_hz.predicted_cycles.size()));
  std::printf("%s\n", table.render().c_str());

  std::printf("warnings/responses identical with tool attached: %s\n",
              runs_equal ? "yes" : "NO");
  std::printf("same-seed predictions identical (%d rounds): %s\n\n", rounds,
              deterministic ? "yes" : "NO");

  bool failed = false;
  // 5% contract gate; the smoke gate gets 2x headroom for timer noise on
  // the millisecond-scale workload.
  const double budget = smoke ? 0.10 : 0.05;
  if (tool_overhead > budget) {
    std::printf("OVERHEAD VIOLATION: lock-graph run %.1f%% over the "
                "tool-off baseline (budget %.0f%%).\n",
                100.0 * tool_overhead, 100.0 * budget);
    failed = true;
  }
  if (!runs_equal) {
    std::printf("EQUIVALENCE VIOLATION: attaching the lock-graph tool "
                "changed the warnings or responses.\n");
    failed = true;
  }
  if (!deterministic) {
    std::printf("DETERMINISM VIOLATION: same-seed runs disagreed on the "
                "predicted cycles.\n");
    failed = true;
  }
  if (r_tool.predicted_cycles.size() != 0) {
    std::printf("FALSE ALARM: the clean workload produced %zu predicted "
                "cycle(s).\n",
                r_tool.predicted_cycles.size());
    failed = true;
  }
  if (r_hz.predicted_cycles.empty()) {
    std::printf("MISSED PREDICTION: the seeded inversion produced no "
                "predicted cycle.\n");
    failed = true;
  }
  return failed ? 1 : 0;
}
