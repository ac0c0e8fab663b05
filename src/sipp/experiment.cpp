#include "sipp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "obs/contention.hpp"
#include "obs/span.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/testcases.hpp"
#include "support/parallel.hpp"

namespace rg::sipp {

ExperimentResult run_scenario(const Scenario& scenario,
                              const ExperimentConfig& config) {
  core::HelgrindConfig detector_cfg = config.detector;
  if (config.report_cap != 0) detector_cfg.report_cap = config.report_cap;
  core::HelgrindTool helgrind(detector_cfg);
  if (!config.suppressions.empty())
    helgrind.reports().load_suppressions(config.suppressions);
  core::LockGraphTool deadlock;
  rt::ChaosEngine chaos(config.chaos);
  const bool use_chaos_client =
      config.chaos_client || config.chaos.any_faults();

  rt::SimConfig sim_cfg;
  sim_cfg.sched.seed = config.seed;
  sim_cfg.sched.fast_path = config.sched_fast_path;
  rt::Sim sim(sim_cfg);
  sim.set_recorder(config.recorder);
  sim.set_profiler(config.profiler);
  if (config.spans != nullptr) sim.set_spans(config.spans);
  if (config.contention != nullptr && config.recorder != nullptr)
    config.recorder->set_contention(config.contention);
  sim.attach(helgrind);
  if (config.deadlock_tool) sim.attach(deadlock);
  if (config.replay != nullptr) sim.attach(*config.replay);

  ExperimentResult result;

  result.sim = sim.run([&] {
    sip::ProxyConfig proxy_cfg;
    proxy_cfg.faults = config.faults;
    proxy_cfg.hazards = config.hazards;
    proxy_cfg.overload = config.overload;
    proxy_cfg.upstream = config.upstream;
    proxy_cfg.metrics = config.metrics;
    if (proxy_cfg.upstream.enabled() &&
        proxy_cfg.upstream.request_budget_ticks == 0) {
      // Deadline propagation: the forwarding hop may spend at most half of
      // the client's timer-B budget, leaving the other half for the UA's
      // own retransmission schedule.
      proxy_cfg.upstream.request_budget_ticks = config.timers.giveup_after() / 2;
    }
    sip::Proxy proxy(proxy_cfg);
    if (proxy_cfg.upstream.enabled()) proxy.set_chaos(&chaos);

    proxy.start();
    if (use_chaos_client) {
      // Robustness tier: adverse network weather plus a UA that
      // retransmits against virtual time instead of fire-and-forget.
      ChaosClient client(chaos, proxy, config.timers, config.parallelism);
      result.chaos = client.run(scenario);
      result.responses +=
          static_cast<std::size_t>(result.chaos.finals + result.chaos.shed);
    } else {
      std::unique_ptr<sip::Dispatcher> dispatcher;
      if (config.mode == DispatchMode::ThreadPerRequest)
        dispatcher = std::make_unique<sip::ThreadPerRequestDispatcher>(
            config.parallelism);
      else
        dispatcher =
            std::make_unique<sip::ThreadPoolDispatcher>(config.parallelism);
      for (const auto& phase : scenario.phases) {
        const auto responses = dispatcher->dispatch(proxy, phase);
        result.responses += responses.size();
      }
    }
    result.proxy_sheds = proxy.stats().sheds();
    result.transaction_peak = proxy.stats().transaction_peak();
    result.upstream_forwards = proxy.stats().upstream_forwards();
    result.upstream_retries = proxy.stats().upstream_retries();
    result.upstream_failovers = proxy.stats().failovers();
    result.degraded_serves = proxy.stats().degraded_serves();
    result.upstream_sheds = proxy.stats().upstream_sheds();
    result.breaker_opens = proxy.stats().breaker_opens();
    proxy.shutdown();
    result.deadlock_recoveries = proxy.stats().deadlock_recoveries();
    result.breaker_transitions = proxy.upstreams().transitions_text();
    result.transitions_monotone = sip::validate_transitions(
        proxy.upstreams().transitions(), &result.transitions_error);
    // Snapshot the tracked traffic counters into the shared registry
    // (uninstrumented peek() reads — publishing never perturbs the stream).
    if (config.metrics != nullptr) proxy.stats().publish_totals();
  });
  result.injection_trace = chaos.trace_text();
  result.report_overflow = helgrind.reports().overflow_reports();

  const core::ReportManager& reports = helgrind.reports();
  result.reported_locations = 0;
  for (const core::Report& r : reports.reports())
    if (r.kind == core::Report::Kind::DataRace) ++result.reported_locations;
  result.total_warnings = reports.total_warnings();
  result.suppressed_warnings = reports.suppressed_warnings();
  result.location_keys = reports.location_keys();
  result.report_text = reports.render(sim.runtime());
  result.generated_suppressions = reports.generate_suppressions();
  result.lock_order_reports = deadlock.reports().distinct_locations();
  result.predicted_cycles = deadlock.predicted();
  result.lockgraph = deadlock.counters();
  result.lockset_distinct = helgrind.locksets().distinct_sets();
  result.tool_stats = sim.runtime().tool_stats();
  result.reports = reports.reports();
  if (config.deadlock_tool) {
    // Merge the deadlock tool's reports (tier-A inversions + tier-B
    // predictions) so rg-debug --explain can narrate a predicted cycle
    // from its recorder cursor like any other warning.
    for (const core::Report& r : deadlock.reports().reports())
      result.reports.push_back(r);
    for (const core::Report& r : deadlock.predictions().reports())
      result.reports.push_back(r);
    result.report_text += deadlock.predictions().render(sim.runtime());
  }
  if (config.recorder != nullptr) {
    result.recorder_hash = config.recorder->hash();
    result.recorder_events = config.recorder->recorded();
    result.recorder_dropped = config.recorder->dropped();
  }
  if (config.spans != nullptr) {
    result.spans_created = config.spans->span_count();
    result.traces_created = config.spans->trace_count();
  }
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    result.tool_stats.export_to(m);
    m.counter("sim.steps").set(result.sim.steps);
    m.counter("sim.fast_path_steps").set(result.sim.fast_path_steps);
    m.counter("sim.virtual_time").set(result.sim.virtual_time);
    m.counter("sim.access_events").set(result.sim.access_events);
    m.counter("sim.sync_events").set(result.sim.sync_events);
    m.counter("detector.reported_locations").set(result.reported_locations);
    m.counter("detector.total_warnings").set(result.total_warnings);
    if (config.deadlock_tool) deadlock.export_metrics(m);
    if (config.recorder != nullptr) {
      m.counter("recorder.events").set(result.recorder_events);
      m.counter("recorder.dropped").set(result.recorder_dropped);
    }
    if (config.spans != nullptr) config.spans->export_latency(m);
    if (config.contention != nullptr) {
      m.counter("contention.locks").set(config.contention->lock_count());
      m.counter("contention.acquisitions")
          .set(config.contention->total_acquisitions());
      m.counter("contention.wait_ticks")
          .set(config.contention->total_wait_ticks());
    }
    if (config.profiler != nullptr) config.profiler->export_to(m);
  }
  return result;
}

namespace {

/// Derives one Fig. 6 row (with Fig. 5 attribution) from the three cell
/// results of a test case. Shared by the serial and parallel paths so both
/// produce identical rows by construction.
Fig6Row assemble_fig6_row(const std::string& name,
                          const ExperimentResult& original,
                          const ExperimentResult& hwlc,
                          const ExperimentResult& hwlc_dr) {
  Fig6Row row;
  row.testcase = name;
  row.original = original.reported_locations;
  row.hwlc = hwlc.reported_locations;
  row.hwlc_dr = hwlc_dr.reported_locations;

  // Fig. 5 attribution by location-set difference: warnings that vanish
  // when the bus-lock model is corrected are hardware-lock false
  // positives; warnings that additionally vanish with annotations are
  // destructor false positives.
  const std::unordered_set<std::string> keys_hwlc(hwlc.location_keys.begin(),
                                                  hwlc.location_keys.end());
  const std::unordered_set<std::string> keys_dr(hwlc_dr.location_keys.begin(),
                                                hwlc_dr.location_keys.end());
  for (const std::string& key : original.location_keys)
    if (!keys_hwlc.contains(key)) ++row.hw_lock_fps;
  for (const std::string& key : hwlc.location_keys)
    if (!keys_dr.contains(key)) ++row.destructor_fps;
  row.remaining = row.hwlc_dr;
  return row;
}

core::HelgrindConfig fig6_detector(std::size_t variant) {
  switch (variant) {
    case 0:
      return core::HelgrindConfig::original();
    case 1:
      return core::HelgrindConfig::hwlc();
    default:
      return core::HelgrindConfig::hwlc_dr();
  }
}

}  // namespace

Fig6Row run_fig6_row(int n, const ExperimentConfig& base) {
  const Scenario scenario = build_testcase(n, base.seed);

  auto run_with = [&](const core::HelgrindConfig& detector) {
    ExperimentConfig cfg = base;
    cfg.detector = detector;
    return run_scenario(scenario, cfg);
  };

  const ExperimentResult original = run_with(fig6_detector(0));
  const ExperimentResult hwlc = run_with(fig6_detector(1));
  const ExperimentResult hwlc_dr = run_with(fig6_detector(2));
  return assemble_fig6_row(scenario.name, original, hwlc, hwlc_dr);
}

std::vector<Fig6Row> run_fig6_rows(const std::vector<int>& cases,
                                   const ExperimentConfig& base,
                                   std::size_t workers) {
  // One cell = (test case, detector variant). Every cell builds its own
  // scenario and Sim, so cells share no mutable state and any pool
  // interleaving yields the same per-cell results as a serial sweep.
  constexpr std::size_t kVariants = 3;
  std::vector<ExperimentResult> cells(cases.size() * kVariants);
  support::parallel_for_index(
      cells.size(), workers, [&](std::size_t i) {
        const int testcase = cases[i / kVariants];
        ExperimentConfig cfg = base;
        cfg.detector = fig6_detector(i % kVariants);
        cells[i] = run_scenario(build_testcase(testcase, base.seed), cfg);
      });

  std::vector<Fig6Row> rows;
  rows.reserve(cases.size());
  for (std::size_t r = 0; r < cases.size(); ++r) {
    const Scenario scenario = build_testcase(cases[r], base.seed);
    rows.push_back(assemble_fig6_row(scenario.name, cells[r * kVariants],
                                     cells[r * kVariants + 1],
                                     cells[r * kVariants + 2]));
  }
  return rows;
}

}  // namespace rg::sipp
