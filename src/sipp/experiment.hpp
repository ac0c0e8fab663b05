// Experiment harness — runs a scenario against the proxy under a detector
// configuration and collects the quantities the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/helgrind.hpp"
#include "core/lockgraph.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "rt/chaos.hpp"
#include "rt/replay.hpp"
#include "rt/sim.hpp"
#include "rt/tool.hpp"
#include "sip/faults.hpp"
#include "sip/proxy.hpp"
#include "sipp/client.hpp"
#include "sipp/scenario.hpp"

namespace rg::sipp {

enum class DispatchMode : std::uint8_t {
  ThreadPerRequest,  // the proxy as measured in the paper
  ThreadPool,        // the planned pattern of §4.2.3
};

struct ExperimentConfig {
  std::uint64_t seed = 1;
  sip::FaultConfig faults = sip::FaultConfig::paper();
  DispatchMode mode = DispatchMode::ThreadPerRequest;
  /// Concurrent workers (threads per batch / pool size).
  std::size_t parallelism = 8;
  core::HelgrindConfig detector = core::HelgrindConfig::original();
  /// Also run the lock-order deadlock tool.
  bool deadlock_tool = false;
  /// Seeded lock-inversion hazards in the proxy (all off by default).
  sip::DeadlockHazards hazards;
  /// Replay-to-deadlock oracle: when set, the driver is attached as a tool
  /// and stages the run so a previously *predicted* cycle actually blocks.
  /// Caller keeps ownership; inspect driver->confirmed(result.sim.deadlock)
  /// after the run.
  rt::CycleReplayDriver* replay = nullptr;
  /// Optional Valgrind-style suppression file contents.
  std::string suppressions;

  // --- robustness tier ----------------------------------------------------
  /// Fault injection plan. Any enabled fault switches the traffic driver
  /// from the fire-and-forget dispatcher to the retransmitting ChaosClient.
  rt::ChaosConfig chaos;
  /// Force the ChaosClient even with no injected faults (used to validate
  /// that the UA driver itself converges cleanly).
  bool chaos_client = false;
  /// Retransmission timers for the ChaosClient (virtual ticks).
  RetransmitTimers timers;
  /// Proxy overload-control watermarks (zero = unlimited, classic runs).
  sip::OverloadConfig overload;
  /// Upstream resilience pool (zero targets = disabled, classic runs).
  /// When enabled with request_budget_ticks == 0 the harness propagates
  /// half the ChaosClient's timer-B budget as the forwarding deadline.
  sip::UpstreamConfig upstream;
  /// Detector report cap (ReportManager hardening); 0 = unlimited.
  std::size_t report_cap = 0;

  // --- performance knobs --------------------------------------------------
  /// Scheduler no-switch fast path. Schedules are bit-identical either way;
  /// off only for the equivalence tests and perf comparison.
  bool sched_fast_path = true;

  // --- observability --------------------------------------------------------
  // All three default to nullptr = off; attaching them never perturbs the
  // schedule (the recorder has no scheduling points, the profiler only
  // wraps tool dispatch). Caller keeps ownership across the run.
  /// Flight recorder: clocked by the Sim's virtual time, mirrors every
  /// runtime/scheduler/chaos/SIP event, feeds warning provenance.
  obs::FlightRecorder* recorder = nullptr;
  /// Per-tool hook profiler (Fig. 5-style events/cycles table).
  obs::HookProfiler* profiler = nullptr;
  /// Metrics registry: receives the proxy infra gauges during the run and
  /// the tool/sim/recorder summary counters after it.
  obs::MetricsRegistry* metrics = nullptr;
  /// Causal span tracker (requires `recorder`; must have been constructed
  /// over the same recorder). Assigns a trace per SIP transaction, stamps
  /// every recorded event with its driving span, and feeds per-class
  /// virtual-time latency histograms.
  obs::SpanTracker* spans = nullptr;
  /// Lock-contention observatory (requires `recorder`): per-(lock, thread)
  /// virtual-time wait/hold matrix folded from the lock-event stream.
  obs::ContentionTable* contention = nullptr;
};

struct ExperimentResult {
  /// Distinct reported possible-data-race locations (the Fig. 6 number).
  std::size_t reported_locations = 0;
  std::uint64_t total_warnings = 0;
  std::uint64_t suppressed_warnings = 0;
  std::vector<std::string> location_keys;
  /// Full Helgrind-style log.
  std::string report_text;
  /// --gen-suppressions output: one block per reported location.
  std::string generated_suppressions;
  /// Lock-order inversions (deadlock tool, when attached): naive tier-A
  /// edge-set inversions, byte-compatible with the pre-lockgraph tool.
  std::size_t lock_order_reports = 0;
  /// Tier-B *predicted* cycles that survived the cross-thread refinements
  /// (guard-lock and single-thread pruning). Empty without deadlock_tool.
  std::vector<core::PredictedCycle> predicted_cycles;
  /// Lock-graph refinement counters (edges, pruned, predicted).
  core::LockGraphTool::Counters lockgraph;
  /// Recoveries performed by the non-racy ordered-lock recovery path.
  std::uint64_t deadlock_recoveries = 0;
  rt::SimResult sim;
  std::size_t responses = 0;
  std::size_t lockset_distinct = 0;
  /// Hot-path counters (shadow TLB) summed over tools; the lockset-cache
  /// members are always 0.
  rt::ToolStats tool_stats;

  // --- robustness tier ----------------------------------------------------
  /// Per-call convergence accounting (empty unless the ChaosClient ran).
  ChaosRunResult chaos;
  /// Canonical injection trace; equal strings == bit-identical replay.
  std::string injection_trace;
  /// New report locations dropped by the detector's report cap.
  std::uint64_t report_overflow = 0;
  /// Requests shed with 503 by proxy overload control.
  std::uint64_t proxy_sheds = 0;
  /// Highest transaction-table size observed while overload control was on.
  std::uint64_t transaction_peak = 0;

  // --- upstream resilience ------------------------------------------------
  /// Canonical breaker transition log; equal strings == identical replay.
  std::string breaker_transitions;
  /// validate_transitions() verdict on that log (vacuously true when the
  /// pool is disabled).
  bool transitions_monotone = true;
  std::string transitions_error;
  std::uint64_t upstream_forwards = 0;
  std::uint64_t upstream_retries = 0;
  std::uint64_t upstream_failovers = 0;
  std::uint64_t degraded_serves = 0;
  std::uint64_t upstream_sheds = 0;
  std::uint64_t breaker_opens = 0;

  // --- observability --------------------------------------------------------
  /// Stream hash over every recorded event (0 when no recorder attached).
  /// Equal hashes == the two executions raised the same events in order.
  std::uint64_t recorder_hash = 0;
  std::uint64_t recorder_events = 0;
  std::uint64_t recorder_dropped = 0;
  /// Span/trace totals (0 when no SpanTracker attached).
  std::uint64_t spans_created = 0;
  std::uint64_t traces_created = 0;
  /// The distinct warning reports, with their recorder provenance cursors
  /// (rg-debug --explain indexes into this).
  std::vector<core::Report> reports;
};

/// Runs `scenario` once. Deterministic in (scenario, config).
ExperimentResult run_scenario(const Scenario& scenario,
                              const ExperimentConfig& config);

/// One Fig. 6 row: the same test case under Original / HWLC / HWLC+DR.
struct Fig6Row {
  std::string testcase;
  std::size_t original = 0;
  std::size_t hwlc = 0;
  std::size_t hwlc_dr = 0;
  /// Fig. 5 stacking derived by location-set difference:
  std::size_t hw_lock_fps = 0;     // removed by HWLC
  std::size_t destructor_fps = 0;  // further removed by +DR
  std::size_t remaining = 0;       // == hwlc_dr
  /// Fraction of Original removed by the two improvements combined.
  double reduction() const {
    return original == 0
               ? 0.0
               : 1.0 - static_cast<double>(hwlc_dr) /
                           static_cast<double>(original);
  }
};

/// Runs test case `n` under the three configurations of the paper.
Fig6Row run_fig6_row(int n, const ExperimentConfig& base);

/// Runs Fig. 6 rows for `cases`, fanning the (test case × detector config)
/// cells over an OS-thread pool (`workers` = 0 → hardware concurrency,
/// 1 → serial). Each cell is a self-contained Sim on one pool thread, so
/// per-cell determinism is unchanged: the returned rows are identical to
/// running run_fig6_row over `cases` one by one.
std::vector<Fig6Row> run_fig6_rows(const std::vector<int>& cases,
                                   const ExperimentConfig& base,
                                   std::size_t workers = 0);

}  // namespace rg::sipp
