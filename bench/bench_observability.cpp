// E14 — observability overhead and the recorder as equivalence oracle.
//
// The flight recorder's contract is "attach it and nothing changes": no
// scheduling points, no detector-visible state, bounded per-event cost.
// This bench prices that claim on the E6/T5 mixed workload (hwlc+dr):
//
//   baseline        recorder/metrics/profiler all off
//   recorder        flight recorder attached (schedule, sync ops, allocs,
//                   detector state changes all mirrored)
//   rec+metrics     recorder + MetricsRegistry export
//   rec+spans+cont  recorder + SpanTracker + ContentionTable (the causal
//                   layer: span stamping on every event, begin/end span
//                   events, per-lock wait/hold accounting)
//   full            recorder + metrics + hook profiler (informational: the
//                   profiler brackets every tool dispatch in two cycle
//                   stamps, a cost priced by Fig. 5, not by this budget)
//
// and fails (exit 1) if the recorder or rec+metrics run is more than 5%
// slower than the baseline, if the spans+contention run is more than 5%
// slower than the recorder-only run, if observability changed any
// reported warning, or if two same-seed runs are not bit-identical
// (stream hash every round, Chrome trace JSON of the first and last round;
// span summary and contention matrix JSON for the causal variant).
// Timing is the process CPU time of each run, interleaved round by round;
// an overhead is the median over rounds of the variant / reference ratio,
// so a spell of host noise moves both sides of a ratio, not one best case.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/contention.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "sipp/experiment.hpp"
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

bool same_reports(const rg::sipp::ExperimentResult& a,
                  const rg::sipp::ExperimentResult& b) {
  return a.reported_locations == b.reported_locations &&
         a.location_keys == b.location_keys && a.sim.steps == b.sim.steps &&
         a.total_warnings == b.total_warnings &&
         a.responses == b.responses;
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

  std::printf("Observability overhead — %s, seed %llu%s\n\n",
              scenario.name.c_str(), static_cast<unsigned long long>(seed),
              smoke ? " (smoke)" : "");

  // Interleave the variants round by round so each round's runs share the
  // host's state; the overheads pair them up per round.
  std::vector<double> t_base, t_rec, t_met, t_span, t_full;
  sipp::ExperimentResult r_base, r_rec, r_met, r_span, r_full;
  std::uint64_t first_hash = 0;
  std::unique_ptr<obs::FlightRecorder> first_recorder, last_recorder;
  std::uint64_t first_span_hash = 0;
  std::string first_spans, first_matrix;
  bool deterministic = true;
  bool spans_deterministic = true;
  for (int i = 0; i < rounds; ++i) {
    t_base.push_back(run_once(scenario, base, r_base));

    auto recorder = std::make_unique<obs::FlightRecorder>();
    sipp::ExperimentConfig cfg = base;
    cfg.recorder = recorder.get();
    t_rec.push_back(run_once(scenario, cfg, r_rec));
    if (i == 0) first_hash = r_rec.recorder_hash;
    if (r_rec.recorder_hash != first_hash) deterministic = false;
    // The exported traces are compared once, after the timed rounds: a
    // 2.2 MB export between two timed runs moves glibc's mmap threshold
    // and was charged to the run after it.
    if (i == 0) first_recorder = std::move(recorder);
    if (i == rounds - 1) last_recorder = std::move(recorder);

    obs::FlightRecorder recorder2;
    obs::MetricsRegistry metrics;
    cfg.recorder = &recorder2;
    cfg.metrics = &metrics;
    t_met.push_back(run_once(scenario, cfg, r_met));
    cfg.metrics = nullptr;

    // The causal layer: spans + contention over a bare recorder. Gated
    // against t_rec (the marginal cost of attribution), and its two JSON
    // exports must reproduce bit-identically per seed — the stream-hash
    // oracle extends to span events, the matrix to lock wait accounting.
    obs::FlightRecorder recorder4;
    obs::SpanTracker spans(&recorder4);
    obs::ContentionTable contention;
    cfg.recorder = &recorder4;
    cfg.spans = &spans;
    cfg.contention = &contention;
    t_span.push_back(run_once(scenario, cfg, r_span));
    if (i == 0) {
      first_span_hash = r_span.recorder_hash;
      first_spans = spans.json();
      first_matrix = contention.json(recorder4);
    } else if (r_span.recorder_hash != first_span_hash ||
               spans.json() != first_spans ||
               contention.json(recorder4) != first_matrix) {
      spans_deterministic = false;
    }
    cfg.spans = nullptr;
    cfg.contention = nullptr;

    obs::FlightRecorder recorder3;
    obs::MetricsRegistry metrics2;
    obs::HookProfiler profiler;
    cfg.recorder = &recorder3;
    cfg.metrics = &metrics2;
    cfg.profiler = &profiler;
    t_full.push_back(run_once(scenario, cfg, r_full));
  }

  if (first_recorder->chrome_trace_json() !=
      last_recorder->chrome_trace_json())
    deterministic = false;

  const double rec_overhead = support::median_ratio(t_rec, t_base) - 1.0;
  const double met_overhead = support::median_ratio(t_met, t_base) - 1.0;
  // Marginal, vs recorder.
  const double span_overhead = support::median_ratio(t_span, t_rec) - 1.0;
  const double full_overhead = support::median_ratio(t_full, t_base) - 1.0;
  const double m_base = support::percentile(t_base, 50.0);
  const double m_rec = support::percentile(t_rec, 50.0);
  const double m_met = support::percentile(t_met, 50.0);
  const double m_span = support::percentile(t_span, 50.0);
  const double m_full = support::percentile(t_full, 50.0);
  const bool reports_equal = same_reports(r_base, r_rec) &&
                             same_reports(r_base, r_met) &&
                             same_reports(r_base, r_span) &&
                             same_reports(r_base, r_full);

  support::Table table("CPU time per run [s], median of " +
                       std::to_string(rounds) +
                       " rounds; overhead = median per-round ratio");
  table.header({"variant", "time", "overhead", "events"});
  char t_s[32], o_s[32];
  std::snprintf(t_s, sizeof t_s, "%.4f", m_base);
  table.row("baseline (obs off)", t_s, "", "");
  std::snprintf(t_s, sizeof t_s, "%.4f", m_rec);
  std::snprintf(o_s, sizeof o_s, "%+.1f%%", 100.0 * rec_overhead);
  table.row("flight recorder", t_s, o_s,
            std::to_string(r_rec.recorder_events));
  std::snprintf(t_s, sizeof t_s, "%.4f", m_met);
  std::snprintf(o_s, sizeof o_s, "%+.1f%%", 100.0 * met_overhead);
  table.row("recorder+metrics", t_s, o_s,
            std::to_string(r_met.recorder_events));
  std::snprintf(t_s, sizeof t_s, "%.4f", m_span);
  std::snprintf(o_s, sizeof o_s, "%+.1f%% vs rec", 100.0 * span_overhead);
  table.row("recorder+spans+contention", t_s, o_s,
            std::to_string(r_span.recorder_events));
  std::snprintf(t_s, sizeof t_s, "%.4f", m_full);
  std::snprintf(o_s, sizeof o_s, "%+.1f%%", 100.0 * full_overhead);
  table.row("+ hook profiler (Fig. 5)", t_s, o_s,
            std::to_string(r_full.recorder_events));
  std::printf("%s\n", table.render().c_str());

  std::printf("reports identical across variants: %s\n",
              reports_equal ? "yes" : "NO");
  std::printf("same-seed recorder runs bit-identical (%d rounds): %s\n",
              rounds, deterministic ? "yes" : "NO");
  std::printf(
      "same-seed span traces + contention matrices bit-identical: %s "
      "(%llu spans, %llu traces)\n\n",
      spans_deterministic ? "yes" : "NO",
      static_cast<unsigned long long>(r_span.spans_created),
      static_cast<unsigned long long>(r_span.traces_created));

  bool failed = false;
  // The contract gate is 5% on the full run; the smoke gate gets 2x
  // headroom because the median of 80 paired ratios on a ~5ms workload
  // still carries a few percent of noise.
  const double budget = smoke ? 0.10 : 0.05;
  if (rec_overhead > budget) {
    std::printf("OVERHEAD VIOLATION: recorder run %.1f%% over the "
                "recorder-off baseline (budget %.0f%%).\n",
                100.0 * rec_overhead, 100.0 * budget);
    failed = true;
  }
  if (met_overhead > budget) {
    std::printf("OVERHEAD VIOLATION: recorder+metrics run %.1f%% over the "
                "recorder-off baseline (budget %.0f%%).\n",
                100.0 * met_overhead, 100.0 * budget);
    failed = true;
  }
  if (span_overhead > budget) {
    std::printf("OVERHEAD VIOLATION: spans+contention run %.1f%% over the "
                "recorder-only run (budget %.0f%%).\n",
                100.0 * span_overhead, 100.0 * budget);
    failed = true;
  }
  if (!reports_equal) {
    std::printf("EQUIVALENCE VIOLATION: attaching observability changed "
                "the reported warnings.\n");
    failed = true;
  }
  if (!deterministic) {
    std::printf("DETERMINISM VIOLATION: same-seed recorder runs were not "
                "bit-identical.\n");
    failed = true;
  }
  if (!spans_deterministic) {
    std::printf("DETERMINISM VIOLATION: same-seed span traces or "
                "contention matrices were not bit-identical.\n");
    failed = true;
  }
  return failed ? 1 : 0;
}
