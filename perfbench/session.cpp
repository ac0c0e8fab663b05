// Sessions: one simulated execution per Cell, at one stage of the §4.5
// ladder. At Stage::Detector (and Observed, which only adds recorders that
// never perturb the schedule) a session is configured exactly as
// run_scenario configures it, so its outputs reproduce run_scenario's.
#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "core/helgrind.hpp"
#include "core/lockgraph.hpp"
#include "harness.hpp"
#include "obs/contention.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "rt/chaos.hpp"
#include "rt/sim.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/client.hpp"
#include "support/assert.hpp"
#include "support/site.hpp"

namespace perfbench {

using namespace rg;

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

CellOutputs CellOutputs::of(const sipp::ExperimentResult& result) {
  CellOutputs out;
  out.location_keys = result.location_keys;
  out.reported_locations = result.reported_locations;
  out.total_warnings = result.total_warnings;
  out.steps = result.sim.steps;
  out.responses = result.responses;
  out.recorder_events = result.recorder_events;
  out.spans = result.spans_created;
  out.recorder_hash = result.recorder_hash;
  return out;
}

namespace {

/// "rg::sip::Proxy::handle_wire" from the site's "std::string
/// rg::sip::Proxy::handle_wire(std::string_view, ...) (file:line)".
std::string site_function(support::SiteId id) {
  if (id == support::kUnknownSite) return "?";
  std::string text = support::global_sites().describe(id);
  text = text.substr(0, text.rfind(" ("));
  text = text.substr(0, text.find('('));
  const std::size_t space = text.rfind(' ');
  return space == std::string::npos ? text : text.substr(space + 1);
}

/// A location key ("DataRace@12@7@3#5": frame and origin site ids) with
/// every site id replaced by its function name.
std::string canonical_key(const std::string& key) {
  std::string out;
  for (std::size_t i = 0; i < key.size();) {
    const bool id = (key[i] == '@' || key[i] == '#') && i + 1 < key.size() &&
                    std::isdigit(static_cast<unsigned char>(key[i + 1]));
    out += key[i++];
    if (!id) continue;
    std::size_t end = i;
    while (end < key.size() && std::isdigit(static_cast<unsigned char>(key[end])))
      ++end;
    out += site_function(static_cast<support::SiteId>(
        std::stoul(key.substr(i, end - i))));
    i = end;
  }
  return out;
}

}  // namespace

void CellOutputs::seal(OpRecord& op) const {
  std::vector<std::string> keys;
  for (const std::string& k : location_keys) keys.push_back(canonical_key(k));
  std::sort(keys.begin(), keys.end());
  Digest d;
  for (const std::string& k : keys) d.add(k);
  d.add(reported_locations).add(total_warnings).add(steps).add(responses);
  op.summary = "locations=" + std::to_string(reported_locations) +
               " warnings=" + std::to_string(total_warnings) +
               " steps=" + std::to_string(steps) +
               " responses=" + std::to_string(responses);
  if (recorder_events != 0) {
    d.add(recorder_events).add(spans);
    op.summary += " events=" + std::to_string(recorder_events) +
                  " spans=" + std::to_string(spans);
  }
  op.digest = d.hex();
  op.replay = recorder_hash;
}

void HookTally::add(const obs::HookProfiler& profiler) {
  for (std::size_t t = 0; t < profiler.tool_count(); ++t) {
    Row& row = rows_[profiler.tool_name(t)];
    for (std::size_t h = 0; h < obs::kHookCount; ++h) {
      const auto hook = static_cast<obs::Hook>(h);
      row[h].events += profiler.events(t, hook);
      row[h].cycles += profiler.cycles(t, hook);
    }
  }
}

void HookTally::merge(const HookTally& other) {
  for (const auto& [tool, row] : other.rows_) {
    Row& mine = rows_[tool];
    for (std::size_t h = 0; h < obs::kHookCount; ++h) {
      mine[h].events += row[h].events;
      mine[h].cycles += row[h].cycles;
    }
  }
}

HookTally::Cell HookTally::get(const std::string& tool,
                               std::initializer_list<obs::Hook> hooks) const {
  Cell sum;
  const auto it = rows_.find(tool);
  if (it == rows_.end()) return sum;
  for (const obs::Hook hook : hooks) {
    const Cell& c = it->second[static_cast<std::size_t>(hook)];
    sum.events += c.events;
    sum.cycles += c.cycles;
  }
  return sum;
}

std::uint64_t HookTally::total_cycles() const {
  std::uint64_t n = 0;
  for (const auto& [tool, row] : rows_)
    for (const Cell& c : row) n += c.cycles;
  return n;
}

bool HookTally::same_events(const HookTally& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  for (const auto& [tool, row] : rows_) {
    const auto it = other.rows_.find(tool);
    if (it == other.rows_.end()) return false;
    for (std::size_t h = 0; h < obs::kHookCount; ++h)
      if (row[h].events != it->second[h].events) return false;
  }
  return true;
}

std::string HookTally::render(double ns_per_cycle) const {
  std::string out = "tool       hook             events        cycles   ns/event\n";
  char line[128];
  for (const auto& [tool, row] : rows_) {
    for (std::size_t h = 0; h < obs::kHookCount; ++h) {
      const Cell& c = row[h];
      if (c.events == 0) continue;
      std::snprintf(line, sizeof line, "%-10s %-14s %10" PRIu64 " %13" PRIu64
                    " %10.1f\n", tool.c_str(),
                    obs::to_string(static_cast<obs::Hook>(h)), c.events,
                    c.cycles,
                    static_cast<double>(c.cycles) * ns_per_cycle /
                        static_cast<double>(c.events));
      out += line;
    }
  }
  return out;
}

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::Native: return "native";
    case Stage::Vm: return "vm";
    case Stage::Detector: return "detector";
    case Stage::Observed: return "observed";
  }
  return "?";
}

double CellRun::traffic_seconds() const {
  double s = 0;
  for (const double c : call_seconds) s += c;
  return s;
}

std::uint64_t CellRun::requests() const {
  std::uint64_t n = 0;
  for (const std::uint64_t r : call_requests) n += r;
  return n;
}

namespace {

/// The proxy configuration run_scenario derives from an ExperimentConfig.
sip::ProxyConfig proxy_config(const sipp::ExperimentConfig& config) {
  sip::ProxyConfig proxy_cfg;
  proxy_cfg.faults = config.faults;
  proxy_cfg.hazards = config.hazards;
  proxy_cfg.overload = config.overload;
  proxy_cfg.upstream = config.upstream;
  if (proxy_cfg.upstream.enabled() &&
      proxy_cfg.upstream.request_budget_ticks == 0)
    proxy_cfg.upstream.request_budget_ticks = config.timers.giveup_after() / 2;
  return proxy_cfg;
}

std::string responses_digest(std::vector<std::string> responses) {
  std::sort(responses.begin(), responses.end());
  Digest d;
  d.add(responses.size());
  for (const std::string& r : responses) d.add(r);
  return d.hex();
}

}  // namespace

CellRun run_native(const std::vector<Cell>& cells) {
  // One proxy serves the whole unit: a native Proxy::shutdown waits for the
  // reaper's wall-clock sleep, which would dominate per-cell set-up. Cells
  // that share a scenario (the detector variants of one test case) send
  // it once. The seeded faults are off (they remove locking, and the
  // native reaper is a real OS thread) and so is the upstream hop (it
  // sleeps on the wall clock natively).
  CellRun run;
  sip::ProxyConfig proxy_cfg;
  proxy_cfg.faults = sip::FaultConfig::none();
  sip::Proxy proxy(proxy_cfg);
  proxy.start();
  std::vector<const sipp::Scenario*> sent;
  std::uint64_t answered = 0;
  for (const Cell& cell : cells) {
    if (std::find(sent.begin(), sent.end(), cell.scenario) != sent.end())
      continue;
    sent.push_back(cell.scenario);
    std::uint64_t requests = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto& phase : cell.scenario->phases) {
      for (const std::string& wire : phase) {
        if (!proxy.handle_wire(wire).empty()) ++answered;
        ++requests;
      }
    }
    run.call_seconds.push_back(seconds_between(t0, Clock::now()));
    run.call_start.push_back(t0);
    run.call_requests.push_back(requests);
  }
  proxy.shutdown();
  run.completed = true;
  run.counters["sip.responses"] = static_cast<double>(answered);
  return run;
}

CellRun run_cell(const Cell& cell, Stage stage, obs::HookProfiler* profiler) {
  RG_ASSERT_MSG(stage != Stage::Native, "native units go through run_native");
  const sipp::ExperimentConfig& config = cell.config;
  CellRun run;
  Counters& c = run.counters;

  core::HelgrindConfig detector_cfg = config.detector;
  if (config.report_cap != 0) detector_cfg.report_cap = config.report_cap;
  core::HelgrindTool helgrind(detector_cfg);
  core::LockGraphTool lockgraph;
  rt::ChaosEngine chaos(config.chaos);
  const bool use_chaos_client =
      config.chaos_client || config.chaos.any_faults();

  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::SpanTracker> spans;
  std::unique_ptr<obs::ContentionTable> contention;
  if (stage == Stage::Observed) {
    obs::RecorderConfig rec_cfg;
    rec_cfg.capacity = kRecorderCapacity;
    recorder = std::make_unique<obs::FlightRecorder>(rec_cfg);
    spans = std::make_unique<obs::SpanTracker>(recorder.get());
    contention = std::make_unique<obs::ContentionTable>();
  }

  rt::SimConfig sim_cfg;
  sim_cfg.sched.seed = config.seed;
  sim_cfg.sched.fast_path = config.sched_fast_path;
  rt::Sim sim(sim_cfg);
  sim.set_recorder(recorder.get());
  sim.set_profiler(profiler);
  if (spans) sim.set_spans(spans.get());
  if (contention) recorder->set_contention(contention.get());
  if (stage != Stage::Vm) {
    sim.attach(helgrind);
    if (config.deadlock_tool) sim.attach(lockgraph);
  }

  std::uint64_t responses = 0;
  std::uint64_t answered = 0;
  sipp::ChaosRunResult chaos_run;
  const rt::SimResult sim_result = sim.run([&] {
    sip::Proxy proxy(proxy_config(config));
    if (config.upstream.enabled()) proxy.set_chaos(&chaos);
    proxy.start();

    auto timed = [&](auto&& call) {
      run.call_start.push_back(Clock::now());
      call();
      run.call_seconds.push_back(
          seconds_between(run.call_start.back(), Clock::now()));
    };
    if (use_chaos_client) {
      sipp::ChaosClient client(chaos, proxy, config.timers,
                               config.parallelism);
      timed([&] { chaos_run = client.run(*cell.scenario); });
      run.call_requests.push_back(chaos_run.deliveries);
      responses = chaos_run.finals + chaos_run.shed;
      answered = responses;
    } else {
      std::unique_ptr<sip::Dispatcher> dispatcher;
      if (config.mode == sipp::DispatchMode::ThreadPerRequest)
        dispatcher = std::make_unique<sip::ThreadPerRequestDispatcher>(
            config.parallelism);
      else
        dispatcher =
            std::make_unique<sip::ThreadPoolDispatcher>(config.parallelism);
      auto send = [&](const std::vector<std::string>& wires) {
        std::vector<std::string> out;
        timed([&] { out = dispatcher->dispatch(proxy, wires); });
        run.call_requests.push_back(wires.size());
        responses += out.size();
        for (const std::string& r : out) answered += r.empty() ? 0 : 1;
        if (cell.digest_responses)
          run.call_digests.push_back(responses_digest(std::move(out)));
      };
      auto room = [&] {
        return cell.max_calls == 0 || run.call_seconds.size() < cell.max_calls;
      };
      for (const auto& phase : cell.scenario->phases) {
        if (cell.batch == 0) {
          if (room()) send(phase);
          continue;
        }
        for (std::size_t base = 0; base < phase.size() && room();
             base += cell.batch) {
          const std::size_t end = std::min(phase.size(), base + cell.batch);
          send(std::vector<std::string>(phase.begin() + base,
                                        phase.begin() + end));
        }
      }
    }
    c["sip.sheds"] = static_cast<double>(proxy.stats().sheds());
    c["sip.upstream_forwards"] =
        static_cast<double>(proxy.stats().upstream_forwards());
    c["sip.failovers"] = static_cast<double>(proxy.stats().failovers());
    c["sip.degraded_serves"] =
        static_cast<double>(proxy.stats().degraded_serves());
    c["sip.breaker_opens"] = static_cast<double>(proxy.stats().breaker_opens());
    proxy.shutdown();
    std::string why;
    if (!sip::validate_transitions(proxy.upstreams().transitions(), &why))
      run.error = "breaker log not monotone: " + why;
  });

  run.completed = sim_result.completed();
  if (!run.completed)
    run.error = "sim did not complete: " + sim_result.error;
  else if (use_chaos_client && !chaos_run.converged())
    run.error = "lost transactions";

  CellOutputs& out = run.outputs;
  for (const core::Report& r : helgrind.reports().reports())
    if (r.kind == core::Report::Kind::DataRace) ++out.reported_locations;
  out.location_keys = helgrind.reports().location_keys();
  out.total_warnings = helgrind.reports().total_warnings();
  out.steps = sim_result.steps;
  out.responses = responses;
  if (recorder) {
    out.recorder_events = recorder->recorded();
    out.spans = spans->span_count();
    out.recorder_hash = recorder->hash();
  }

  const auto n = [](auto v) { return static_cast<double>(v); };
  c["rt.steps"] = n(sim_result.steps);
  c["rt.fast_path_steps"] = n(sim_result.fast_path_steps);
  c["rt.threads_spawned"] = n(sim.runtime().thread_count());
  c["rt.access_events"] = n(sim_result.access_events);
  c["rt.sync_events"] = n(sim_result.sync_events);
  c["rt.virtual_time"] = n(sim_result.virtual_time);
  const rt::ToolStats tool_stats = sim.runtime().tool_stats();
  c["shadow.locksets"] = n(helgrind.locksets().distinct_sets());
  c["shadow.segments"] = n(helgrind.segments().segment_count());
  c["shadow.tlb_hits"] = n(tool_stats.shadow_tlb_hits);
  c["shadow.tlb_lookups"] =
      n(tool_stats.shadow_tlb_hits + tool_stats.shadow_tlb_misses);
  c["shadow.lockset_cache_hits"] = n(tool_stats.lockset_cache_hits);
  c["shadow.lockset_cache_lookups"] =
      n(tool_stats.lockset_cache_hits + tool_stats.lockset_cache_misses);
  c["core.reported_locations"] = n(out.reported_locations);
  c["core.total_warnings"] = n(out.total_warnings);
  if (recorder) {
    c["obs.recorder.events"] = n(recorder->recorded());
    c["obs.recorder.dropped"] = n(recorder->dropped());
    c["obs.spans"] = n(spans->span_count());
    c["obs.contention.acquisitions"] = n(contention->total_acquisitions());
    c["obs.contention.wait_ticks"] = n(contention->total_wait_ticks());
  }
  c["sip.responses"] = n(answered);
  if (use_chaos_client) {
    c["sipp.calls"] = n(chaos_run.calls.size());
    c["sipp.finals"] = n(chaos_run.finals);
    c["sipp.give_ups"] = n(chaos_run.give_ups);
    c["sipp.retransmissions"] = n(chaos_run.retransmissions);
  } else {
    // Fire-and-forget delivery: every request is one call, and a call
    // ends in a final response unless the proxy absorbs it (ACK).
    c["sipp.calls"] = n(run.requests());
    c["sipp.finals"] = n(answered);
  }
  return run;
}

std::vector<OpRecord> Workload::ops_of(const Cell& cell,
                                       const CellRun& run) const {
  OpRecord op;
  op.key = cell.key;
  op.start = run.call_start.empty() ? Clock::time_point{} : run.call_start[0];
  op.seconds = run.traffic_seconds();
  op.requests = run.requests();
  op.error = run.error;
  run.outputs.seal(op);
  return {op};
}

}  // namespace perfbench
