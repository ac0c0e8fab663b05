#include "rt/sim.hpp"

#include "obs/span.hpp"
#include "support/assert.hpp"

namespace rg::rt {

namespace {
thread_local Sim* g_tls_sim = nullptr;
}  // namespace

Sim::Sim(const SimConfig& config) : config_(config), sched_(config.sched) {
  sched_.thread_tls_hook = [this] { g_tls_sim = this; };
}

Sim* Sim::current() { return g_tls_sim; }

ThreadId Sim::current_thread() {
  RG_ASSERT_MSG(g_tls_sim != nullptr, "no simulation on this thread");
  return g_tls_sim->sched_.current();
}

SimResult Sim::run(const std::function<void()>& entry) {
  RG_ASSERT_MSG(!ran_, "a Sim can only run once");
  RG_ASSERT_MSG(g_tls_sim == nullptr, "nested simulations are not supported");
  ran_ = true;

  // Ambient recorder/tracker scope: all fibers run on this carrier thread,
  // so one thread-local install covers every simulated thread for the run.
  obs::FlightRecorder* const prev_ambient = obs::ambient();
  obs::set_ambient(recorder_);
  obs::SpanTracker* const prev_spans = obs::ambient_spans();
  obs::set_ambient_spans(spans_);

  const ThreadId main_tid =
      runtime_.register_thread("main", kNoThread, support::kUnknownSite);
  RG_ASSERT(main_tid == kMainThread);

  g_tls_sim = this;
  sched_.run(main_tid, entry);
  g_tls_sim = nullptr;

  runtime_.thread_exited(main_tid);
  runtime_.finish();
  obs::set_ambient_spans(prev_spans);
  obs::set_ambient(prev_ambient);

  SimResult result;
  result.outcome = sched_.outcome();
  result.steps = sched_.steps();
  result.fast_path_steps = sched_.fast_path_steps();
  result.virtual_time = sched_.virtual_time();
  result.access_events = runtime_.access_events();
  result.sync_events = runtime_.sync_events();
  result.deadlock = sched_.deadlock();
  result.error = sched_.client_error();
  return result;
}

}  // namespace rg::rt
