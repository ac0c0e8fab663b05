#include "rt/sim.hpp"

#include "support/assert.hpp"

namespace rg::rt {

namespace {
thread_local Sim* g_tls_sim = nullptr;
}  // namespace

Sim::Sim(const SimConfig& config) : config_(config), sched_(config.sched) {}

Sim* Sim::current() { return g_tls_sim; }

ThreadId Sim::current_thread() {
  RG_ASSERT_MSG(g_tls_sim != nullptr, "no simulation on this thread");
  return g_tls_sim->sched_.current();
}

SimResult Sim::run(const std::function<void()>& entry) {
  RG_ASSERT_MSG(!ran_, "a Sim can only run once");
  RG_ASSERT_MSG(g_tls_sim == nullptr, "nested simulations are not supported");
  ran_ = true;

  // All fibers run on this carrier thread, so one thread-local covers every
  // simulated thread. It spans main's registration and the tools' finish
  // too: reports raised in on_finish find this Sim's span tracker.
  g_tls_sim = this;
  const ThreadId main_tid =
      runtime_.register_thread("main", kNoThread, support::kUnknownSite);
  RG_ASSERT(main_tid == kMainThread);
  sched_.run(main_tid, entry);
  runtime_.thread_exited(main_tid);
  runtime_.finish();
  g_tls_sim = nullptr;

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
