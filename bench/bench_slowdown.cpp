// E6 — the §4.5 performance experiment.
//
// The paper reports that the program runs 8-10x slower on the Valgrind VM
// without instrumentation and 20-30x slower with Helgrind analysis. We
// measure the same three stages of our substitute stack:
//   native      — the requests through Proxy::handle_wire on the calling
//                 thread (no Sim, no events, no threads), as perfbench's
//                 ladder defines its native rung,
//   VM only     — the deterministic scheduler with no tools attached,
//   VM+Helgrind — scheduler plus the HWLC+DR detector.
// Absolute factors depend on the substrate; the claim is the ordering and
// that detection dominates the added cost. The VM stages run the proxy's
// thread-per-request dispatcher, as the server under test does. The same
// dispatcher on plain std::threads is printed too, ungated: it pays an OS
// thread spawn per request, which the VM's fibers do not, so it is no
// baseline for the VM's cost. It stays in --smoke because it is the
// natively concurrent run of the proxy.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/testcases.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The measured workload: a T5-style mixed scenario through the proxy,
/// each phase either dispatched thread-per-request or sent request by
/// request on the calling thread. Only the request loop is timed — proxy
/// start/shutdown involve wall-clock reaper sleeps in native mode that
/// would swamp the figure.
double run_workload(std::size_t repeats, bool thread_per_request) {
  using namespace rg;
  sip::ProxyConfig cfg;
  cfg.faults = sip::FaultConfig::none();
  sip::Proxy proxy(cfg);
  proxy.start();
  sip::ThreadPerRequestDispatcher dispatcher(6);
  const sipp::Scenario scenario = sipp::build_testcase(5, 3);
  const auto start = Clock::now();
  for (std::size_t r = 0; r < repeats; ++r)
    for (const auto& phase : scenario.phases) {
      if (thread_per_request) {
        (void)dispatcher.dispatch(proxy, phase);
      } else {
        for (const std::string& wire : phase) (void)proxy.handle_wire(wire);
      }
    }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  proxy.shutdown();
  return elapsed;
}

double seconds_sim(std::size_t repeats, rg::rt::Tool* tool) {
  rg::rt::SimConfig cfg;
  cfg.sched.seed = 3;
  rg::rt::Sim sim(cfg);
  if (tool != nullptr) sim.attach(*tool);
  double elapsed = 0.0;
  sim.run(
      [&] { elapsed = run_workload(repeats, /*thread_per_request=*/true); });
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  std::size_t repeats = 3;
  int rounds = 3;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    // One T5 pass per stage, but best of five interleaved rounds: a single
    // round lets one busy moment of the host reorder the stages.
    repeats = 1;
    rounds = 5;
  } else {
    if (argc > 1) repeats = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2) rounds = std::atoi(argv[2]);
  }

  std::printf("§4.5 — execution overhead (workload: T5 x %zu, best of %d)\n\n",
              repeats, rounds);

  support::Accumulator native, native_threads, vm_only, vm_helgrind;
  for (int i = 0; i < rounds; ++i) {
    native.add(run_workload(repeats, /*thread_per_request=*/false));
    native_threads.add(run_workload(repeats, /*thread_per_request=*/true));
    vm_only.add(seconds_sim(repeats, nullptr));
    core::HelgrindTool helgrind(core::HelgrindConfig::hwlc_dr());
    vm_helgrind.add(seconds_sim(repeats, &helgrind));
  }

  const double base = native.min();
  support::Table table("slowdown vs native execution");
  table.header({"Stage", "best time [us]", "slowdown", "paper"});
  char buf[32], factor[32];
  auto row = [&](const char* name, double t, const char* paper) {
    std::snprintf(buf, sizeof buf, "%.0f", t * 1e6);
    std::snprintf(factor, sizeof factor, "%.1fx", t / base);
    table.row(name, buf, factor, paper);
  };
  row("native, one thread (no VM)", native.min(), "1x");
  row("native, thread per request (not gated)", native_threads.min(), "-");
  row("VM only (scheduler, no tools)", vm_only.min(), "8-10x");
  row("VM + Helgrind HWLC+DR", vm_helgrind.min(), "20-30x");
  std::printf("%s\n", table.render().c_str());
  std::printf("VM + HWLC+DR / VM only: %.2fx\n\n",
              vm_helgrind.min() / vm_only.min());

  const bool ordered = vm_only.min() > native.min() &&
                       vm_helgrind.min() > vm_only.min();
  std::printf(
      "Reproduction: native (one thread) < VM-only < VM+detector [%s]; the "
      "analysis multiplies the VM cost, as in the paper (\"the time "
      "consumed by analysis directly reduces the execution speed\").\n",
      ordered ? "yes" : "NO");
  std::printf(
      "Note: absolute factors are substrate-dependent; Valgrind pays binary\n"
      "translation per instruction, our VM pays a scheduling point per\n"
      "instrumented operation.\n");

  return ordered ? 0 : 1;
}
