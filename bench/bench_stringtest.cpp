// E3 — regenerates Figs. 8/9: the stringtest.cpp program (a std::string
// copied between threads) produces exactly one "Possible data race writing"
// warning at the reference-counter increment under the original mutex
// model of the hardware bus lock, and none under the paper's read-write
// model (HWLC).
#include <cstdio>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"
#include "sip/cow_string.hpp"

namespace {

/// Fig. 8, stringtest.cpp ("Test shared read-access of std::string-objects"),
/// line for line on the instrumented runtime, with the paper's lines as
/// comments: main creates a string, a worker thread copies it, and main
/// copies it again while the worker may still hold its copy.
void stringtest_body() {
  using namespace rg;
  sip::cow_string text("contents");  // std::string text("contents");

  rt::thread worker(  // pthread_create
      [&] {           // void* workerThread(void* arguments)
        // std::string text = *(std::string*)arguments;
        sip::cow_string local = text;
        (void)local.size();
      },
      "workerThread");

  rt::sleep_ticks(1000);  // sleep(1);
  sip::cow_string text_copy = text;  // <- reported conflict (Fig. 8 line 22)

  worker.join();  // pthread_join
}

std::size_t run_under(rg::core::BusLockModel model, std::string* report) {
  using namespace rg;
  core::HelgrindConfig cfg;
  cfg.bus_lock_model = model;
  core::HelgrindTool tool(cfg);
  rt::Sim sim;
  sim.attach(tool);
  sim.run(stringtest_body);
  *report = tool.reports().render();
  return tool.reports().distinct_locations();
}

}  // namespace

int main() {
  std::printf("Figs. 8/9 — shared std::string reference counting\n\n");

  std::string report;
  const std::size_t original =
      run_under(rg::core::BusLockModel::Mutex, &report);
  std::printf("Original Helgrind (bus lock as mutex): %zu warning(s)\n",
              original);
  std::printf("%s", report.c_str());
  std::printf("(paper Fig. 9: \"Possible data race writing variable ... in "
              "_M_grab ... Previous state: shared RO, no locks\")\n\n");

  const std::size_t corrected =
      run_under(rg::core::BusLockModel::RwLock, &report);
  std::printf("Corrected (HWLC, bus lock as rw-lock):  %zu warning(s)\n\n",
              corrected);

  const bool shape_holds = original == 1 && corrected == 0;
  std::printf("Reproduction: original flags the refcount %s, HWLC silences "
              "it %s -> %s\n",
              original >= 1 ? "[yes]" : "[NO]",
              corrected == 0 ? "[yes]" : "[NO]",
              shape_holds ? "MATCHES the paper" : "DIVERGES");

  return shape_holds ? 0 : 1;
}
