// Quickstart — find a data race in 40 lines.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The program under test runs inside the deterministic simulator (the
// stand-in for the Valgrind VM); the HelgrindTool consumes its event
// stream and prints a Helgrind-style report for the unsynchronised
// counter while staying silent about the lock-protected one.
#include <cstdio>

#include "core/helgrind.hpp"
#include "rt/memory.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"

int main() {
  using namespace rg;

  // 1. Pick a detector configuration. hwlc_dr() is the paper's final
  //    one: corrected bus-lock model + destructor annotations honoured.
  core::HelgrindTool detector(core::HelgrindConfig::hwlc_dr());

  // 2. Create a simulation and attach the detector.
  rt::Sim sim;
  sim.attach(detector);

  // 3. Run the program under test.
  sim.run([] {
    rt::mutex mu("counter-mutex");
    rt::tracked<int> protected_counter;
    rt::tracked<int> racy_counter;

    auto worker = [&] {
      for (int i = 0; i < 50; ++i) {
        {
          rt::lock_guard guard(mu);
          protected_counter.store(protected_counter.load() + 1);
        }
        // Oops: no lock here.
        racy_counter.store(racy_counter.load() + 1);
      }
    };
    rt::thread a(worker, "worker-a");
    rt::thread b(worker, "worker-b");
    a.join();
    b.join();

    std::printf("protected counter: %d (always 100)\n",
                protected_counter.load());
    std::printf("racy counter:      %d (may have lost updates)\n",
                racy_counter.load());
  });

  // 4. Read the report.
  std::printf("\n%zu distinct race location(s) reported:\n\n",
              detector.reports().distinct_locations());
  std::printf("%s", detector.reports().render().c_str());
  return detector.reports().distinct_locations() == 1 ? 0 : 1;
}
