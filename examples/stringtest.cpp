// stringtest — the paper's Fig. 8 program, line for line.
//
//   /*! \file stringtest.cpp
//    *  \brief Test shared read-access of std::string-objects. */
//
// A reference-counted string is created by main, copied by a worker
// thread, and copied again by main. The copy at "line 22" triggers a
// bus-locked increment of the shared reference counter; under the original
// Helgrind bus-lock model this is reported as a possible data race (the
// Fig. 9 warning), under the paper's corrected model it is not.
//
// Run with an argument to choose the model: `stringtest original` or
// `stringtest hwlc` (default: both).
#include <cstdio>
#include <cstring>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"
#include "sip/cow_string.hpp"

namespace {

void stringtest(rg::sip::cow_string* text) {
  // void* workerThread(void* arguments)
  auto worker_thread = [text] {
    rg::sip::cow_string local = *text;  // std::string text = *(std::string*)arguments;
    (void)local.size();
  };

  rg::rt::thread thread_id(worker_thread, "workerThread");  // pthread_create
  rg::rt::sleep_ticks(1000);                                // sleep(1);
  rg::sip::cow_string text_copy = *text;  // <- reported conflict (line 22)
  thread_id.join();                       // pthread_join
}

int run(rg::core::BusLockModel model, const char* label) {
  rg::core::HelgrindConfig cfg;
  cfg.bus_lock_model = model;
  rg::core::HelgrindTool detector(cfg);
  rg::rt::Sim sim;
  sim.attach(detector);
  sim.run([] {
    rg::sip::cow_string text("contents");  // std::string text("contents");
    stringtest(&text);
  });
  std::printf("=== bus lock modelled as %s: %zu warning(s)\n", label,
              detector.reports().distinct_locations());
  std::printf("%s\n", detector.reports().render().c_str());
  return static_cast<int>(detector.reports().distinct_locations());
}

}  // namespace

int main(int argc, char** argv) {
  const bool run_original =
      argc < 2 || std::strcmp(argv[1], "original") == 0;
  const bool run_hwlc = argc < 2 || std::strcmp(argv[1], "hwlc") == 0;

  int original_warnings = -1, hwlc_warnings = -1;
  if (run_original)
    original_warnings =
        run(rg::core::BusLockModel::Mutex, "a plain mutex (original)");
  if (run_hwlc)
    hwlc_warnings =
        run(rg::core::BusLockModel::RwLock, "a read-write lock (HWLC)");

  if (run_original && run_hwlc) {
    std::printf("The spurious warning in the string class is %s by the "
                "corrected emulation.\n",
                original_warnings == 1 && hwlc_warnings == 0 ? "removed"
                                                             : "NOT removed");
  }
  return 0;
}
