// E5 — the §4.3 false-negative study.
//
// One thread writes a shared location without a lock while another writes
// it holding one. Whether the refined (state-machine) algorithm reports the
// race depends on the observed order, i.e. on the schedule; the unrefined
// Eraser algorithm is order-independent. We sweep seeds and report the
// detection fraction of each detector.
#include <cstdio>

#include "core/helgrind.hpp"
#include "rt/memory.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"
#include "support/table.hpp"

namespace {

bool detects(const rg::core::HelgrindConfig& config, std::uint64_t seed) {
  using namespace rg;
  core::HelgrindTool tool(config);
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  sim.attach(tool);
  sim.run([&] {
    rt::mutex m("m");
    rt::tracked<int> shared;
    rt::thread unlocked([&] {
      for (int i = 0; i < 3; ++i) {
        shared.store(1);
        rt::yield();
      }
    });
    rt::thread locked([&] {
      for (int i = 0; i < 3; ++i) {
        rt::lock_guard g(m);
        shared.store(2);
        rt::yield();
      }
    });
    unlocked.join();
    locked.join();
  });
  return tool.reports().distinct_locations() > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rg;
  int seeds = 64;
  if (argc > 1) seeds = std::atoi(argv[1]);

  std::printf("§4.3 — order-dependent false negatives (%d schedules)\n\n",
              seeds);

  int helgrind_hits = 0;
  int eraser_hits = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const auto s = static_cast<std::uint64_t>(seed);
    if (detects(core::HelgrindConfig::hwlc_dr(), s)) ++helgrind_hits;
    if (detects(core::HelgrindConfig::eraser_basic(), s)) ++eraser_hits;
  }

  support::Table table("detection fraction over schedules");
  table.header({"Detector", "detected", "missed", "fraction"});
  char frac[16];
  std::snprintf(frac, sizeof frac, "%.0f%%",
                100.0 * helgrind_hits / seeds);
  table.row("Helgrind (states + segments)", helgrind_hits,
            seeds - helgrind_hits, frac);
  std::snprintf(frac, sizeof frac, "%.0f%%", 100.0 * eraser_hits / seeds);
  table.row("Eraser basic (no states)", eraser_hits, seeds - eraser_hits,
            frac);
  std::printf("%s\n", table.render().c_str());

  const bool shape = eraser_hits == seeds && helgrind_hits > 0 &&
                     helgrind_hits < seeds;
  std::printf(
      "Reproduction: the refined algorithm misses the race under some\n"
      "schedules (\"not guaranteed to happen in the development\n"
      "environment\") while basic Eraser reports it under every one -> %s\n",
      shape ? "MATCHES the paper" : "DIVERGES");

  return shape ? 0 : 1;
}
