// E5 — the §4.3 false-negative study: delayed lock-set initialisation
// makes detection order-dependent.
//
// "Suppose, one thread writes a shared location without acquiring a lock,
// whereas another thread does the same, but coincidentally holds a lock
// during that access. If the first access takes place before the second
// one, no warning is reported ... If a different schedule leads to another
// execution order, the (possible) data race is found and reported."
#include <gtest/gtest.h>

#include "core/helgrind.hpp"
#include "detector_harness.hpp"
#include "rt/sim.hpp"
#include "rt/memory.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::ThreadId;

constexpr rt::Addr kAddr = 0x60000;

/// The §4.3 event pattern with an explicit access order.
std::size_t run_order(HelgrindTool& tool, bool unlocked_first) {
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("unlocked-writer");
  const ThreadId b = h.thread("locked-writer");
  (void)main;
  const auto m = h.lock("m");
  if (unlocked_first) {
    h.write(a, kAddr);
    h.acquire(b, m);
    h.write(b, kAddr);
    h.release(b, m);
  } else {
    h.acquire(b, m);
    h.write(b, kAddr);
    h.release(b, m);
    h.write(a, kAddr);
  }
  return tool.reports().distinct_locations();
}

TEST(FalseNegative, HelgrindMissesWhenUnlockedAccessComesFirst) {
  // Lock-set initialisation is delayed to the second thread's access,
  // which holds the lock: C(v) = {m}, no warning. The race is missed.
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EXPECT_EQ(run_order(tool, /*unlocked_first=*/true), 0u);
}

TEST(FalseNegative, HelgrindFindsItInTheOtherOrder) {
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EXPECT_EQ(run_order(tool, /*unlocked_first=*/false), 1u);
}

TEST(FalseNegative, BasicEraserIsOrderIndependent) {
  // "One of its greatest strength is the ability to report data races
  // independent of execution order" — the unrefined algorithm keeps it.
  for (bool unlocked_first : {true, false}) {
    HelgrindTool tool(HelgrindConfig::eraser_basic());
    EXPECT_GE(run_order(tool, unlocked_first), 1u)
        << "order=" << unlocked_first;
  }
}

/// Full-simulator version: the schedule decides the order, so detection
/// becomes a function of the seed — "repeated tests with different test
/// data (resulting in different interleavings) could help find such
/// data-races".
bool detected_with_seed(std::uint64_t seed) {
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
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

class FalseNegativeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FalseNegativeSweep, DetectionIsDeterministicPerSeed) {
  EXPECT_EQ(detected_with_seed(GetParam()), detected_with_seed(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FalseNegativeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FalseNegativeSweepSummary, SomeSchedulesDetectSomeMiss) {
  int detected = 0;
  const int total = 24;
  for (std::uint64_t seed = 1; seed <= total; ++seed)
    if (detected_with_seed(seed)) ++detected;
  // The race is real and reported under many — but not all — schedules.
  EXPECT_GT(detected, 0);
  EXPECT_LT(detected, total);
}

TEST(FalseNegativeSweepSummary, RerunningWithMoreSeedsHelps) {
  // Monotonicity of the paper's advice: a union over more schedules can
  // only grow.
  bool found_by_4 = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    found_by_4 |= detected_with_seed(seed);
  bool found_by_24 = found_by_4;
  for (std::uint64_t seed = 5; seed <= 24; ++seed)
    found_by_24 |= detected_with_seed(seed);
  EXPECT_TRUE(!found_by_4 || found_by_24);
  EXPECT_TRUE(found_by_24);
}

}  // namespace
}  // namespace rg::core
