// Refinement::Basic — the unrefined lockset algorithm (§2.3.2 first
// listing), run by HelgrindTool(HelgrindConfig::eraser_basic()).
#include <gtest/gtest.h>

#include "core/helgrind.hpp"
#include "detector_harness.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::LockMode;
using rt::ThreadId;

constexpr rt::Addr kAddr = 0x20000;

TEST(EraserBasic, WarnsOnUnlockedInitialisation) {
  // No state machine: even single-thread initialisation without a lock
  // empties C(v) — the "too many false positives" behaviour the states
  // were added to fix.
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(EraserBasic, SilentUnderConsistentLock) {
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m = h.lock("m");
  for (ThreadId t : {main, t1, main}) {
    h.acquire(t, m);
    h.write(t, kAddr);
    h.read(t, kAddr);
    h.release(t, m);
  }
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(EraserBasic, OrderIndependentDetection) {
  // The §4.3 property the refined algorithm loses: regardless of which
  // access comes first, the unlocked one empties the set.
  for (bool unlocked_first : {true, false}) {
    HelgrindTool tool(HelgrindConfig::eraser_basic());
    EventHarness h;
    h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId t1 = h.thread("t1");
    const auto m = h.lock("m");
    if (unlocked_first) {
      h.write(main, kAddr);
      h.acquire(t1, m);
      h.write(t1, kAddr);
      h.release(t1, m);
    } else {
      h.acquire(t1, m);
      h.write(t1, kAddr);
      h.release(t1, m);
      h.write(main, kAddr);
    }
    EXPECT_EQ(tool.reports().distinct_locations(), 1u)
        << "unlocked_first=" << unlocked_first;
  }
}

TEST(EraserBasic, ReadLockCountsForWrites) {
  // No write rule: a lock held in any mode protects a write. The rw lock
  // counts although the default bus-lock model hides rw locks from the
  // refined levels.
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto rw = h.lock("rw", true);
  h.acquire(main, rw, LockMode::Shared);
  h.write(main, kAddr);  // simple-lock treatment: set = {rw}, no warning
  h.release(main, rw);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(EraserBasic, StopsAfterFirstReportPerLocation) {
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  for (int i = 0; i < 5; ++i) h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
  EXPECT_EQ(tool.reports().total_warnings(), 1u);
}

TEST(EraserBasic, AllocResetsCandidateSet) {
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto m = h.lock("m");
  h.write(main, kAddr, "unlocked-1");  // warns
  h.alloc(main, kAddr, 8);
  h.acquire(main, m);
  h.write(main, kAddr, "locked-after-realloc");
  h.release(main, m);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(EraserBasic, SupersetOfHelgrindFindings) {
  // Everything the refined tool reports, the basic one reports too (on
  // the same stream); the converse does not hold.
  HelgrindTool basic(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(basic);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  h.write(main, kAddr);
  h.read(t1, kAddr);
  h.write(t1, kAddr);
  // The basic detector flags this, and it also flags pure initialisation
  // (kAddr+64) the refined one would not.
  h.write(main, kAddr + 64, "init-only");
  EXPECT_GE(basic.reports().distinct_locations(), 2u);
}

TEST(EraserBasic, IgnoresTheBusLock) {
  // Neither bus-lock model adds the bus lock to locks_held(t): two threads'
  // LOCKed writes with no lock held empty C(v) at the first one.
  for (BusLockModel model : {BusLockModel::Mutex, BusLockModel::RwLock}) {
    HelgrindConfig cfg = HelgrindConfig::eraser_basic();
    cfg.bus_lock_model = model;
    HelgrindTool tool(cfg);
    EventHarness h;
    h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId t1 = h.thread("t1");
    h.write_locked(main, kAddr);
    h.write_locked(t1, kAddr);
    EXPECT_EQ(tool.reports().distinct_locations(), 1u)
        << "rw model=" << (model == BusLockModel::RwLock);
  }
}

TEST(EraserBasic, ReportNamesNoMemoryState) {
  // The cell never passed through a Fig. 1 state, so the report names
  // none; it gives the candidate set the access emptied.
  HelgrindTool tool(HelgrindConfig::eraser_basic());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m = h.lock("m");
  h.acquire(main, m);
  h.write(main, kAddr);
  h.release(main, m);
  h.write(t1, kAddr);
  ASSERT_EQ(tool.reports().reports().size(), 1u);
  EXPECT_EQ(tool.reports().reports()[0].prev_state,
            "lockset emptied (no state machine), lockset {m}");
}

}  // namespace
}  // namespace rg::core
