// EraserBasicTool — the unrefined lockset algorithm (§2.3.2 first listing).
#include <gtest/gtest.h>

#include "core/eraser.hpp"
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
  EraserBasicTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(EraserBasic, SilentUnderConsistentLock) {
  EraserBasicTool tool;
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
    EraserBasicTool tool;
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

TEST(EraserBasic, ReadWarningsCanBeDisabled) {
  EraserBasicConfig cfg;
  cfg.warn_on_reads = false;
  EraserBasicTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.read(main, kAddr);  // empty lockset but only a read
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
  h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(EraserBasic, RwRuleFromOriginalPaper) {
  // "An extension for read-write locks that is presented in the original
  // Eraser algorithm is not implemented in Helgrind" — here it is. The
  // lock is also registered before the tool attaches, so the tool never
  // sees its on_lock_create.
  for (bool lock_first : {false, true}) {
    SCOPED_TRACE(lock_first ? "lock before attach" : "lock after attach");
    EraserBasicConfig cfg;
    cfg.rw_rule = true;
    EraserBasicTool tool(cfg);
    EventHarness h;
    if (!lock_first) h.attach(tool);
    const auto rw = h.lock("rw", true);
    if (lock_first) h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId t1 = h.thread("t1");
    // Writers in write mode, readers in read mode: fine.
    h.acquire(main, rw, LockMode::Exclusive);
    h.write(main, kAddr);
    h.release(main, rw);
    h.acquire(t1, rw, LockMode::Shared);
    h.read(t1, kAddr);
    h.release(t1, rw);
    EXPECT_EQ(tool.reports().distinct_locations(), 0u);
    // A write under only the read lock violates the discipline.
    h.acquire(t1, rw, LockMode::Shared);
    h.write(t1, kAddr);
    h.release(t1, rw);
    EXPECT_EQ(tool.reports().distinct_locations(), 1u);
  }
}

TEST(EraserBasic, WithoutRwRuleReadLockCountsForWrites) {
  EraserBasicTool tool;  // rw_rule off
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
  EraserBasicTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  for (int i = 0; i < 5; ++i) h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
  EXPECT_EQ(tool.reports().total_warnings(), 1u);
}

TEST(EraserBasic, AllocResetsCandidateSet) {
  EraserBasicTool tool;
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
  EraserBasicTool basic;
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

}  // namespace
}  // namespace rg::core
