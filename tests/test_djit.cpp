// DjitTool — vector-clock happens-before detection (§2.2).
#include <gtest/gtest.h>

#include "core/djit.hpp"
#include "detector_harness.hpp"
#include "obs/recorder.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::ThreadId;

constexpr rt::Addr kAddr = 0x30000;

TEST(Djit, SingleThreadSilent) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  for (int i = 0; i < 10; ++i) {
    h.write(main, kAddr);
    h.read(main, kAddr);
  }
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, CreateEdgeOrdersParentBeforeChild) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);  // ordered after the parent's write
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, JoinEdgeOrdersChildBeforeParent) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);
  h.join(main, child);
  h.write(main, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, ConcurrentWritesAreApparentRace) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.write(a, kAddr);
  h.write(b, kAddr);  // unordered with a's write
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(Djit, WriteAfterConcurrentReadIsRace) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.read(a, kAddr);
  h.write(b, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(Djit, ConcurrentReadsAreFine) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.read(a, kAddr);
  h.read(b, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, LockReleaseAcquireCreatesOrder) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  const auto m = h.lock("m");
  h.acquire(a, m);
  h.write(a, kAddr);
  h.release(a, m);
  h.acquire(b, m);
  h.write(b, kAddr);  // ordered by the lock hand-over
  h.release(b, m);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, MissesLockCoincidenceRace) {
  // The key weakness vs. Eraser: accesses that happen to be ordered by a
  // lock in THIS schedule are not flagged, even if no common lock guards
  // the location. DJIT "detects data races on a subset of shared locations
  // that are reported by the lock-set approach".
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  const auto m = h.lock("m");
  // a writes under m; b also happens to lock/unlock m before its write;
  // the release->acquire chain orders them in this execution.
  h.acquire(a, m);
  h.write(a, kAddr);
  h.release(a, m);
  h.acquire(b, m);
  h.release(b, m);
  h.write(b, kAddr);  // ordered via the m hand-over in THIS schedule
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);  // missed!
}

TEST(Djit, ReportsOnlyFirstApparentRacePerLocation) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.write(a, kAddr);
  h.write(b, kAddr);
  h.write(a, kAddr);
  h.write(b, kAddr);
  EXPECT_EQ(tool.reports().total_warnings(), 1u);
}

TEST(Djit, MessageHandoffCreatesOrder) {
  DjitTool tool;  // message_hb defaults on
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("worker");
  const auto q = h.sync("q");
  h.write(main, kAddr);
  h.queue_put(main, q, 1);
  h.queue_get(worker, q, 1);
  h.write(worker, kAddr);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, MessageHbCanBeDisabled) {
  DjitConfig cfg;
  cfg.message_hb = false;
  DjitTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("worker");
  const auto q = h.sync("q");
  h.write(worker, kAddr);  // worker touches first (it owns the pattern)
  h.queue_put(worker, q, 1);
  h.queue_get(main, q, 1);
  h.write(main, kAddr);  // without hb edges this is unordered
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(Djit, CondvarHbIsUnsoundAndOffByDefault) {
  // §2.2: "nor is the relation between signal and wait operations on
  // conditions strong enough to impose the assumed order". With the
  // relation enabled, the detector wrongly believes the accesses ordered.
  for (bool condvar_hb : {false, true}) {
    DjitConfig cfg;
    cfg.condvar_hb = condvar_hb;
    DjitTool tool(cfg);
    EventHarness h;
    h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId waiter = h.thread("waiter");
    const auto cv = h.sync("cv");
    const auto m = h.lock("m");
    h.write(main, kAddr);
    h.runtime().cond_signal(main, cv, h.site("signal"));
    h.runtime().cond_wait_return(waiter, cv, m, h.site("wait"));
    h.write(waiter, kAddr);
    const std::size_t expected = condvar_hb ? 0u : 1u;
    EXPECT_EQ(tool.reports().distinct_locations(), expected)
        << "condvar_hb=" << condvar_hb;
  }
}

TEST(Djit, FreeResetsHistory) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.alloc(a, kAddr, 8);
  h.write(a, kAddr);
  h.free(a, kAddr);
  h.alloc(b, kAddr, 8);
  h.write(b, kAddr);  // new lifetime: no race with the old write
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(Djit, ReportNamesConflictingAccess) {
  DjitTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.write(a, kAddr, "first-writer");
  h.write(b, kAddr, "second-writer");
  ASSERT_EQ(tool.reports().reports().size(), 1u);
  EXPECT_NE(tool.reports().reports()[0].extra.find("first-writer"),
            std::string::npos);
}

TEST(Djit, ReportCarriesRecorderCursor) {
  // Shared report provenance: rg-debug --explain narrates a DJIT warning
  // from the recorder events before its cursor, as for the lockset tools.
  obs::FlightRecorder recorder;
  DjitTool tool;
  EventHarness h;
  h.runtime().set_recorder(&recorder);
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 8);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(a, kAddr);
  h.write(b, kAddr);
  ASSERT_EQ(tool.reports().distinct_locations(), 1u);
  const Report& r = tool.reports().reports().front();
  EXPECT_GT(r.recorder_cursor, 0u);
  EXPECT_LE(r.recorder_cursor, recorder.cursor());
}

}  // namespace
}  // namespace rg::core
