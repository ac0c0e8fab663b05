// HelgrindTool: the Fig. 1 state machine, thread segments, both bus-lock
// models, destructor annotations, rwlock support, and the message-passing
// extension — driven by synthetic event streams for exactness.
#include <gtest/gtest.h>

#include "core/helgrind.hpp"
#include "detector_harness.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::LockMode;
using rt::ThreadId;

constexpr rt::Addr kAddr = 0x10000;

std::size_t races(const HelgrindTool& tool) {
  return tool.reports().distinct_locations();
}

// --- Fig. 1 state machine -----------------------------------------------------

TEST(HelgrindStates, SingleThreadNeverWarns) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  for (int i = 0; i < 10; ++i) {
    h.write(main, kAddr);
    h.read(main, kAddr);
  }
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindStates, InitThenReadSharingIsSilent) {
  // "Locks are not needed for some shared variables that are initialized
  // once by one thread and subsequently only read by the other threads."
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const ThreadId t2 = h.thread("t2");
  h.write(main, kAddr);  // initialise, no locks
  h.write(main, kAddr);
  h.read(t1, kAddr);  // read-shared
  h.read(t2, kAddr);
  h.read(main, kAddr);
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindStates, UnlockedSharedWriteWarns) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  h.write(main, kAddr);
  h.read(t1, kAddr);   // shared RO
  h.write(t1, kAddr);  // shared RW with empty lockset -> warn
  EXPECT_EQ(races(tool), 1u);
}

TEST(HelgrindStates, ConsistentLockingIsSilent) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m = h.lock("m");
  for (ThreadId t : {main, t1, main, t1}) {
    h.acquire(t, m);
    h.read(t, kAddr);
    h.write(t, kAddr);
    h.release(t, m);
  }
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindStates, LockSetRefinesToCommonLock) {
  // Different threads hold different supersets; the common lock protects.
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m1 = h.lock("m1");
  const auto m2 = h.lock("m2");
  const auto m3 = h.lock("m3");
  h.acquire(main, m1);
  h.acquire(main, m2);
  h.write(main, kAddr);
  h.release(main, m2);
  h.release(main, m1);
  h.acquire(t1, m1);
  h.acquire(t1, m3);
  h.write(t1, kAddr);
  h.release(t1, m3);
  h.release(t1, m1);
  EXPECT_EQ(races(tool), 0u);  // C(v) = {m1}
}

TEST(HelgrindStates, DisjointLocksWarn) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m1 = h.lock("m1");
  const auto m2 = h.lock("m2");
  h.acquire(main, m1);
  h.write(main, kAddr);
  h.release(main, m1);
  h.acquire(t1, m2);
  h.write(t1, kAddr);  // segment hand-off: still exclusive, no warning yet
  h.release(t1, m2);
  // Concurrent access from main's post-create segment: genuinely shared.
  h.acquire(main, m1);
  h.write(main, kAddr);  // C(v) = {m2} ∩ {m1} = {}
  h.release(main, m1);
  EXPECT_EQ(races(tool), 1u);
}

TEST(HelgrindStates, ReadInSharedModifiedStateWarnsWhenUnlocked) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m = h.lock("m");
  h.acquire(main, m);
  h.write(main, kAddr);
  h.release(main, m);
  h.acquire(t1, m);
  h.write(t1, kAddr);  // shared RW, C = {m}
  h.release(t1, m);
  h.read(main, kAddr);  // unlocked read in shared-modified -> warn
  EXPECT_EQ(races(tool), 1u);
}

TEST(HelgrindStates, ReadsInSharedReadStateNeverWarn) {
  // Fig. 1: "race conditions are only reported in the SHARED-MODIFIED
  // state".
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const ThreadId t2 = h.thread("t2");
  const auto m = h.lock("m");
  h.acquire(main, m);
  h.read(main, kAddr);
  h.release(main, m);
  h.read(t1, kAddr);  // no locks — lockset empties
  h.read(t2, kAddr);
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindStates, EraserStopsCheckingAfterReport) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  h.write(main, kAddr);
  h.read(t1, kAddr);
  h.write(t1, kAddr);  // warn once
  for (int i = 0; i < 10; ++i) h.write(t1, kAddr);
  EXPECT_EQ(races(tool), 1u);
  EXPECT_EQ(tool.reports().total_warnings(), 1u);
}

TEST(HelgrindStates, DistinctGranulesReportSeparately) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  for (rt::Addr addr : {kAddr, kAddr + 64}) {
    h.write(main, addr, "init" + std::to_string(addr));
    h.read(t1, addr, "r" + std::to_string(addr));
    h.write(t1, addr, "w" + std::to_string(addr));
  }
  EXPECT_EQ(races(tool), 2u);
}

// --- thread segments (Fig. 2) ----------------------------------------------------

TEST(HelgrindSegments, OwnershipPassesToChild) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);  // initialise
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);  // exclusive transfer, not sharing
  h.write(child, kAddr);
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindSegments, OwnershipReturnsAfterJoin) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);
  h.join(main, child);
  h.write(main, kAddr);  // after join: still exclusive
  EXPECT_EQ(races(tool), 0u);
}

TEST(HelgrindSegments, ConcurrentSiblingsShare) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(a, kAddr);  // transfer to a
  h.write(b, kAddr);  // b is concurrent with a -> shared-modified, no locks
  EXPECT_EQ(races(tool), 1u);
}

TEST(HelgrindSegments, ParentWriteAfterCreateShares) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);  // child owns it
  h.write(main, kAddr);   // parent post-create segment: concurrent
  EXPECT_EQ(races(tool), 1u);
}

TEST(HelgrindSegments, DisabledSegmentsShareOnSecondThread) {
  HelgrindConfig cfg;
  cfg.thread_segments = false;
  HelgrindTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);
  const ThreadId child = h.thread("child");
  h.write(child, kAddr);  // without segments: plain Eraser -> shared, warn
  EXPECT_EQ(races(tool), 1u);
}

// --- bus-lock models (§3.1, §4.2.2) ----------------------------------------------

/// The Figs. 8/9 refcount pattern as raw events.
template <typename Tool>
std::size_t run_refcount_pattern(Tool& tool) {
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  h.write(main, kAddr);  // rep constructed
  const ThreadId worker = h.thread("worker");
  // Worker copies the string: plain read (leak check) + LOCKed ++, then
  // LOCKed -- at scope end.
  h.read(worker, kAddr, "leak-check-w");
  h.write_locked(worker, kAddr, "grab-w");
  h.write_locked(worker, kAddr, "dispose-w");
  // Main (concurrent with worker) copies too — Fig. 8 line 22.
  h.read(main, kAddr, "leak-check-m");
  h.write_locked(main, kAddr, "grab-m");
  return tool.reports().distinct_locations();
}

TEST(BusLock, MutexModelFlagsRefcount) {
  HelgrindConfig cfg;
  cfg.bus_lock_model = BusLockModel::Mutex;
  HelgrindTool tool(cfg);
  EXPECT_EQ(run_refcount_pattern(tool), 1u);
  // The Fig. 9 shape: previous state shared RO, no locks.
  ASSERT_EQ(tool.reports().reports().size(), 1u);
  EXPECT_NE(tool.reports().reports()[0].prev_state.find("shared RO"),
            std::string::npos);
}

TEST(BusLock, RwModelSilencesRefcount) {
  HelgrindConfig cfg;
  cfg.bus_lock_model = BusLockModel::RwLock;
  HelgrindTool tool(cfg);
  EXPECT_EQ(run_refcount_pattern(tool), 0u);
}

TEST(BusLock, RwModelStillCatchesPlainWrite) {
  // A plain (non-LOCKed) write holds the bus rw-lock in no mode at all.
  HelgrindConfig cfg;
  cfg.bus_lock_model = BusLockModel::RwLock;
  HelgrindTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(main, kAddr);
  h.read(a, kAddr);
  h.write(b, kAddr);  // plain write -> warn
  EXPECT_EQ(races(tool), 1u);
}

TEST(BusLock, MixedLockedAndPlainWritesWarnUnderRwModel) {
  // Not all writes carry LOCK: the write rule intersects away the bus
  // lock on the plain write.
  HelgrindConfig cfg;
  cfg.bus_lock_model = BusLockModel::RwLock;
  HelgrindTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(main, kAddr);
  h.write_locked(a, kAddr);
  h.write(b, kAddr);  // plain write from a third party
  EXPECT_EQ(races(tool), 1u);
}

// --- destructor annotation (§3.1, §4.2.1) ------------------------------------------

/// Shared object with lockset {m}; destructor writes the vptr without the
/// lock.
template <typename Tool>
std::size_t run_destruction_pattern(Tool& tool, EventHarness& h,
                                    bool annotate) {
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  const auto m = h.lock("m");
  h.alloc(main, kAddr, 32);
  // vptr (first word) read by concurrent virtual calls, no lock held.
  h.read(a, kAddr, "vcall-a", 8);
  h.read(b, kAddr, "vcall-b", 8);
  // Destruction by b: annotation (if enabled) then the vptr rewrites.
  if (annotate) h.destruct(b, kAddr, 32);
  h.write(b, kAddr, "dtor-derived", 8);
  h.write(b, kAddr, "dtor-base", 8);
  h.free(b, kAddr);
  (void)m;
  return tool.reports().distinct_locations();
}

TEST(DestructorAnnotation, UnannotatedDeleteWarns) {
  HelgrindTool tool(HelgrindConfig::hwlc());
  EventHarness h;
  EXPECT_EQ(run_destruction_pattern(tool, h, /*annotate=*/false), 1u);
}

TEST(DestructorAnnotation, AnnotatedDeleteIsSilent) {
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EventHarness h;
  EXPECT_EQ(run_destruction_pattern(tool, h, /*annotate=*/true), 0u);
}

TEST(DestructorAnnotation, OriginalToolIgnoresAnnotation) {
  // Original Helgrind does not understand the client request.
  HelgrindTool tool(HelgrindConfig::original());
  EventHarness h;
  EXPECT_EQ(run_destruction_pattern(tool, h, /*annotate=*/true), 1u);
}

TEST(DestructorAnnotation, CrossThreadAccessDuringDestructionStillCaught) {
  // "Accesses by other threads during destruction are still detected."
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.alloc(main, kAddr, 32);
  h.read(a, kAddr, "vcall-a", 8);
  h.read(b, kAddr, "vcall-b", 8);
  h.destruct(b, kAddr, 32);
  h.write(b, kAddr, "dtor", 8);
  h.write(a, kAddr, "concurrent-during-dtor", 8);  // a barges in
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(DestructorAnnotation, AnnotationCoversWholeRange) {
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.alloc(main, kAddr, 32);
  h.read(a, kAddr + 16, "field-a");
  h.read(b, kAddr + 16, "field-b");
  h.destruct(b, kAddr, 32);
  h.write(b, kAddr + 16, "member-dtor");  // inside the annotated range
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

// --- allocation lifecycle ------------------------------------------------------------

TEST(Allocation, FreeResetsState) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.alloc(main, kAddr, 16);
  h.write(a, kAddr);
  h.write(b, kAddr);  // shared -> warn
  EXPECT_EQ(races(tool), 1u);
  h.free(b, kAddr);
  h.alloc(main, kAddr, 16);
  h.write(main, kAddr, "fresh-lifetime");
  h.write(main, kAddr, "fresh-lifetime-2");
  EXPECT_EQ(races(tool), 1u);  // no new warning: state was reset
}

TEST(Allocation, ReuseWithoutFreeEventsKeepsStaleState) {
  // The §4 libstdc++ pool behaviour: no free/alloc events on recycle, so
  // the stale lockset from the previous lifetime causes a false positive.
  HelgrindTool tool(HelgrindConfig::hwlc());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  const auto m1 = h.lock("log-a-mutex");
  const auto m2 = h.lock("log-b-mutex");
  h.alloc(main, kAddr, 16);
  // Lifetime 1: consistently guarded by m1, genuinely shared.
  h.acquire(a, m1);
  h.write(a, kAddr);
  h.release(a, m1);
  h.acquire(b, m1);
  h.write(b, kAddr);
  h.release(b, m1);
  EXPECT_EQ(races(tool), 0u);
  // Recycled (no events) into a structure guarded by m2:
  h.acquire(a, m2);
  h.write(a, kAddr, "recycled-write");
  h.release(a, m2);
  EXPECT_EQ(races(tool), 1u);  // {m1} ∩ {m2} = {}: the reuse FP
}

// --- rwlock API (HWLC by-product) ---------------------------------------------------

// The rw tests also register the lock before the tool attaches: the tool
// then never sees its on_lock_create, and the kind must come from the
// runtime.

TEST(RwLockApi, ReadersUnderRwLockAreSilent) {
  for (bool lock_first : {false, true}) {
    SCOPED_TRACE(lock_first ? "lock before attach" : "lock after attach");
    HelgrindTool tool(HelgrindConfig::hwlc());
    EventHarness h;
    if (!lock_first) h.attach(tool);
    const auto rw = h.lock("rw", /*rw=*/true);
    if (lock_first) h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId a = h.thread("a");
    const ThreadId b = h.thread("b");
    h.acquire(main, rw, LockMode::Exclusive);
    h.write(main, kAddr);
    h.release(main, rw);
    h.acquire(a, rw, LockMode::Shared);
    h.read(a, kAddr);
    h.release(a, rw);
    h.acquire(b, rw, LockMode::Exclusive);
    h.write(b, kAddr);
    h.release(b, rw);
    EXPECT_EQ(races(tool), 0u);
  }
}

TEST(RwLockApi, WriteUnderReadLockWarns) {
  // Eraser write rule: a read-mode lock does not protect a write.
  HelgrindConfig cfg = HelgrindConfig::hwlc();
  HelgrindTool tool(cfg);
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  const auto rw = h.lock("rw", /*rw=*/true);
  h.acquire(main, rw, LockMode::Exclusive);
  h.write(main, kAddr);
  h.release(main, rw);
  h.acquire(a, rw, LockMode::Shared);
  h.read(a, kAddr);
  h.release(a, rw);
  h.acquire(b, rw, LockMode::Shared);
  h.write(b, kAddr);  // writing under a read lock!
  h.release(b, rw);
  EXPECT_EQ(races(tool), 1u);
}

TEST(RwLockApi, OriginalToolIsBlindToRwLocks) {
  // Original Helgrind did not intercept pthread_rwlock: rw-guarded data
  // looks unguarded.
  for (bool lock_first : {false, true}) {
    SCOPED_TRACE(lock_first ? "lock before attach" : "lock after attach");
    HelgrindTool tool(HelgrindConfig::original());
    EventHarness h;
    if (!lock_first) h.attach(tool);
    const auto rw = h.lock("rw", /*rw=*/true);
    if (lock_first) h.attach(tool);
    const ThreadId main = h.thread("main");
    const ThreadId a = h.thread("a");
    const ThreadId b = h.thread("b");
    for (ThreadId t : {main, a, b}) {
      h.acquire(t, rw, LockMode::Exclusive);
      h.write(t, kAddr);
      h.release(t, rw);
    }
    EXPECT_EQ(races(tool), 1u);  // false positive of the original tool
  }
}

// --- message-passing extension (§5 future work) --------------------------------------

template <typename Tool>
std::size_t run_pool_handoff(Tool& tool) {
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("pool-worker");  // created BEFORE the job
  const auto q = h.sync("queue");
  h.alloc(main, kAddr, 16);
  h.write(main, kAddr, "init-job");  // Fig. 11: initialised after create
  h.queue_put(main, q, /*token=*/1);
  h.queue_get(worker, q, /*token=*/1);
  h.write(worker, kAddr, "worker-touch");  // first worker write
  return tool.reports().distinct_locations();
}

TEST(MessagePassing, BaselineFlagsPoolHandoff) {
  HelgrindTool tool(HelgrindConfig::hwlc_dr());
  EXPECT_EQ(run_pool_handoff(tool), 1u);  // the Fig. 11 false positive
}

TEST(MessagePassing, ExtensionRemovesPoolHandoffFp) {
  HelgrindTool tool(HelgrindConfig::extended());
  EXPECT_EQ(run_pool_handoff(tool), 0u);
}

TEST(MessagePassing, ExtensionStillCatchesNonHandoffRace) {
  HelgrindTool tool(HelgrindConfig::extended());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("worker");
  const auto q = h.sync("queue");
  h.write(main, kAddr);
  h.queue_put(main, q, 1);
  h.queue_get(worker, q, 1);
  h.write(worker, kAddr);        // fine: ordered by the hand-off
  h.write(main, kAddr, "late");  // main touches it again concurrently!
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(MessagePassing, UnpairedTokensCreateNoEdges) {
  HelgrindTool tool(HelgrindConfig::extended());
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("worker");
  const auto q = h.sync("queue");
  h.write(main, kAddr);
  h.queue_get(worker, q, /*token=*/0);  // initial-credit token
  h.write(worker, kAddr);
  // worker's first segment is ordered after main's creating segment, so
  // ownership transfers even without the queue edge; a later main write
  // shares.
  h.write(main, kAddr, "main-again");
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

// --- report details -------------------------------------------------------------------

TEST(Reports, CarryOriginAndLockset) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.alloc(main, kAddr, 24);
  h.write(main, kAddr + 8);
  h.read(a, kAddr + 8);
  h.write(b, kAddr + 8);  // a and b are concurrent siblings
  ASSERT_EQ(tool.reports().reports().size(), 1u);
  const Report& r = tool.reports().reports()[0];
  EXPECT_TRUE(r.origin.known);
  EXPECT_EQ(r.origin.offset, 8u);
  EXPECT_EQ(r.origin.alloc.size, 24u);
  EXPECT_EQ(r.access.kind, rt::AccessKind::Write);
  EXPECT_EQ(r.access.thread, b);
  EXPECT_EQ(r.lockset_desc, "{}");
}

TEST(Reports, RenderLooksLikeHelgrind) {
  HelgrindTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.alloc(main, kAddr, 21);
  h.read(a, kAddr + 8);
  h.write(b, kAddr + 8);
  const std::string text = tool.reports().render(h.runtime());
  EXPECT_NE(text.find("Possible data race writing"), std::string::npos);
  EXPECT_NE(text.find("8 bytes inside a block of size 21"),
            std::string::npos);
  EXPECT_NE(text.find("Previous state:"), std::string::npos);
}

}  // namespace
}  // namespace rg::core
