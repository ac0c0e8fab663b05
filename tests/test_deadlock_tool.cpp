// LockGraphTool — lock-order graph checking (the naive tier).
#include <gtest/gtest.h>

#include "core/lockgraph.hpp"
#include "detector_harness.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::ThreadId;

TEST(DeadlockOrder, ConsistentOrderIsSilent) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  for (ThreadId t : {main, t1, main}) {
    h.acquire(t, a);
    h.acquire(t, b);  // always a before b
    h.release(t, b);
    h.release(t, a);
  }
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
  EXPECT_GE(tool.edge_count(), 1u);
}

TEST(DeadlockOrder, InversionReported) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  h.acquire(main, a);
  h.acquire(main, b);
  h.release(main, b);
  h.release(main, a);
  // Opposite order in another thread — a potential deadlock even though
  // this run never blocked.
  h.acquire(t1, b);
  h.acquire(t1, a);
  h.release(t1, a);
  h.release(t1, b);
  ASSERT_EQ(tool.reports().distinct_locations(), 1u);
  const Report& r = tool.reports().reports()[0];
  EXPECT_EQ(r.kind, Report::Kind::LockOrderInversion);
  EXPECT_NE(r.extra.find("'a'"), std::string::npos);
  EXPECT_NE(r.extra.find("'b'"), std::string::npos);
}

TEST(DeadlockOrder, ReportedOncePerPair) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  for (int i = 0; i < 3; ++i) {
    h.acquire(main, a);
    h.acquire(main, b);
    h.release(main, b);
    h.release(main, a);
    h.acquire(main, b);
    h.acquire(main, a);
    h.release(main, a);
    h.release(main, b);
  }
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(DeadlockOrder, ThreeLockCycle) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  const auto c = h.lock("c");
  auto pair = [&](rt::LockId first, rt::LockId second) {
    h.acquire(main, first);
    h.acquire(main, second);
    h.release(main, second);
    h.release(main, first);
  };
  pair(a, b);
  pair(b, c);
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
  pair(c, a);  // closes the 3-cycle
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(DeadlockOrder, NestedSameLockIgnored) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto a = h.lock("a");
  // pre_lock for a lock already held (recursive rwlock read) must not
  // self-edge.
  h.acquire(main, a, rt::LockMode::Shared);
  h.runtime().pre_lock(main, a, rt::LockMode::Shared, h.site("again"));
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
}

TEST(DeadlockOrder, ChainWithoutCycleIsFine) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  std::vector<rt::LockId> locks;
  for (int i = 0; i < 6; ++i) locks.push_back(h.lock("l" + std::to_string(i)));
  // Strictly ordered chain l0 < l1 < ... < l5.
  for (std::size_t i = 0; i + 1 < locks.size(); ++i) {
    h.acquire(main, locks[i]);
    h.acquire(main, locks[i + 1]);
    h.release(main, locks[i + 1]);
    h.release(main, locks[i]);
  }
  EXPECT_EQ(tool.reports().distinct_locations(), 0u);
  EXPECT_EQ(tool.edge_count(), 5u);
}

}  // namespace
}  // namespace rg::core
