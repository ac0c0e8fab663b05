// LockGraphTool tier B — acquisition histories, cross-thread refinements
// and the replay-to-deadlock oracle.
#include <gtest/gtest.h>

#include "core/lockgraph.hpp"
#include "detector_harness.hpp"
#include "obs/metrics.hpp"
#include "rt/replay.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::ThreadId;

TEST(LockGraph, TwoThreadInversionPredicted) {
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
  h.acquire(t1, b);
  h.acquire(t1, a);
  h.release(t1, a);
  h.release(t1, b);
  h.runtime().finish();

  ASSERT_EQ(tool.predicted().size(), 1u);
  const PredictedCycle& c = tool.predicted()[0];
  ASSERT_EQ(c.edges.size(), 2u);
  // Distinct threads, and each edge's second is the next edge's first.
  EXPECT_NE(c.edges[0].tid, c.edges[1].tid);
  EXPECT_EQ(c.edges[0].second, c.edges[1].first);
  EXPECT_EQ(c.edges[1].second, c.edges[0].first);
  // The prediction also lands as a report with cycle participants.
  ASSERT_EQ(tool.predictions().reports().size(), 1u);
  const Report& r = tool.predictions().reports()[0];
  EXPECT_EQ(r.kind, Report::Kind::PredictedDeadlock);
  EXPECT_EQ(r.cycle_locks.size(), 2u);
  EXPECT_EQ(r.cycle_threads.size(), 2u);
  EXPECT_NE(r.extra.find("predicted cycle"), std::string::npos);
  // Tier A flags the same inversion (naive baseline).
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
}

TEST(LockGraph, SingleThreadCycleNotPredicted) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  h.acquire(main, a);
  h.acquire(main, b);
  h.release(main, b);
  h.release(main, a);
  h.acquire(main, b);
  h.acquire(main, a);
  h.release(main, a);
  h.release(main, b);
  h.runtime().finish();

  // The naive tier keeps reporting (pre-refinement baseline)...
  EXPECT_EQ(tool.reports().distinct_locations(), 1u);
  // ...but one thread cannot block on itself: the refined tier prunes.
  EXPECT_EQ(tool.predicted().size(), 0u);
  EXPECT_GE(tool.counters().pruned_single_thread, 1u);
}

TEST(LockGraph, GateLockSuppressesPrediction) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  // Both inversion sides run under a common gate lock: the critical
  // sections are serialized and the cycle can never block.
  h.acquire(main, g);
  h.acquire(main, a);
  h.acquire(main, b);
  h.release(main, b);
  h.release(main, a);
  h.release(main, g);
  h.acquire(t1, g);
  h.acquire(t1, b);
  h.acquire(t1, a);
  h.release(t1, a);
  h.release(t1, b);
  h.release(t1, g);
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 0u);
  EXPECT_GE(tool.counters().pruned_guarded, 1u);
}

TEST(LockGraph, GateOnOneSideOnlyStillPredicted) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  h.acquire(main, g);
  h.acquire(main, a);
  h.acquire(main, b);
  h.release(main, b);
  h.release(main, a);
  h.release(main, g);
  // The opposite nesting does NOT take the gate: no serialization.
  h.acquire(t1, b);
  h.acquire(t1, a);
  h.release(t1, a);
  h.release(t1, b);
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 1u);
}

TEST(LockGraph, ForkInheritedSameSpanDoesNotSerialize) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  // Parent holds the gate across both forks: the children inherit the
  // *same* hold span — one critical section, which cannot serialize the
  // two inversion sides against each other.
  h.acquire(main, g);
  const ThreadId t1 = h.thread("t1", main);
  const ThreadId t2 = h.thread("t2", main);
  h.acquire(t1, a);
  h.acquire(t1, b);
  h.release(t1, b);
  h.release(t1, a);
  h.acquire(t2, b);
  h.acquire(t2, a);
  h.release(t2, a);
  h.release(t2, b);
  h.join(main, t1);
  h.join(main, t2);
  h.release(main, g);
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 1u);
}

TEST(LockGraph, ForkInheritedDistinctSpansSerialize) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  // Each child runs enclosed in its *own* parent hold of the gate
  // (released only after the join): the two critical sections are
  // serialized — the cross-thread gate refinement must suppress.
  h.acquire(main, g);
  const ThreadId t1 = h.thread("t1", main);
  h.acquire(t1, a);
  h.acquire(t1, b);
  h.release(t1, b);
  h.release(t1, a);
  h.join(main, t1);
  h.release(main, g);
  h.acquire(main, g);
  const ThreadId t2 = h.thread("t2", main);
  h.acquire(t2, b);
  h.acquire(t2, a);
  h.release(t2, a);
  h.release(t2, b);
  h.join(main, t2);
  h.release(main, g);
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 0u);
  EXPECT_GE(tool.counters().pruned_guarded, 1u);
}

TEST(LockGraph, RecursiveParentHoldClosesAtOutermostRelease) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  // The parent re-enters the gate and drops the inner hold before the
  // join: the outer hold still encloses t1's lifetime, so the span t1
  // inherited closes only at the outermost release, after the join.
  h.acquire(main, g);
  const ThreadId t1 = h.thread("t1", main);
  h.acquire(main, g);
  h.release(main, g);
  h.acquire(t1, a);
  h.acquire(t1, b);
  h.release(t1, b);
  h.release(t1, a);
  h.join(main, t1);
  h.release(main, g);
  h.acquire(main, g);
  const ThreadId t2 = h.thread("t2", main);
  h.acquire(t2, b);
  h.acquire(t2, a);
  h.release(t2, a);
  h.release(t2, b);
  h.join(main, t2);
  h.release(main, g);
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 0u);
  EXPECT_GE(tool.counters().pruned_guarded, 1u);
}

TEST(LockGraph, UnconfirmedCandidateResolvedAtFinish) {
  LockGraphTool tool;
  EventHarness h;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const auto g = h.lock("gate");
  const auto a = h.lock("a");
  const auto b = h.lock("b");
  // The parent releases the gate *before* joining each child: the
  // inherited candidate does not enclose the child's lifetime, so it is
  // no guard at all. The verdict stays pending online (pessimistic says
  // serialized, optimistic says feasible) and resolves at finish.
  h.acquire(main, g);
  const ThreadId t1 = h.thread("t1", main);
  h.release(main, g);
  h.acquire(t1, a);
  h.acquire(t1, b);
  h.release(t1, b);
  h.release(t1, a);
  h.join(main, t1);
  h.acquire(main, g);
  const ThreadId t2 = h.thread("t2", main);
  h.release(main, g);
  h.acquire(t2, b);
  h.acquire(t2, a);
  h.release(t2, a);
  h.release(t2, b);
  h.join(main, t2);
  EXPECT_EQ(tool.predicted().size(), 0u);  // pending until finish
  h.runtime().finish();

  EXPECT_EQ(tool.predicted().size(), 1u);
  EXPECT_GE(tool.counters().pending_resolved, 1u);
}

TEST(LockGraph, ExportMetrics) {
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
  h.acquire(t1, b);
  h.acquire(t1, a);
  h.release(t1, a);
  h.release(t1, b);
  h.runtime().finish();

  obs::MetricsRegistry m;
  tool.export_metrics(m);
  EXPECT_EQ(m.counter("lockgraph.edges").value(), 2u);
  EXPECT_EQ(m.counter("lockgraph.predicted_cycles").value(), 1u);
  EXPECT_EQ(m.counter("lockgraph.naive_inversions").value(), 1u);
  EXPECT_GE(m.counter("lockgraph.instances").value(), 2u);
}

// --- replay-to-deadlock oracle ----------------------------------------------

/// Two threads nesting a/b in opposite orders; both spawned before either
/// join so the oracle can stage them concurrently.
void inversion_program(rt::ThreadId* tid1, rt::ThreadId* tid2) {
  rt::mutex a("lock-a");
  rt::mutex b("lock-b");
  rt::thread t1(
      [&] {
        rt::lock_guard la(a);
        rt::lock_guard lb(b);
      },
      "t1");
  rt::thread t2(
      [&] {
        rt::lock_guard lb(b);
        rt::lock_guard la(a);
      },
      "t2");
  *tid1 = t1.tid();
  *tid2 = t2.tid();
  t1.join();
  t2.join();
}

TEST(ReplayOracle, ConfirmsPredictedCycle) {
  // Prediction pass: find a seed whose schedule completes (the paper's
  // setting — predictions come from non-deadlocking runs) and predicts.
  core::PredictedCycle cycle;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 64 && seed == 0; ++s) {
    LockGraphTool tool;
    rt::SimConfig cfg;
    cfg.sched.seed = s;
    rt::Sim sim(cfg);
    sim.attach(tool);
    rt::ThreadId t1 = rt::kNoThread;
    rt::ThreadId t2 = rt::kNoThread;
    const rt::SimResult r =
        sim.run([&] { inversion_program(&t1, &t2); });
    if (r.completed() && tool.predicted().size() == 1) {
      cycle = tool.predicted()[0];
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u) << "no completing schedule predicted the cycle";
  ASSERT_EQ(cycle.edges.size(), 2u);

  // Confirmation pass: same seed, with the driver steering the schedule.
  rt::CycleSpec spec;
  for (const core::PredictedCycle::Edge& e : cycle.edges)
    spec.edges.push_back({e.tid, e.first, e.second});
  rt::CycleReplayDriver driver(spec);
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  sim.attach(driver);
  rt::ThreadId t1 = rt::kNoThread;
  rt::ThreadId t2 = rt::kNoThread;
  const rt::SimResult r = sim.run([&] { inversion_program(&t1, &t2); });

  EXPECT_TRUE(r.deadlocked());
  EXPECT_TRUE(driver.released());
  EXPECT_TRUE(driver.confirmed(r.deadlock));
}

TEST(ReplayOracle, UnstagedCycleIsNotConfirmed) {
  // A spec naming a thread that never nests: staging cannot complete, the
  // run finishes normally and the oracle must not claim confirmation.
  rt::CycleSpec spec;
  spec.edges.push_back({/*tid=*/0, /*first=*/0, /*second=*/1});
  spec.edges.push_back({/*tid=*/0, /*first=*/1, /*second=*/0});
  rt::CycleReplayDriver driver(spec);
  rt::SimConfig cfg;
  cfg.sched.seed = 3;
  rt::Sim sim(cfg);
  sim.attach(driver);
  const rt::SimResult r = sim.run([&] {
    rt::mutex a("a");
    rt::lock_guard la(a);
  });
  EXPECT_TRUE(r.completed());
  EXPECT_FALSE(driver.released());
  EXPECT_FALSE(driver.confirmed(r.deadlock));
}

}  // namespace
}  // namespace rg::core
