// Hybrid lockset + happens-before verdicts (Multi-Race style): a
// HelgrindTool and a DjitTool attached to one runtime, merged afterwards.
#include <gtest/gtest.h>

#include <map>

#include "core/djit.hpp"
#include "core/helgrind.hpp"
#include "core/hybrid.hpp"
#include "detector_harness.hpp"
#include "rt/sim.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sipp/testcases.hpp"

namespace rg::core {
namespace {

using rg::test::EventHarness;
using rt::ThreadId;

constexpr rt::Addr kAddr = 0x40000;

/// The hybrid's two passes, attached to one harness.
struct Passes {
  explicit Passes(EventHarness& h, const DjitConfig& hb = {})
      : lockset(HelgrindConfig::hwlc_dr()), djit(hb) {
    h.attach(lockset);
    h.attach(djit);
  }
  HybridReport merge() const {
    return merge_hybrid(lockset.reports(), djit.reports());
  }
  HelgrindTool lockset;
  DjitTool djit;
};

TEST(Hybrid, CleanProgramProducesNoVerdicts) {
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  const ThreadId t1 = h.thread("t1");
  const auto m = h.lock("m");
  for (ThreadId t : {main, t1, main}) {
    h.acquire(t, m);
    h.write(t, kAddr);
    h.release(t, m);
  }
  h.runtime().finish();
  EXPECT_TRUE(passes.merge().verdicts.empty());
}

TEST(Hybrid, ConfirmedRaceFlaggedByBoth) {
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 8);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(a, kAddr);
  h.write(b, kAddr);  // unordered, no locks: both detectors fire
  h.runtime().finish();
  const HybridReport hybrid = passes.merge();
  ASSERT_EQ(hybrid.verdicts.size(), 1u);
  EXPECT_TRUE(hybrid.verdicts[0].confirmed);
  EXPECT_EQ(hybrid.verdicts[0].report.extra,
            "hybrid: confirmed by happens-before ordering");
  EXPECT_EQ(hybrid.confirmed, 1u);
  EXPECT_EQ(hybrid.possible, 0u);
}

TEST(Hybrid, LockCoincidenceIsLocksetOnly) {
  // The ordering in this schedule happens to serialise the accesses via
  // the same mutex, but no common lock guards the data: lockset flags it,
  // happens-before cannot.
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 8);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  const ThreadId c = h.thread("c");
  const auto m1 = h.lock("m1");
  const auto m2 = h.lock("m2");
  const auto m3 = h.lock("m3");
  h.acquire(a, m1);
  h.write(a, kAddr);
  h.release(a, m1);
  // b syncs with a through m1 (release->acquire orders the accesses in
  // this schedule), then writes under its own lock. The lockset is
  // initialised here — at the first *shared* access — to {m2}.
  h.acquire(b, m1);
  h.release(b, m1);
  h.acquire(b, m2);
  h.write(b, kAddr);
  h.release(b, m2);
  // c syncs with b through m2 and writes under m3: {m2} ∩ {m3} = {} — the
  // lockset warns, while every pair of accesses is HB-ordered by the
  // accidental lock hand-overs.
  h.acquire(c, m2);
  h.release(c, m2);
  h.acquire(c, m3);
  h.write(c, kAddr);
  h.release(c, m3);
  h.runtime().finish();
  const HybridReport hybrid = passes.merge();
  ASSERT_EQ(hybrid.verdicts.size(), 1u);
  EXPECT_FALSE(hybrid.verdicts[0].confirmed);
  EXPECT_FALSE(hybrid.verdicts[0].hb_only);
  EXPECT_EQ(hybrid.verdicts[0].report.extra,
            "hybrid: lockset only (order-dependent candidate)");
  EXPECT_EQ(hybrid.possible, 1u);
}

TEST(Hybrid, HbOnlyWhenLocksetDisciplineHolds) {
  // Both accesses hold the same lock, so the lockset discipline is
  // satisfied; DJIT with lock edges switched off cannot see the ordering
  // the lock provides and flags the pair.
  EventHarness h;
  DjitConfig strict;
  strict.lock_hb = false;
  Passes passes(h, strict);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 8);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  const auto m = h.lock("m");
  h.acquire(a, m);
  h.write(a, kAddr);
  h.release(a, m);
  h.acquire(b, m);
  h.write(b, kAddr);
  h.release(b, m);
  h.runtime().finish();
  // Lockset: C(v)={m} — silent. DJIT without lock edges: unordered — race.
  const HybridReport hybrid = passes.merge();
  ASSERT_EQ(hybrid.verdicts.size(), 1u);
  EXPECT_TRUE(hybrid.verdicts[0].hb_only);
  EXPECT_EQ(hybrid.verdicts[0].report.extra,
            "hybrid: happens-before only (lockset discipline held)");
  EXPECT_EQ(hybrid.hb_only, 1u);
}

TEST(Hybrid, BothPassesSeeAllocationEvents) {
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 16);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(a, kAddr);
  h.free(a, kAddr);
  h.alloc(b, kAddr, 16);
  h.write(b, kAddr);  // fresh lifetime in both passes
  h.runtime().finish();
  EXPECT_TRUE(passes.merge().verdicts.empty());
}

TEST(Hybrid, OneVerdictPerObject) {
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  h.alloc(main, kAddr, 8);
  h.alloc(main, kAddr + 64, 8);
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  h.write(a, kAddr, "w1");
  h.write(b, kAddr, "w2");
  h.write(a, kAddr + 64, "w3");
  h.write(b, kAddr + 64, "w4");
  h.runtime().finish();
  const HybridReport hybrid = passes.merge();
  EXPECT_EQ(hybrid.verdicts.size(), 2u);
  EXPECT_EQ(hybrid.confirmed, 2u);
}

TEST(Hybrid, EachPassReportsOnItsOwn) {
  EventHarness h;
  Passes passes(h);
  const ThreadId main = h.thread("main");
  const ThreadId a = h.thread("a");
  const ThreadId b = h.thread("b");
  (void)main;
  h.write(a, kAddr);
  h.write(b, kAddr);
  h.runtime().finish();
  EXPECT_EQ(passes.lockset.reports().distinct_locations(), 1u);
  EXPECT_EQ(passes.djit.reports().distinct_locations(), 1u);
}

/// Runs test case `n` at `seed` with the given tools attached to one Sim,
/// the way bench_detectors drives E9.
template <typename... Tools>
void run_testcase(int n, std::uint64_t seed, Tools&... tools) {
  rt::SimConfig cfg;
  cfg.sched.seed = seed;
  rt::Sim sim(cfg);
  (sim.attach(tools), ...);
  sim.run([&] {
    sip::ProxyConfig pcfg;
    pcfg.faults = sip::FaultConfig::paper();
    sip::Proxy proxy(pcfg);
    proxy.start();
    sip::ThreadPerRequestDispatcher dispatcher(8);
    const sipp::Scenario scenario = sipp::build_testcase(n, seed);
    for (const auto& phase : scenario.phases)
      (void)dispatcher.dispatch(proxy, phase);
    proxy.shutdown();
  });
}

TEST(Hybrid, ComposingThePassesChangesNeitherReportSet) {
  // E9 runs HWLC+DR and DJIT in one Sim: neither tool may see a different
  // execution than it would alone.
  constexpr std::uint64_t kSeed = 7;
  for (int n = 1; n <= sipp::kTestCaseCount; ++n) {
    SCOPED_TRACE("T" + std::to_string(n));
    HelgrindTool lockset_alone(HelgrindConfig::hwlc_dr());
    run_testcase(n, kSeed, lockset_alone);
    DjitTool djit_alone;
    run_testcase(n, kSeed, djit_alone);
    HelgrindTool lockset(HelgrindConfig::hwlc_dr());
    DjitTool djit;
    run_testcase(n, kSeed, lockset, djit);
    EXPECT_EQ(lockset.reports().location_keys(),
              lockset_alone.reports().location_keys());
    EXPECT_EQ(djit.reports().location_keys(),
              djit_alone.reports().location_keys());

    // Every lockset location gets exactly one verdict, in report order.
    const HybridReport hybrid =
        merge_hybrid(lockset.reports(), djit.reports());
    const std::vector<Report>& found = lockset.reports().reports();
    ASSERT_GE(hybrid.verdicts.size(), found.size());
    for (std::size_t i = 0; i < found.size(); ++i) {
      EXPECT_EQ(hybrid.verdicts[i].report.location_key(),
                found[i].location_key());
      EXPECT_FALSE(hybrid.verdicts[i].hb_only);
    }
    EXPECT_EQ(hybrid.confirmed + hybrid.possible, found.size());
    EXPECT_EQ(hybrid.verdicts.size(), found.size() + hybrid.hb_only);
  }
}

}  // namespace
}  // namespace rg::core
