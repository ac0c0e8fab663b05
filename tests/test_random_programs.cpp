// Randomised-program properties: generate small multi-threaded programs
// and check detector-level invariants that must hold for ANY program:
//   1. the simulation completes and is deterministic per seed,
//   2. every address the refined Helgrind flags is also flagged by the
//      unrefined Eraser algorithm (the refinements only REMOVE warnings),
//   3. every object DJIT flags is also flagged by unrefined Eraser (a race
//      that manifested unordered broke the lock discipline),
//   4. a fully lock-disciplined program is never flagged,
//   5. detector verdicts are a pure function of the event stream (running
//      twice with the same seed yields identical location keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "core/djit.hpp"
#include "core/helgrind.hpp"
#include "core/hybrid.hpp"
#include "rt/memory.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"
#include "shadow/shadow_map.hpp"
#include "support/prng.hpp"

namespace rg {
namespace {

struct ProgramSpec {
  int threads = 3;
  int ops_per_thread = 30;
  bool disciplined = false;  // every access under the one global lock
  std::uint64_t program_seed = 1;
  /// Scheduler fast path (off = the rescanning reference mode). Must be
  /// invisible: verdicts identical on or off.
  bool optimized = true;
};

struct RunResult {
  std::set<rt::Addr> helgrind_addrs;
  std::set<rt::Addr> eraser_addrs;
  /// Keyed by accessed object (core::object_of), as merge_hybrid joins.
  std::set<std::uint64_t> eraser_objects;
  std::set<std::uint64_t> djit_objects;
  std::vector<std::string> helgrind_keys;
  bool completed = false;
  std::uint64_t steps = 0;
};

/// One random program: `threads` workers doing a random mix of locked and
/// unlocked reads/writes over four shared cells, each its own allocation.
RunResult run_program(const ProgramSpec& spec, std::uint64_t sched_seed) {
  core::HelgrindTool helgrind(core::HelgrindConfig::original());
  core::HelgrindTool eraser(core::HelgrindConfig::eraser_basic());
  core::DjitTool djit;

  rt::SimConfig cfg;
  cfg.sched.seed = sched_seed;
  cfg.sched.fast_path = spec.optimized;
  rt::Sim sim(cfg);
  sim.attach(helgrind);
  sim.attach(eraser);
  sim.attach(djit);

  const rt::SimResult sim_result = sim.run([&] {
    rt::mutex mu("global");
    // Heap cells so the detectors see alloc events and fresh state. Each
    // is its own allocation, from its own line: a report's location key
    // names the allocation site, so each detector keeps a report per cell
    // rather than one for whichever cell raced first at an access site.
    auto new_cell = [](const std::source_location& site =
                           std::source_location::current()) {
      auto* cell = new rt::tracked<int>;
      rt::mem_alloc(cell, sizeof *cell, site);
      return cell;
    };
    const std::array<rt::tracked<int>*, 4> cells = {
        new_cell(),
        new_cell(),
        new_cell(),
        new_cell(),
    };

    auto worker = [&](int id) {
      support::Xoshiro256 rng(spec.program_seed * 131 +
                              static_cast<std::uint64_t>(id));
      for (int op = 0; op < spec.ops_per_thread; ++op) {
        auto& cell = *cells[rng.below(4)];
        const bool locked = spec.disciplined || rng.chance(1, 2);
        const bool is_write = rng.chance(1, 2);
        if (locked) {
          rt::lock_guard g(mu);
          if (is_write)
            cell.store(id);
          else
            (void)cell.load();
        } else {
          if (is_write)
            cell.store(-id);
          else
            (void)cell.load();
        }
        if (rng.chance(1, 4)) rt::yield();
      }
    };

    std::vector<rt::thread> workers;
    for (int t = 0; t < spec.threads; ++t)
      workers.emplace_back([&worker, t] { worker(t); });
    for (auto& w : workers) w.join();

    for (auto* cell : cells) {
      rt::mem_free(cell, std::source_location::current());
      delete cell;
    }
  });

  RunResult out;
  out.completed = sim_result.completed();
  out.steps = sim_result.steps;
  for (const core::Report& r : helgrind.reports().reports())
    out.helgrind_addrs.insert(shadow::granule_of(r.access.addr));
  for (const core::Report& r : eraser.reports().reports()) {
    out.eraser_addrs.insert(shadow::granule_of(r.access.addr));
    out.eraser_objects.insert(core::object_of(r));
  }
  for (const core::Report& r : djit.reports().reports())
    out.djit_objects.insert(core::object_of(r));
  out.helgrind_keys = helgrind.reports().location_keys();
  return out;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, CompletesAndIsDeterministic) {
  ProgramSpec spec;
  spec.program_seed = GetParam();
  const RunResult a = run_program(spec, GetParam() * 3 + 1);
  const RunResult b = run_program(spec, GetParam() * 3 + 1);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.helgrind_keys, b.helgrind_keys);
  // (Raw addresses differ across runs — the heap moves — so determinism is
  // asserted on steps and location keys, not on addresses.)
  EXPECT_EQ(a.helgrind_addrs.size(), b.helgrind_addrs.size());
}

TEST_P(RandomPrograms, RefinementsOnlyRemoveWarnings) {
  // Every granule the refined detector flags must be flagged by the
  // unrefined one: the states/segments only suppress, never invent.
  ProgramSpec spec;
  spec.program_seed = GetParam();
  const RunResult r = run_program(spec, GetParam() * 7 + 5);
  for (rt::Addr granule : r.helgrind_addrs)
    EXPECT_TRUE(r.eraser_addrs.contains(granule))
        << "granule " << granule << " flagged by Helgrind only";
}

TEST_P(RandomPrograms, HappensBeforeFlagsOnlyWhatBasicEraserFlags) {
  // Two accesses DJIT finds unordered cannot both hold the global lock, so
  // basic Eraser has emptied that object's candidate set. Keyed by object,
  // not granule: ReportManager keeps one report per location key, so the
  // granules the two detectors' stored reports name need not match.
  ProgramSpec spec;
  spec.program_seed = GetParam();
  std::size_t djit_flagged = 0;
  std::size_t most_objects = 0;
  for (std::uint64_t sched = 1; sched <= 8; ++sched) {
    const RunResult r = run_program(spec, sched);
    djit_flagged += r.djit_objects.size();
    most_objects = std::max(most_objects, r.djit_objects.size());
    for (std::uint64_t object : r.djit_objects)
      EXPECT_TRUE(r.eraser_objects.contains(object))
          << "object " << object << " flagged by DJIT only (schedule "
          << sched << ")";
  }
  EXPECT_GT(djit_flagged, 0u) << "no schedule raced: the check is vacuous";
  EXPECT_GT(most_objects, 1u) << "the check compares a single object";
}

TEST_P(RandomPrograms, OptimizationsAreInvisible) {
  // The scheduler fast path is pure memoisation: with it disabled the same
  // program under the same schedule seed must take the same number of steps
  // and produce the same warning keys from both detectors. (The shadow TLB
  // is covered at unit level by ShadowMap.MatchesReferenceModelWithoutTlb.)
  ProgramSpec spec;
  spec.program_seed = GetParam();
  ProgramSpec plain = spec;
  plain.optimized = false;
  const RunResult fast = run_program(spec, GetParam() * 5 + 2);
  const RunResult slow = run_program(plain, GetParam() * 5 + 2);
  EXPECT_TRUE(fast.completed);
  EXPECT_EQ(fast.steps, slow.steps);
  EXPECT_EQ(fast.helgrind_keys, slow.helgrind_keys);
  EXPECT_EQ(fast.helgrind_addrs.size(), slow.helgrind_addrs.size());
  EXPECT_EQ(fast.eraser_addrs.size(), slow.eraser_addrs.size());
}

TEST_P(RandomPrograms, DisciplinedProgramIsClean) {
  ProgramSpec spec;
  spec.program_seed = GetParam();
  spec.disciplined = true;
  const RunResult r = run_program(spec, GetParam() * 11 + 3);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.helgrind_addrs.empty());
  // The basic algorithm flags nothing either: every access holds the lock.
  EXPECT_TRUE(r.eraser_addrs.empty());
  EXPECT_TRUE(r.djit_objects.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(RandomProgramsCross, DifferentSchedulesDifferentWarnings) {
  // Schedule-dependence is real: across schedules the racy programs
  // produce varying (but always deterministic) warning sets.
  ProgramSpec spec;
  spec.program_seed = 42;
  std::set<std::vector<std::string>> distinct;
  for (std::uint64_t sched = 1; sched <= 6; ++sched)
    distinct.insert(run_program(spec, sched).helgrind_keys);
  EXPECT_GE(distinct.size(), 2u);
}

TEST(RandomProgramsCross, MoreThreadsMoreSteps) {
  ProgramSpec small, big;
  small.program_seed = big.program_seed = 5;
  small.threads = 2;
  big.threads = 6;
  EXPECT_LT(run_program(small, 9).steps, run_program(big, 9).steps);
}

}  // namespace
}  // namespace rg
