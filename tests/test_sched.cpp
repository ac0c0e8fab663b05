// Scheduler semantics: determinism, switch probability, blocking, virtual
// time, deadlock detection, abort paths.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <vector>

#include "obs/recorder.hpp"
#include "rt/memory.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"
#include "rt/tool.hpp"

namespace rg::rt {
namespace {

TEST(Sim, RunsEntryToCompletion) {
  Sim sim;
  bool ran = false;
  const SimResult r = sim.run([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.outcome, SimOutcome::Completed);
}

TEST(Sim, MainThreadIsZero) {
  Sim sim;
  sim.run([&] { EXPECT_EQ(Sim::current_thread(), kMainThread); });
}

TEST(Sim, CurrentIsNullOutside) { EXPECT_EQ(Sim::current(), nullptr); }

TEST(Sim, CurrentIsSetInside) {
  Sim sim;
  sim.run([&] { EXPECT_EQ(Sim::current(), &sim); });
  EXPECT_EQ(Sim::current(), nullptr);
}

TEST(Sim, CurrentCoversMainStartAndFinish) {
  // Layers above the runtime reach the recorder and span tracker only
  // through Sim::current(), so tool events raised outside the scheduled
  // run (main's start, on_finish) must see the Sim too.
  struct Probe : Tool {
    void on_thread_start(ThreadId tid, ThreadId, support::SiteId) override {
      if (tid == kMainThread) main_start = Sim::current();
    }
    void on_finish() override { finish = Sim::current(); }
    Sim* main_start = nullptr;
    Sim* finish = nullptr;
  } probe;
  Sim sim;
  sim.attach(probe);
  sim.run([] {});
  EXPECT_EQ(probe.main_start, &sim);
  EXPECT_EQ(probe.finish, &sim);
  EXPECT_EQ(Sim::current(), nullptr);
}

TEST(Sim, ThreadsGetDistinctIds) {
  Sim sim;
  sim.run([&] {
    std::vector<ThreadId> ids;
    tracked<int> dummy;
    thread a([&] { ids.push_back(Sim::current_thread()); }, "a");
    a.join();
    thread b([&] { ids.push_back(Sim::current_thread()); }, "b");
    b.join();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_NE(ids[0], ids[1]);
    EXPECT_NE(ids[0], kMainThread);
  });
}

TEST(Sim, JoinWaitsForChild) {
  Sim sim;
  sim.run([&] {
    int value = 0;
    thread child([&] {
      for (int i = 0; i < 100; ++i) yield();
      value = 42;
    });
    child.join();
    EXPECT_EQ(value, 42);
  });
}

TEST(Sim, DestructorJoins) {
  Sim sim;
  int value = 0;
  sim.run([&] {
    {
      thread child([&] { value = 7; });
      // no explicit join: the destructor must join
    }
    EXPECT_EQ(value, 7);
  });
}

TEST(Sim, DetachedThreadsDrainAtEnd) {
  Sim sim;
  int value = 0;
  const SimResult r = sim.run([&] {
    thread child([&] {
      for (int i = 0; i < 10; ++i) yield();
      value = 1;
    });
    child.detach();
  });
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(value, 1);
}

TEST(Sim, ClientExceptionIsReported) {
  Sim sim;
  const SimResult r = sim.run(
      [&] { throw std::runtime_error("boom in client"); });
  EXPECT_EQ(r.outcome, SimOutcome::ClientError);
  EXPECT_NE(r.error.find("boom"), std::string::npos);
}

TEST(Sim, WorkerExceptionIsReported) {
  Sim sim;
  const SimResult r = sim.run([&] {
    thread child([] { throw std::runtime_error("worker died"); });
    child.join();
  });
  EXPECT_EQ(r.outcome, SimOutcome::ClientError);
}

// --- determinism -----------------------------------------------------------------

std::vector<int> interleaving_trace(std::uint64_t seed) {
  SimConfig cfg;
  cfg.sched.seed = seed;
  Sim sim(cfg);
  std::vector<int> trace;
  sim.run([&] {
    tracked<int> cell;
    thread a([&] {
      for (int i = 0; i < 25; ++i) {
        cell.store(1);
        trace.push_back(1);
      }
    });
    thread b([&] {
      for (int i = 0; i < 25; ++i) {
        cell.store(2);
        trace.push_back(2);
      }
    });
    a.join();
    b.join();
  });
  return trace;
}

class SchedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedDeterminism, SameSeedSameInterleaving) {
  EXPECT_EQ(interleaving_trace(GetParam()), interleaving_trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedDeterminism,
                         ::testing::Values(1, 2, 3, 17, 1000));

TEST(SchedDeterminismCross, DifferentSeedsUsuallyDiffer) {
  int distinct = 0;
  const auto base = interleaving_trace(1);
  for (std::uint64_t seed = 2; seed <= 6; ++seed)
    if (interleaving_trace(seed) != base) ++distinct;
  EXPECT_GE(distinct, 3);
}

TEST(SwitchProbability, CertainSwitchAlternates) {
  SimConfig cfg;
  cfg.sched.switch_probability = 1.0;
  Sim sim(cfg);
  std::vector<int> trace;
  const SimResult r = sim.run([&] {
    tracked<int> cell;
    thread a([&] {
      for (int i = 0; i < 10; ++i) {
        cell.store(1);
        trace.push_back(1);
      }
    });
    thread b([&] {
      for (int i = 0; i < 10; ++i) {
        cell.store(2);
        trace.push_back(2);
      }
    });
    a.join();
    b.join();
  });
  EXPECT_TRUE(r.completed());
  // Every step switches, and main is blocked in join: the two workers
  // strictly alternate once both are running.
  int alternations = 0;
  for (std::size_t i = 1; i < trace.size(); ++i)
    if (trace[i] != trace[i - 1]) ++alternations;
  EXPECT_GE(alternations, 8);
}

TEST(SwitchProbability, ZeroRunsToBlocking) {
  // With probability 0 the scheduler never preempts voluntarily; threads
  // still hand over when they block or finish, so the run completes.
  SimConfig cfg;
  cfg.sched.switch_probability = 0.0;
  Sim sim(cfg);
  std::vector<int> trace;
  sim.run([&] {
    tracked<int> cell;
    thread a([&] {
      for (int i = 0; i < 5; ++i) {
        cell.store(1);
        trace.push_back(1);
      }
    });
    thread b([&] {
      for (int i = 0; i < 5; ++i) {
        cell.store(2);
        trace.push_back(2);
      }
    });
    a.join();
    b.join();
  });
  ASSERT_EQ(trace.size(), 10u);
  // No voluntary preemption: each worker's ops are contiguous.
  int switches = 0;
  for (std::size_t i = 1; i < trace.size(); ++i)
    if (trace[i] != trace[i - 1]) ++switches;
  EXPECT_EQ(switches, 1);
}

// --- virtual time --------------------------------------------------------------

TEST(VirtualTime, SleepAdvancesClock) {
  Sim sim;
  const SimResult r = sim.run([&] {
    const std::uint64_t before = Sim::current()->sched().virtual_time();
    sleep_ticks(1000);
    const std::uint64_t after = Sim::current()->sched().virtual_time();
    EXPECT_GE(after - before, 1000u);
  });
  EXPECT_GE(r.virtual_time, 1000u);
}

TEST(VirtualTime, SleepersWakeInOrder) {
  Sim sim;
  std::vector<int> order;
  sim.run([&] {
    tracked<int> cell;
    thread slow([&] {
      sleep_ticks(5000);
      order.push_back(2);
    });
    thread fast([&] {
      sleep_ticks(100);
      order.push_back(1);
    });
    fast.join();
    slow.join();
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(VirtualTime, AllAsleepJumpsForward) {
  Sim sim;
  const SimResult r = sim.run([&] { sleep_ticks(1'000'000); });
  EXPECT_TRUE(r.completed());
  EXPECT_GE(r.virtual_time, 1'000'000u);
  // Far fewer steps than ticks: the clock jumped.
  EXPECT_LT(r.steps, 10'000u);
}

// --- fiber switch ----------------------------------------------------------------
//
// What a fiber switch must carry over or provide, whatever mechanism makes
// it: the floating-point control state of each fiber, the ABI's stack
// alignment in a new fiber, and a hand-off from a thread to itself.

TEST(FiberSwitch, RoundingModeStaysWithItsFiber) {
  SimConfig cfg;
  cfg.sched.switch_probability = 1.0;
  Sim sim(cfg);
  // Volatile operands keep the divisions at run time, after each switch.
  volatile double one = 1.0, three = 3.0;
  const double nearest_third = one / three;
  int upward = 0, nearest = 0;
  sim.run([&] {
    thread up([&] {
      std::fesetround(FE_UPWARD);
      for (int i = 0; i < 50; ++i) {
        yield();
        // fegetround reads the x87 control word, the division MXCSR.
        volatile double third = one / three;
        if (std::fegetround() == FE_UPWARD && third > nearest_third) ++upward;
      }
      std::fesetround(FE_TONEAREST);
    });
    thread near([&] {
      for (int i = 0; i < 50; ++i) {
        yield();
        volatile double third = one / three;
        if (std::fegetround() == FE_TONEAREST && third == nearest_third)
          ++nearest;
      }
    });
    up.join();
    near.join();
  });
  EXPECT_EQ(upward, 50);
  EXPECT_EQ(nearest, 50);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(FiberSwitch, NewFiberStackIsAligned) {
  Sim sim;
  std::uintptr_t where = 1;
  sim.run([&] {
    thread t([&] {
      alignas(16) char local[16] = {};
      // Through a volatile, so the compiler cannot assume the alignment.
      volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(local);
      where = addr;
    });
    t.join();
  });
  EXPECT_EQ(where % 16, 0u);
}

TEST(FiberSwitch, SoleSleeperWakesItself) {
  // Without voluntary switches main blocks in join first; the worker then
  // sleeps as the only thread that can run, and its own schedule_out wakes
  // it and hands off to it.
  SimConfig cfg;
  cfg.sched.switch_probability = 0.0;
  Sim sim(cfg);
  obs::FlightRecorder recorder;
  sim.set_recorder(&recorder);
  ThreadId sleeper = kNoThread;
  bool woke = false;
  const SimResult r = sim.run([&] {
    thread t([&] {
      sleeper = Sim::current_thread();
      sleep_ticks(1000);
      woke = true;
    });
    t.join();
  });
  EXPECT_TRUE(r.completed());
  EXPECT_TRUE(woke);
  EXPECT_GE(r.virtual_time, 1000u);
  bool self_switch = false;
  for (const obs::Event& e : recorder.snapshot())
    if (e.kind == obs::EventKind::SchedSwitch && e.tid == sleeper &&
        e.a == sleeper)
      self_switch = true;
  EXPECT_TRUE(self_switch);
}

// --- deadlock detection -----------------------------------------------------------

TEST(DeadlockDetection, CircularMutexWait) {
  Sim sim;
  const SimResult r = sim.run([&] {
    mutex m1("m1"), m2("m2");
    semaphore s1(0, "s1"), s2(0, "s2");
    thread a([&] {
      m1.lock();
      s1.post();
      s2.wait();
      m2.lock();  // blocks forever
      m2.unlock();
      m1.unlock();
    });
    thread b([&] {
      m2.lock();
      s2.post();
      s1.wait();
      m1.lock();  // blocks forever
      m1.unlock();
      m2.unlock();
    });
    a.join();
    b.join();
  });
  EXPECT_TRUE(r.deadlocked());
  EXPECT_GE(r.deadlock.blocked.size(), 2u);
  const std::string desc = r.deadlock.describe();
  EXPECT_NE(desc.find("m1"), std::string::npos);
  EXPECT_NE(desc.find("m2"), std::string::npos);
}

TEST(DeadlockDetection, SelfDeadlockOnCondvar) {
  Sim sim;
  const SimResult r = sim.run([&] {
    mutex m("m");
    condition_variable cv("never-signalled");
    m.lock();
    cv.wait(m);  // nobody will ever signal
    m.unlock();
  });
  EXPECT_TRUE(r.deadlocked());
}

TEST(DeadlockDetection, LeakedLockBlocksJoiner) {
  Sim sim;
  const SimResult r = sim.run([&] {
    mutex m("leaked");
    thread a([&] { m.lock(); /* exits holding the lock */ });
    a.join();
    m.lock();  // can never be acquired
    m.unlock();
  });
  EXPECT_TRUE(r.deadlocked());
}

TEST(StepLimit, RunawayLoopAborts) {
  SimConfig cfg;
  cfg.sched.max_steps = 2000;
  Sim sim(cfg);
  const SimResult r = sim.run([&] {
    tracked<int> cell;
    for (;;) cell.store(1);
  });
  EXPECT_EQ(r.outcome, SimOutcome::StepLimit);
}

TEST(Teardown, RaiiUnwindsCleanly) {
  // A deadlock must unwind lock_guards and queue users without crashing
  // or re-raising into std::terminate.
  SimConfig cfg;
  cfg.sched.max_steps = 50'000;
  Sim sim(cfg);
  const SimResult r = sim.run([&] {
    mutex m1("a"), m2("b");
    semaphore s1(0, "s1"), s2(0, "s2");
    thread t1([&] {
      lock_guard g1(m1);
      s1.post();
      s2.wait();
      lock_guard g2(m2);
    });
    thread t2([&] {
      lock_guard g2(m2);
      s2.post();
      s1.wait();
      lock_guard g1(m1);
    });
    t1.join();
    t2.join();
  });
  EXPECT_TRUE(r.deadlocked());
}

TEST(Sim, StepAndEventCountsPopulated) {
  Sim sim;
  const SimResult r = sim.run([&] {
    tracked<int> x;
    for (int i = 0; i < 10; ++i) x.store(i);
    mutex m("m");
    m.lock();
    m.unlock();
  });
  EXPECT_GE(r.access_events, 10u);
  EXPECT_GE(r.sync_events, 2u);
  EXPECT_GE(r.steps, r.access_events);
}

TEST(Sim, ManyThreads) {
  Sim sim;
  const SimResult r = sim.run([&] {
    tracked<int> cell;
    mutex m("m");
    std::vector<thread> threads;
    for (int i = 0; i < 24; ++i)
      threads.emplace_back([&] {
        for (int k = 0; k < 5; ++k) {
          lock_guard g(m);
          cell.store(cell.load() + 1);
        }
      });
    for (auto& t : threads) t.join();
    EXPECT_EQ(cell.load(), 120);
  });
  EXPECT_TRUE(r.completed());
}

// --- finished threads stay inert --------------------------------------------
//
// Scheduling decisions scan only unfinished threads. A long run that leaves
// hundreds of finished threads behind must schedule exactly as before: the
// pins below (steps, virtual time, and the hash of the recorded stream,
// which folds in every SchedSwitch) were captured from a scheduler that
// still scanned every thread ever spawned. They must hold with the fast
// path on and in the reference mode alike.

/// Hash of the recorded stream's schedule: kind, virtual time and thread of
/// every event plus both ends of every SchedSwitch. Unlike
/// FlightRecorder::hash() it leaves out site ids and addresses, which
/// depend on what else ran in the process.
std::uint64_t schedule_hash(const obs::FlightRecorder& recorder) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001B3ull;
  };
  for (const obs::Event& e : recorder.snapshot()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.vtime);
    mix(e.tid);
    if (e.kind == obs::EventKind::SchedSwitch) mix(e.a);
  }
  return h;
}

struct WavePin {
  std::uint64_t seed;
  std::uint64_t steps;
  std::uint64_t virtual_time;
  std::uint64_t stream_hash;  // schedule_hash of the recorded stream
};

/// 20 waves of 15 short-lived workers (300 in all) that sleep, contend on
/// one mutex with main and are joined before the next wave starts.
/// `fast_path` off is the scheduler's reference mode, which recounts the
/// runnable set at every step and asserts it matches the kept count.
void run_thread_waves(const WavePin& pin, bool fast_path) {
  SimConfig cfg;
  cfg.sched.seed = pin.seed;
  cfg.sched.fast_path = fast_path;
  Sim sim(cfg);
  obs::FlightRecorder recorder;
  sim.set_recorder(&recorder);
  const SimResult r = sim.run([] {
    mutex m("wave-lock");
    tracked<int> counter;
    for (int wave = 0; wave < 20; ++wave) {
      std::vector<thread> workers;
      for (int i = 0; i < 15; ++i)
        workers.emplace_back([&, i] {
          if (i % 3 == 0) sleep_ticks(5 + 13 * ((wave + i) % 7));
          lock_guard g(m);
          counter.store(counter.load() + 1);
        });
      {
        lock_guard g(m);
        counter.store(counter.load() + 1);
      }
      for (auto& t : workers) t.join();
    }
    EXPECT_EQ(counter.load(), 20 * 16);
  });
  ASSERT_TRUE(r.completed());
  ASSERT_EQ(recorder.dropped(), 0u);
  if (fast_path)
    EXPECT_GT(r.fast_path_steps, 0u);
  else
    EXPECT_EQ(r.fast_path_steps, 0u);
  EXPECT_EQ(r.steps, pin.steps);
  EXPECT_EQ(r.virtual_time, pin.virtual_time);
  EXPECT_EQ(schedule_hash(recorder), pin.stream_hash);
}

TEST(FinishedThreads, WavesScheduleAsPinned) {
  const WavePin pins[] = {
      {1, 1281, 2009, 9055899659380958511ull},
      {2, 1281, 1971, 12177222543346156207ull},
      {3, 1281, 1936, 10350178734138674053ull},
  };
  for (const WavePin& pin : pins) {
    for (const bool fast_path : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << pin.seed << " fast_path " << fast_path);
      run_thread_waves(pin, fast_path);
    }
  }
}

TEST(FinishedThreads, DeadlockEvidenceListsOnlyBlockedThreads) {
  Sim sim;
  const SimResult r = sim.run([&] {
    mutex m1("m1"), m2("m2");
    semaphore holding(0, "holding");
    auto finish_batch = [] {
      std::vector<thread> batch;
      for (int i = 0; i < 50; ++i) batch.emplace_back([] { yield(); });
      for (auto& t : batch) t.join();
    };
    finish_batch();
    m1.lock();
    thread blocker([&] {
      m2.lock();
      holding.post();
      m1.lock();  // held by main: blocks forever
    });
    holding.wait();
    finish_batch();
    m2.lock();  // held by the blocker: deadlock
  });
  ASSERT_TRUE(r.deadlocked());
  ASSERT_EQ(r.deadlock.blocked.size(), 2u);
  EXPECT_EQ(r.deadlock.blocked[0].tid, kMainThread);
  EXPECT_EQ(r.deadlock.blocked[1].tid, 51u);
  EXPECT_NE(r.deadlock.blocked[0].waiting_lock, kNoWaitingLock);
  EXPECT_NE(r.deadlock.blocked[1].waiting_lock, kNoWaitingLock);
}

}  // namespace
}  // namespace rg::rt
