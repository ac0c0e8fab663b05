// deadlock_demo — both kinds of deadlock checking (paper §3.3).
//
// 1. The LockGraphTool's lock-order graph flags a *potential* deadlock from
//    a run that never actually blocked (lock-order inversion).
// 2. The scheduler detects an *actual* deadlock when a schedule drives the
//    two threads into the circular wait, and reports who was blocked on
//    what — replacing the racy application-level timeout hack the paper's
//    proxy shipped with.
#include <cstdio>

#include "core/lockgraph.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"

namespace {

/// Transfers between two accounts, locking the two account mutexes in
/// argument order — the classic AB/BA bug.
void transfer(rg::rt::mutex& from, rg::rt::mutex& to, int* balance_from,
              int* balance_to, int amount) {
  rg::rt::lock_guard first(from);
  rg::rt::yield();  // widen the window
  rg::rt::lock_guard second(to);
  *balance_from -= amount;
  *balance_to += amount;
}

}  // namespace

int main() {
  using namespace rg;

  // --- 1. potential deadlock found without blocking ------------------------
  {
    core::LockGraphTool order_checker;
    rt::Sim sim;
    sim.attach(order_checker);
    sim.run([] {
      rt::mutex account_a("account-a");
      rt::mutex account_b("account-b");
      int balance_a = 100, balance_b = 100;
      // One thread at a time: never blocks, but the order graph sees both
      // a->b and b->a.
      transfer(account_a, account_b, &balance_a, &balance_b, 10);
      transfer(account_b, account_a, &balance_b, &balance_a, 5);
    });
    std::printf("Lock-order checker: %zu potential deadlock(s) reported "
                "(without any thread ever blocking)\n\n",
                order_checker.reports().distinct_locations());
    std::printf("%s\n", order_checker.reports().render(sim.runtime()).c_str());
  }

  // --- 2. actual deadlock caught by the scheduler -----------------------------
  {
    int deadlocked_seeds = 0;
    const int seeds = 12;
    std::string evidence;
    for (int seed = 1; seed <= seeds; ++seed) {
      rt::SimConfig cfg;
      cfg.sched.seed = static_cast<std::uint64_t>(seed);
      rt::Sim sim(cfg);
      const rt::SimResult result = sim.run([] {
        rt::mutex account_a("account-a");
        rt::mutex account_b("account-b");
        int balance_a = 100, balance_b = 100;
        rt::thread t1([&] {
          transfer(account_a, account_b, &balance_a, &balance_b, 10);
        });
        rt::thread t2([&] {
          transfer(account_b, account_a, &balance_b, &balance_a, 5);
        });
        t1.join();
        t2.join();
      });
      if (result.deadlocked()) {
        ++deadlocked_seeds;
        evidence = result.deadlock.describe();
      }
    }
    std::printf("Actual deadlocks: %d of %d schedules drove the threads "
                "into the circular wait.\n",
                deadlocked_seeds, seeds);
    if (!evidence.empty()) std::printf("Example evidence:\n%s", evidence.c_str());
    std::printf(
        "\n(The lock-order checker flags the bug on EVERY schedule; actually "
        "hitting the deadlock is schedule-dependent — which is why the "
        "paper prefers checker-based detection over the application's "
        "timeout hack.)\n");
  }
  return 0;
}
