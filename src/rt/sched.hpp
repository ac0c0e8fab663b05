// Deterministic simulated-thread scheduler.
//
// Valgrind executes the client program on a single carrier thread, context-
// switching between client threads at instrumentation points (the paper,
// §3.3: "the virtual machine in itself is single-threaded"). We reproduce
// that literally: simulated threads are fibers multiplexed on the one OS
// thread that called run(), and a context switch swaps the callee-saved
// registers and the stack pointer in userspace, with no system call
// (x86-64 only; see sched.cpp). Every instrumented operation is a
// preemption point where a *seeded* draw decides whether to switch and to
// which runnable thread. Given a seed, an execution — and therefore the set
// of warnings a detector derives from it — is exactly reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "rt/ids.hpp"
#include "support/prng.hpp"

namespace rg::rt {

/// Thrown inside a simulated thread when the run is being torn down
/// (deadlock detected, step limit hit, or leaked threads at exit).
struct SimAbort {
  std::string reason;
};

struct SchedConfig {
  std::uint64_t seed = 1;
  /// At each step, switch to a uniformly random runnable thread with this
  /// probability. At 1.0 every step switches whenever another thread is
  /// runnable, so two runnable threads alternate strictly.
  double switch_probability = 0.25;
  /// Hard cap on preemption points; exceeding it aborts the run (guards
  /// against livelock in a buggy program under test).
  std::uint64_t max_steps = 100'000'000;
  /// O(1) preemption points. On: a step that switches no thread touches
  /// only the step counters, the runnable count and the one switch draw,
  /// and wakes sleepers only once the earliest deadline is due.
  /// Off is the reference mode: every step services the sleepers and
  /// recounts the runnable set, asserting it matches the maintained count.
  /// Schedules are bit-identical either way.
  bool fast_path = true;
};

/// Why a run ended.
enum class SimOutcome : std::uint8_t {
  Completed,
  Deadlocked,
  StepLimit,
  ClientError,
};

/// Sentinel for DeadlockEvidence::BlockedThread::waiting_lock: the thread
/// is blocked on something other than a lock acquisition (join, condvar,
/// semaphore, sleep, oracle staging).
constexpr std::uint64_t kNoWaitingLock = ~0ull;

struct DeadlockEvidence {
  struct BlockedThread {
    ThreadId tid = kNoThread;
    std::string reason;
    /// LockId the thread was blocked acquiring, kNoWaitingLock otherwise.
    /// The replay oracle matches a predicted cycle against this: confirmed
    /// means every cycle thread is blocked on exactly its second lock.
    std::uint64_t waiting_lock = kNoWaitingLock;
  };
  std::vector<BlockedThread> blocked;
  std::string describe() const;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedConfig& config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs `entry` as simulated thread `main_tid` on the *calling* thread.
  /// Returns once every spawned thread has finished (or the run aborted).
  void run(ThreadId main_tid, const std::function<void()>& entry);

  /// Spawns a new simulated thread. Must be called from a running simulated
  /// thread. The new thread starts runnable but does not run until
  /// scheduled.
  void spawn(ThreadId tid, std::function<void()> fn);

  /// Preemption point: gives the scheduler a chance to switch threads.
  /// Called by every instrumented operation.
  void preempt();

  /// Blocks the calling thread until `unblock(tid)` makes it runnable
  /// again. `reason` feeds deadlock evidence; `waiting_lock` is the LockId
  /// being acquired when the block is a lock wait (kNoWaitingLock
  /// otherwise), so deadlock evidence stays machine-checkable.
  void block(const std::string& reason,
             std::uint64_t waiting_lock = kNoWaitingLock);

  /// Marks a blocked thread runnable (does not transfer control).
  void unblock(ThreadId tid);

  /// Blocks the calling thread for `ticks` of virtual time. Virtual time
  /// advances by one per preemption point and jumps forward when every
  /// thread is asleep.
  void sleep(std::uint64_t ticks);

  /// Blocks the calling thread until `target` has finished (thread join).
  void wait_finish(ThreadId target);

  /// True once `tid` has finished executing.
  bool finished(ThreadId tid) const;

  /// True once the run is being torn down (deadlock / step limit / client
  /// error). Instrumented primitives become non-blocking no-ops then, so
  /// destructors can unwind without re-entering the scheduler.
  bool tearing_down() const;

  /// Id of the calling simulated thread (thread-local identity, valid even
  /// during teardown).
  ThreadId current() const;

  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }
  std::uint64_t virtual_time() const {
    return vtime_.load(std::memory_order_relaxed);
  }
  /// Preemption points that returned without scanning the thread list: no
  /// sleeper due and no switch (always 0 with fast_path off).
  std::uint64_t fast_path_steps() const { return fast_steps_; }
  SimOutcome outcome() const { return outcome_; }
  const DeadlockEvidence& deadlock() const { return deadlock_; }
  const std::string& client_error() const { return client_error_; }

  /// Mirrors every context switch into the flight recorder (nullptr = off).
  /// Recording happens only in hand_off, so a step that switches no thread
  /// records nothing.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// The virtual-time counter, for FlightRecorder::set_clock. Stable for
  /// the scheduler's lifetime. Only the carrier thread writes it, and its
  /// readers (the recorder, the fibers' virtual_time() calls) run there too.
  const std::atomic<std::uint64_t>* vtime_source() const { return &vtime_; }

 private:
  enum class RunState : std::uint8_t {
    Runnable,
    Running,
    Blocked,
    Sleeping,
    Finished,
  };

  struct SimThread {
    ThreadId id = kNoThread;
    /// Written only through set_state(), which keeps runnable_ in step;
    /// run() and spawn() place a new thread from this neutral value.
    RunState state = RunState::Blocked;
    bool abort = false;
    std::uint64_t wake_at = 0;
    std::string block_reason;
    std::uint64_t block_lock = kNoWaitingLock;
    std::function<void()> fn;
    std::vector<ThreadId> join_waiters;
    /// Saved stack pointer while the thread is switched out: the switch
    /// pushed its callee-saved registers there (see sched.cpp).
    void* sp = nullptr;
    /// Fiber stack; null for the bootstrap (main) thread, which runs on
    /// the carrier's native stack.
    std::unique_ptr<char[]> stack;
    /// Stack bounds for sanitizer fiber annotations.
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
  };

  SimThread& slot(ThreadId tid);
  const SimThread& slot(ThreadId tid) const;

  /// Moves `t` to state `s`, keeping runnable_ equal to the number of
  /// Runnable threads.
  void set_state(SimThread& t, RunState s);

  /// Picks a uniformly random Runnable thread to switch to, or nullptr
  /// when there is none. Asserts that its scan agrees with runnable_.
  SimThread* pick_next();

  /// Raw fiber switch from `from` to `to` (no state changes); returns at
  /// once when they are the same thread. `from_dying` marks `from`'s stack
  /// as never resumed again (sanitizer hint).
  void jump(SimThread& from, SimThread& to, bool from_dying);

  /// Marks `next` running and switches to it. Returns when `from` is
  /// scheduled again.
  void hand_off(SimThread& from, SimThread& next);

  /// Parks `me` (already marked Blocked/Sleeping) and hands control to some
  /// runnable thread, or declares deadlock.
  void schedule_out(SimThread& me);

  /// Entry point of every spawned fiber; spawn's first frame calls it.
  [[noreturn]] static void fiber_main(Scheduler* self, ThreadId tid);

  /// Terminal continuation of a fiber: marks it finished, wakes joiners,
  /// and transfers control to the next thread (or back to run()).
  [[noreturn]] void fiber_exit(SimThread& me);

  /// Marks `me` finished and wakes its joiners (no control transfer).
  void finish_thread(SimThread& me);

  /// Wakes sleepers whose deadline has passed; when nothing is runnable but
  /// sleepers exist, advances virtual time to the earliest deadline.
  /// Refreshes next_wake_ to the earliest deadline still pending.
  void service_sleepers();

  /// Declares the whole run dead: flags every unfinished thread so it
  /// throws SimAbort at its next scheduling point. Unwinding is driven by
  /// resuming each fiber in turn; main is deliberately resumed *last* so
  /// that objects owned by its stack frame survive until every worker has
  /// unwound.
  void global_abort(SimOutcome outcome, std::string reason);

  /// During teardown, called by main: resumes every unfinished worker (in
  /// id order) until only main remains, so main's SimAbort unwinds last.
  void unwind_workers(SimThread& me);

  /// Lowest-id unfinished thread other than main; nullptr if none.
  SimThread* first_live_worker() const;

  void record_deadlock();

  SchedConfig config_;
  obs::FlightRecorder* recorder_ = nullptr;
  support::Xoshiro256 rng_;
  /// switch_probability as the chance() numerator, fixed at construction.
  std::uint64_t switch_chance_num_ = 0;

  std::vector<std::unique_ptr<SimThread>> threads_;
  /// The unfinished threads of threads_, in id order: run()/spawn() append
  /// (ids are assigned in creation order) and finish_thread() erases. Every
  /// scan that ignores finished threads walks this instead of threads_, so
  /// a long run's finished threads cost nothing per scheduling decision.
  /// It must keep threads_' relative order: pick_next's index depends on
  /// it.
  std::vector<SimThread*> live_;
  ThreadId main_tid_ = kNoThread;
  /// Bumped by a relaxed load and store: the carrier is the only writer.
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> vtime_{0};
  std::uint64_t fast_steps_ = 0;
  /// Number of Runnable threads (the Running one excluded).
  std::size_t runnable_ = 0;
  /// Earliest wake_at of any sleeper (~0 if none). Only service_sleepers
  /// sets it; a thread falls asleep only through schedule_out, which calls
  /// service_sleepers, so the value is never later than a pending deadline.
  std::uint64_t next_wake_ = ~0ULL;
  std::atomic<bool> aborting_{false};
  SimOutcome outcome_ = SimOutcome::Completed;
  DeadlockEvidence deadlock_;
  std::string client_error_;

  /// Stack of the most recently finished fiber. A fiber cannot free its
  /// own stack while still running on it, so it parks the stack here; the
  /// next fiber to exit overwrites (and thereby frees) it.
  std::unique_ptr<char[]> retiring_stack_;
};

}  // namespace rg::rt
