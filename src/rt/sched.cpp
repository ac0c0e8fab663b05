#include "rt/sched.hpp"

#include <algorithm>
#include <exception>
#include <new>

#include "support/assert.hpp"
#include "support/small_vector.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define RG_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RG_ASAN_FIBERS 1
#endif
#endif

#if defined(RG_ASAN_FIBERS)
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace rg::rt {

namespace {
/// Carrier-thread-local simulated-thread identity, updated at every fiber
/// switch. Valid even during teardown, when fibers unwind in turn.
thread_local ThreadId g_tls_tid = kNoThread;

/// Fiber stack size. Fibers run real proxy/request code, so leave ample
/// headroom; pages are only committed when touched.
constexpr std::size_t kFiberStackSize = 256 * 1024;

/// A new fiber's first frame, laid out as rg_fiber_switch pops it (lowest
/// address first). Its `ret` enters rg_fiber_entry, which calls
/// `r14(r12, r13)`.
struct FirstFrame {
  std::uint32_t mxcsr = 0x1F80;   // round to nearest, exceptions masked
  std::uint16_t x87_cw = 0x037F;  // the same, 64-bit precision
  std::uint16_t pad = 0;
  std::uintptr_t r15 = 0, r14 = 0, r13 = 0, r12 = 0, rbx = 0;
  std::uintptr_t rbp = 0;  // 0 ends frame-pointer walks here
  void (*ret)() = nullptr;
};
static_assert(sizeof(FirstFrame) == 64, "rg_fiber_switch pops 64 bytes");
}  // namespace

#if !defined(__x86_64__)
#error "port rg_fiber_switch and rg_fiber_entry (rt/sched.cpp) to this target"
#endif

// rg_fiber_switch(save_sp, load_sp) pushes the x86-64 System V callee-saved
// state (rbp, rbx, r12-r15, MXCSR, x87 control word), stores the stack
// pointer to *save_sp, loads load_sp and pops the same state from there.
// The signal mask is not part of a fiber's state: nothing in the program
// changes it, and saving it would cost a system call per switch.
// rg_fiber_entry is the bottom frame of every spawned fiber; the
// `.cfi_undefined rip` ends unwinding (exceptions, ASan traces) there.
extern "C" {
void rg_fiber_switch(void** save_sp, void* load_sp);
void rg_fiber_entry();
}
asm(R"(
  .pushsection .text
  .p2align 4
  .globl rg_fiber_switch
  .hidden rg_fiber_switch
  .type rg_fiber_switch, @function
rg_fiber_switch:
  .cfi_startproc
  pushq %rbp; .cfi_adjust_cfa_offset 8
  pushq %rbx; .cfi_adjust_cfa_offset 8
  pushq %r12; .cfi_adjust_cfa_offset 8
  pushq %r13; .cfi_adjust_cfa_offset 8
  pushq %r14; .cfi_adjust_cfa_offset 8
  pushq %r15; .cfi_adjust_cfa_offset 8
  subq $8, %rsp; .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp; .cfi_adjust_cfa_offset -8
  popq %r15; .cfi_adjust_cfa_offset -8
  popq %r14; .cfi_adjust_cfa_offset -8
  popq %r13; .cfi_adjust_cfa_offset -8
  popq %r12; .cfi_adjust_cfa_offset -8
  popq %rbx; .cfi_adjust_cfa_offset -8
  popq %rbp; .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size rg_fiber_switch, .-rg_fiber_switch

  .p2align 4
  .globl rg_fiber_entry
  .hidden rg_fiber_entry
  .type rg_fiber_entry, @function
rg_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  movq %r13, %rsi
  callq *%r14
  ud2
  .cfi_endproc
  .size rg_fiber_entry, .-rg_fiber_entry
  .popsection
)");

std::string DeadlockEvidence::describe() const {
  std::string out = "application deadlock: ";
  out += std::to_string(blocked.size());
  out += " thread(s) blocked with no runnable thread left\n";
  for (const auto& b : blocked) {
    out += "  thread ";
    out += std::to_string(b.tid);
    out += ": ";
    out += b.reason;
    out += '\n';
  }
  return out;
}

Scheduler::Scheduler(const SchedConfig& config)
    : config_(config),
      rng_(config.seed),
      switch_chance_num_(
          static_cast<std::uint64_t>(config.switch_probability * 1'000'000)) {}

Scheduler::~Scheduler() = default;

Scheduler::SimThread& Scheduler::slot(ThreadId tid) {
  RG_ASSERT_MSG(tid < threads_.size(), "unknown simulated thread");
  return *threads_[tid];
}

const Scheduler::SimThread& Scheduler::slot(ThreadId tid) const {
  RG_ASSERT_MSG(tid < threads_.size(), "unknown simulated thread");
  return *threads_[tid];
}

void Scheduler::run(ThreadId main_tid, const std::function<void()>& entry) {
  RG_ASSERT_MSG(threads_.empty(), "scheduler already ran");
  auto main = std::make_unique<SimThread>();
  main->id = main_tid;
  set_state(*main, RunState::Running);
#if defined(RG_ASAN_FIBERS)
  {
    // The carrier's native stack bounds, for fiber-switch annotations.
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* base = nullptr;
      std::size_t size = 0;
      if (pthread_attr_getstack(&attr, &base, &size) == 0) {
        main->stack_bottom = base;
        main->stack_size = size;
      }
      pthread_attr_destroy(&attr);
    }
  }
#endif
  live_.push_back(main.get());
  threads_.push_back(std::move(main));
  main_tid_ = main_tid;
  g_tls_tid = main_tid;

  try {
    entry();
  } catch (const SimAbort&) {
    // Outcome was already recorded by global_abort.
  } catch (const std::exception& e) {
    if (!aborting_.load(std::memory_order_relaxed))
      global_abort(SimOutcome::ClientError, e.what());
  }

  SimThread& me = slot(main_tid);
  finish_thread(me);
  // Main's entry has returned but other threads may still have work (or
  // need to unwind). Keep scheduling them from here until everyone is done;
  // fibers transfer control back to this frame when nothing remains.
  while (!live_.empty()) {
    if (!aborting_.load(std::memory_order_relaxed)) {
      service_sleepers();
      SimThread* next = pick_next();
      if (next == nullptr) {
        record_deadlock();
        global_abort(SimOutcome::Deadlocked, "deadlock");
        continue;
      }
      hand_off(me, *next);
      continue;
    }
    // Teardown: resume unfinished workers so each unwinds in turn.
    SimThread* next = first_live_worker();
    RG_ASSERT_MSG(next != nullptr, "unfinished run with no threads left");
    jump(me, *next, /*from_dying=*/false);
  }
  g_tls_tid = kNoThread;
}

void Scheduler::spawn(ThreadId tid, std::function<void()> fn) {
  RG_ASSERT_MSG(!aborting_.load(std::memory_order_relaxed),
                "spawn during teardown");
  RG_ASSERT_MSG(tid == threads_.size(),
                "thread ids must be registered in creation order");
  auto t = std::make_unique<SimThread>();
  t->id = tid;
  set_state(*t, RunState::Runnable);
  t->fn = std::move(fn);
  // Default-initialized (not zeroed): pages commit only when touched.
  t->stack.reset(new char[kFiberStackSize]);
  t->stack_bottom = t->stack.get();
  t->stack_size = kFiberStackSize;
  // The first frame sits 16-byte aligned at the top, so rg_fiber_entry
  // calls fiber_main with the stack aligned as the ABI requires.
  const std::uintptr_t top =
      reinterpret_cast<std::uintptr_t>(t->stack.get()) + kFiberStackSize;
  t->sp = new (reinterpret_cast<void*>(
      (top - sizeof(FirstFrame)) & ~std::uintptr_t{15})) FirstFrame{
      .r14 = reinterpret_cast<std::uintptr_t>(&fiber_main),
      .r13 = tid,
      .r12 = reinterpret_cast<std::uintptr_t>(this),
      .ret = &rg_fiber_entry};
  live_.push_back(t.get());
  threads_.push_back(std::move(t));
}

void Scheduler::fiber_main(Scheduler* self, ThreadId tid) {
#if defined(RG_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  SimThread& me = self->slot(tid);
  if (!me.abort) {
    try {
      me.fn();
    } catch (const SimAbort&) {
      // Teardown in progress; fall through to finish.
    } catch (const std::exception& e) {
      if (!self->aborting_.load(std::memory_order_relaxed))
        self->global_abort(SimOutcome::ClientError, e.what());
    }
  }
  self->fiber_exit(me);
}

void Scheduler::fiber_exit(SimThread& me) {
  finish_thread(me);
  SimThread* next = nullptr;
  bool resume_only = false;  // plain resume (teardown/return-to-main)
  if (!aborting_.load(std::memory_order_relaxed) && !live_.empty()) {
    service_sleepers();
    next = pick_next();
    if (next == nullptr) {
      // Threads remain but none can ever run again.
      record_deadlock();
      global_abort(SimOutcome::Deadlocked, "deadlock");
    }
  }
  if (next == nullptr) {
    resume_only = true;
    // Unwind chain: workers in id order, main strictly last.
    if (aborting_.load(std::memory_order_relaxed)) next = first_live_worker();
    if (next == nullptr) next = &slot(main_tid_);
  }
  // This fiber can never run again; park its stack for the next exiting
  // fiber to free (it is still in use until the jump below completes).
  retiring_stack_ = std::move(me.stack);
  if (!resume_only) set_state(*next, RunState::Running);
  jump(me, *next, /*from_dying=*/true);
  RG_UNREACHABLE("finished fiber resumed");
}

void Scheduler::jump(SimThread& from, SimThread& to, bool from_dying) {
  // A sole sleeper that its own schedule_out woke is handed to itself; a
  // switch would save its stack pointer and then load the stale one.
  if (&from == &to) return;
  g_tls_tid = to.id;
#if defined(RG_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from_dying;
#endif
  rg_fiber_switch(&from.sp, to.sp);
#if defined(RG_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  // Resumed: whoever switched back restored our identity already.
}

void Scheduler::hand_off(SimThread& from, SimThread& next) {
  RG_ASSERT(next.state == RunState::Runnable);
  set_state(next, RunState::Running);
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::SchedSwitch,
                      vtime_.load(std::memory_order_relaxed), next.id,
                      from.id, 0);
  jump(from, next, /*from_dying=*/false);
}

void Scheduler::preempt() {
  if (aborting_.load(std::memory_order_relaxed)) {
    // Raise the teardown exception once; while it is unwinding, RAII
    // destructors may re-enter the scheduler and must pass through freely.
    SimThread& me = slot(g_tls_tid);
    if (std::uncaught_exceptions() == 0 && me.state != RunState::Finished) {
      if (me.id == main_tid_) unwind_workers(me);
      throw SimAbort{client_error_};
    }
    return;
  }
  // The carrier is the only writer, so no locked read-modify-write.
  const std::uint64_t steps_now = steps_.load(std::memory_order_relaxed) + 1;
  steps_.store(steps_now, std::memory_order_relaxed);
  const std::uint64_t vt = vtime_.load(std::memory_order_relaxed) + 1;
  vtime_.store(vt, std::memory_order_relaxed);
  if (steps_now > config_.max_steps) {
    SimThread& me = slot(g_tls_tid);
    global_abort(SimOutcome::StepLimit, "scheduler step limit reached");
    if (me.id == main_tid_) unwind_workers(me);
    throw SimAbort{"step limit"};
  }
  // No sleeper can be due before next_wake_, so the scan is skipped until
  // then; the reference mode scans and recounts at every step.
  const bool scan = !config_.fast_path || vt >= next_wake_;
  if (scan) service_sleepers();
  if (!config_.fast_path)
    RG_ASSERT_MSG(static_cast<std::size_t>(std::count_if(
                      live_.begin(), live_.end(),
                      [](const SimThread* t) {
                        return t->state == RunState::Runnable;
                      })) == runnable_,
                  "runnable count out of step");

  // The one decision: keep running, or switch.
  const bool stay =
      runnable_ == 0 || !rng_.chance(switch_chance_num_, 1'000'000);
  if (stay) {
    if (!scan) ++fast_steps_;
    return;
  }
  SimThread& me = slot(g_tls_tid);
  SimThread* next = pick_next();
  set_state(me, RunState::Runnable);
  hand_off(me, *next);
  if (me.abort) {
    if (me.id == main_tid_) unwind_workers(me);
    throw SimAbort{client_error_};
  }
}

void Scheduler::block(const std::string& reason, std::uint64_t waiting_lock) {
  SimThread& me = slot(g_tls_tid);
  if (me.abort || aborting_.load(std::memory_order_relaxed)) {
    if (std::uncaught_exceptions() == 0) throw SimAbort{client_error_};
    return;
  }
  set_state(me, RunState::Blocked);
  me.block_reason = reason;
  me.block_lock = waiting_lock;
  schedule_out(me);
  me.block_lock = kNoWaitingLock;
}

void Scheduler::unblock(ThreadId tid) {
  SimThread& t = slot(tid);
  if (t.state == RunState::Blocked) set_state(t, RunState::Runnable);
}

void Scheduler::sleep(std::uint64_t ticks) {
  SimThread& me = slot(g_tls_tid);
  if (me.abort || aborting_.load(std::memory_order_relaxed)) {
    if (std::uncaught_exceptions() == 0) throw SimAbort{client_error_};
    return;
  }
  set_state(me, RunState::Sleeping);
  me.wake_at = vtime_.load(std::memory_order_relaxed) + ticks;
  me.block_reason = "sleeping";
  schedule_out(me);
}

void Scheduler::wait_finish(ThreadId target) {
  SimThread& me = slot(g_tls_tid);
  while (slot(target).state != RunState::Finished) {
    if (me.abort || aborting_.load(std::memory_order_relaxed)) {
      if (std::uncaught_exceptions() == 0) throw SimAbort{client_error_};
      return;  // Teardown: the remaining fibers unwind via the abort chain.
    }
    slot(target).join_waiters.push_back(me.id);
    set_state(me, RunState::Blocked);
    me.block_reason = "joining thread " + std::to_string(target);
    schedule_out(me);
  }
}

bool Scheduler::finished(ThreadId tid) const {
  return slot(tid).state == RunState::Finished;
}

bool Scheduler::tearing_down() const {
  // Checked by every instrumented primitive before raising an event; a
  // plain flag read, no scheduler work.
  return aborting_.load(std::memory_order_relaxed);
}

ThreadId Scheduler::current() const { return g_tls_tid; }

void Scheduler::schedule_out(SimThread& me) {
  service_sleepers();
  SimThread* next = pick_next();
  if (next == nullptr) {
    // Nothing runnable and nothing due to wake: the program under test is
    // deadlocked.
    record_deadlock();
    global_abort(SimOutcome::Deadlocked, "deadlock");
    if (me.id == main_tid_) unwind_workers(me);
    throw SimAbort{"deadlock"};
  }
  hand_off(me, *next);
  if (me.abort) {
    if (me.id == main_tid_) unwind_workers(me);
    throw SimAbort{client_error_};
  }
}

void Scheduler::record_deadlock() {
  DeadlockEvidence ev;
  for (const SimThread* t : live_)
    if (t->state == RunState::Blocked || t->state == RunState::Sleeping)
      ev.blocked.push_back({t->id, t->block_reason, t->block_lock});
  deadlock_ = std::move(ev);
}

void Scheduler::finish_thread(SimThread& me) {
  set_state(me, RunState::Finished);
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), me.id,
      [](const SimThread* t, ThreadId id) { return t->id < id; });
  RG_ASSERT_MSG(it != live_.end() && *it == &me, "thread finished twice");
  live_.erase(it);
  for (ThreadId waiter : me.join_waiters) unblock(waiter);
  me.join_waiters.clear();
}

void Scheduler::unwind_workers(SimThread& me) {
  // Resume unfinished workers so their SimAbort unwinds before main's
  // stack (which owns the objects they may still reference) goes away.
  // Each resumed fiber chains to the next via fiber_exit; control returns
  // here once only main is left.
  while (SimThread* w = first_live_worker()) jump(me, *w, /*from_dying=*/false);
}

Scheduler::SimThread* Scheduler::first_live_worker() const {
  for (SimThread* t : live_)
    if (t->id != main_tid_) return t;
  return nullptr;
}

void Scheduler::set_state(SimThread& t, RunState s) {
  if (t.state == RunState::Runnable) --runnable_;
  if (s == RunState::Runnable) ++runnable_;
  t.state = s;
}

void Scheduler::service_sleepers() {
  for (;;) {
    bool any_runnable = false;
    bool any_sleeping = false;
    std::uint64_t earliest = ~0ULL;
    const std::uint64_t vt = vtime_.load(std::memory_order_relaxed);
    for (SimThread* t : live_) {
      if (t->state == RunState::Sleeping) {
        if (t->wake_at <= vt) {
          set_state(*t, RunState::Runnable);
          any_runnable = true;
        } else {
          any_sleeping = true;
          earliest = std::min(earliest, t->wake_at);
        }
      } else if (t->state == RunState::Runnable ||
                 t->state == RunState::Running) {
        any_runnable = true;
      }
    }
    if (any_runnable || !any_sleeping) {
      next_wake_ = earliest;
      return;
    }
    // Everyone is asleep: jump virtual time to the first deadline.
    vtime_.store(earliest, std::memory_order_relaxed);
  }
}

Scheduler::SimThread* Scheduler::pick_next() {
  support::small_vector<SimThread*, 16> runnable;
  for (SimThread* t : live_)
    if (t->state == RunState::Runnable) runnable.push_back(t);
  RG_ASSERT_MSG(runnable.size() == runnable_, "runnable count out of step");
  if (runnable.empty()) return nullptr;
  return runnable[rng_.below(runnable.size())];
}

void Scheduler::global_abort(SimOutcome outcome, std::string reason) {
  if (aborting_.load(std::memory_order_relaxed)) return;
  aborting_.store(true, std::memory_order_relaxed);
  outcome_ = outcome;
  client_error_ = std::move(reason);
  for (SimThread* t : live_) t->abort = true;
}

}  // namespace rg::rt
