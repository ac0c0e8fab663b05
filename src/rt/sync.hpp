// Instrumented synchronisation primitives.
//
// These mirror the POSIX-Threads objects the paper's detector intercepts:
// mutexes, read-write locks, condition variables and semaphores. Under a Sim
// each operation is a scheduling point and raises the corresponding tool
// event; outside a Sim they delegate to std:: primitives so the same client
// code doubles as the native baseline for the §4.5 overhead experiment.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <source_location>
#include <string>
#include <string_view>
#include <vector>

#include "rt/ids.hpp"
#include "rt/sim.hpp"
#include "support/small_vector.hpp"

namespace rg::rt {

/// Non-recursive mutual exclusion (pthread_mutex).
class mutex {
 public:
  explicit mutex(std::string_view name = "mutex");
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock(const std::source_location& loc = std::source_location::current());
  bool try_lock(
      const std::source_location& loc = std::source_location::current());
  void unlock(
      const std::source_location& loc = std::source_location::current());

  /// Detector-visible identity; kNoLock in native mode.
  LockId id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class condition_variable;

  std::string name_;
  Sim* sim_ = nullptr;
  LockId id_ = kNoLock;
  // Simulated state (only touched by the running fiber on the carrier).
  ThreadId owner_ = kNoThread;
  std::vector<ThreadId> wait_queue_;
  // Native state.
  std::mutex native_;
};

/// Read-write lock (pthread_rwlock). Support for this object in the
/// detector is part of the paper's HWLC improvement.
class rw_mutex {
 public:
  explicit rw_mutex(std::string_view name = "rwlock");
  rw_mutex(const rw_mutex&) = delete;
  rw_mutex& operator=(const rw_mutex&) = delete;

  void lock(const std::source_location& loc = std::source_location::current());
  void lock_shared(
      const std::source_location& loc = std::source_location::current());
  /// POSIX-style unified unlock: releases whichever side the caller holds.
  void unlock(
      const std::source_location& loc = std::source_location::current());

  LockId id() const { return id_; }

 private:
  std::string name_;
  Sim* sim_ = nullptr;
  LockId id_ = kNoLock;
  ThreadId writer_ = kNoThread;
  support::small_vector<ThreadId, 8> readers_;
  std::vector<ThreadId> wait_queue_;
  std::shared_mutex native_;
};

/// RAII guards in the CP.20 style.
template <typename Lockable>
class lock_guard {
 public:
  explicit lock_guard(
      Lockable& l,
      const std::source_location& loc = std::source_location::current())
      : lock_(l), loc_(loc) {
    lock_.lock(loc_);
  }
  ~lock_guard() { lock_.unlock(loc_); }
  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  Lockable& lock_;
  std::source_location loc_;
};

class shared_lock_guard {
 public:
  explicit shared_lock_guard(
      rw_mutex& l,
      const std::source_location& loc = std::source_location::current())
      : lock_(l), loc_(loc) {
    lock_.lock_shared(loc_);
  }
  ~shared_lock_guard() { lock_.unlock(loc_); }
  shared_lock_guard(const shared_lock_guard&) = delete;
  shared_lock_guard& operator=(const shared_lock_guard&) = delete;

 private:
  rw_mutex& lock_;
  std::source_location loc_;
};

/// Condition variable (pthread_cond). Note that — as the paper stresses in
/// its critique of [12] — Helgrind derives no happens-before edges from
/// signal/wait; the events exist so extended tools can.
class condition_variable {
 public:
  explicit condition_variable(std::string_view name = "cond");
  condition_variable(const condition_variable&) = delete;
  condition_variable& operator=(const condition_variable&) = delete;

  /// Caller must hold `m`. Atomically releases it and waits for a signal,
  /// then reacquires. No spurious wakeups in simulated mode.
  void wait(mutex& m,
            const std::source_location& loc = std::source_location::current());

  template <typename Pred>
  void wait_until(
      mutex& m, Pred pred,
      const std::source_location& loc = std::source_location::current()) {
    while (!pred()) {
      if (sim_ != nullptr && sim_->sched().tearing_down()) return;
      wait(m, loc);
    }
  }

  void notify_one(
      const std::source_location& loc = std::source_location::current());
  void notify_all(
      const std::source_location& loc = std::source_location::current());

 private:
  std::string name_;
  Sim* sim_ = nullptr;
  SyncId id_ = 0;
  std::deque<ThreadId> waiters_;
  std::condition_variable_any native_;
};

/// Counting semaphore. Post/wait carry FIFO pairing tokens so extended
/// tools can build happens-before edges over them (the paper's "higher
/// level synchronization" future work).
class semaphore {
 public:
  explicit semaphore(std::uint32_t initial = 0,
                     std::string_view name = "sem");
  semaphore(const semaphore&) = delete;
  semaphore& operator=(const semaphore&) = delete;

  void post(const std::source_location& loc = std::source_location::current());
  void wait(const std::source_location& loc = std::source_location::current());

 private:
  std::string name_;
  Sim* sim_ = nullptr;
  SyncId id_ = 0;
  std::deque<std::uint64_t> tokens_;
  std::uint64_t next_token_ = 1;
  std::vector<ThreadId> wait_queue_;
  // Native state.
  std::mutex native_mu_;
  std::condition_variable native_cv_;
  std::uint32_t native_count_ = 0;
};

}  // namespace rg::rt
