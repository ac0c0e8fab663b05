// Instrumented thread handle.
//
// Under a Sim, constructs a simulated thread (raising on_thread_start /
// on_thread_join events, which drive the thread-segment graph of Fig. 2);
// outside a Sim, wraps a plain std::thread for the native baseline.
#pragma once

#include <functional>
#include <source_location>
#include <string>
#include <string_view>
#include <thread>

#include "rt/ids.hpp"
#include "rt/sim.hpp"

namespace rg::rt {

class thread {
 public:
  thread() = default;

  /// Starts the thread immediately (pthread_create semantics).
  explicit thread(
      std::function<void()> fn, std::string_view name = "worker",
      const std::source_location& loc = std::source_location::current());

  thread(const thread&) = delete;
  thread& operator=(const thread&) = delete;
  thread(thread&& other) noexcept;
  thread& operator=(thread&& other) noexcept;

  /// Joining an unjoined thread in the destructor keeps the joining-thread
  /// discipline (a thread is a scoped container); prefer explicit join().
  ~thread();

  bool joinable() const;

  /// Blocks until the thread finishes, then raises on_thread_join — the HB
  /// edge that ends the joined thread's last segment.
  void join(const std::source_location& loc = std::source_location::current());

  /// Gives up the handle; under a Sim the scheduler still drains the thread
  /// at end of run.
  void detach();

  /// Simulated thread id; kNoThread in native mode.
  ThreadId tid() const { return tid_; }

 private:
  Sim* sim_ = nullptr;
  ThreadId tid_ = kNoThread;
  bool joined_ = true;
  std::thread native_;
};

/// Yields/preempts: under a Sim this is a pure scheduling point; native mode
/// maps to std::this_thread::yield().
void yield();

/// Sleeps `ticks` of virtual time under a Sim; native mode sleeps `ticks`
/// milliseconds.
void sleep_ticks(std::uint64_t ticks);

}  // namespace rg::rt
