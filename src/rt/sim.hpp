// Sim — one observed execution of a program under test.
//
// Couples a Runtime (event fan-out to tools) with a Scheduler (deterministic
// interleaving) and is the one ambient context: the instrumented primitives
// and the layers above them (SIP transactions, breakers, chaos injection,
// span scopes, reports) reach the runtime, scheduler, recorder and span
// tracker through Sim::current(). When no Sim is current on a thread, the
// primitives fall back to plain native synchronisation with zero event
// traffic — that mode is the "no Valgrind" baseline of the §4.5
// performance experiment.
#pragma once

#include <functional>
#include <string>

#include "rt/runtime.hpp"
#include "rt/sched.hpp"

namespace rg::rt {

struct SimConfig {
  SchedConfig sched;
};

/// Outcome of one simulated execution.
struct SimResult {
  SimOutcome outcome = SimOutcome::Completed;
  std::uint64_t steps = 0;
  /// Preemption points that returned without scanning the thread list (no
  /// sleeper due, no switch); 0 when SchedConfig::fast_path is off.
  std::uint64_t fast_path_steps = 0;
  std::uint64_t virtual_time = 0;
  std::uint64_t access_events = 0;
  std::uint64_t sync_events = 0;
  DeadlockEvidence deadlock;
  std::string error;

  bool completed() const { return outcome == SimOutcome::Completed; }
  bool deadlocked() const { return outcome == SimOutcome::Deadlocked; }
};

class Sim {
 public:
  explicit Sim(const SimConfig& config = {});

  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  Runtime& runtime() { return runtime_; }
  Scheduler& sched() { return sched_; }
  const SimConfig& config() const { return config_; }

  /// Attaches a detection tool; caller keeps ownership.
  void attach(Tool& tool) { runtime_.attach(tool); }

  /// Attaches a flight recorder for the whole execution: its clock becomes
  /// the scheduler's virtual time, and the runtime and scheduler mirror
  /// their events into it. Layers above the runtime (SIP transactions,
  /// breakers, chaos injection) record through Sim::current()->recorder().
  /// Must be called before run(); caller keeps ownership.
  void set_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
    if (recorder != nullptr) recorder->set_clock(sched_.vtime_source());
    runtime_.set_recorder(recorder);
    sched_.set_recorder(recorder);
  }
  obs::FlightRecorder* recorder() const { return recorder_; }

  /// Attaches a per-tool hook profiler (see Runtime::set_profiler).
  void set_profiler(obs::HookProfiler* profiler) {
    runtime_.set_profiler(profiler);
  }

  /// Attaches a span tracker. Layers above the runtime (dispatchers, SIP
  /// handlers, the chaos client) open causal spans in it via rt::TraceSpan,
  /// and reports attribute warnings to its active span. The tracker must
  /// already be bound to this Sim's recorder (SpanTracker's constructor
  /// does that). Caller keeps ownership; call before run().
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }
  obs::SpanTracker* spans() const { return spans_; }

  /// Executes `entry` as the main simulated thread on the calling OS
  /// thread; returns when every simulated thread has finished.
  SimResult run(const std::function<void()>& entry);

  /// The Sim governing the calling OS thread, or nullptr when the thread is
  /// not simulated (native mode). run() keeps it current from main's
  /// registration until the tools' on_finish has returned.
  static Sim* current();

  /// ThreadId of the calling simulated thread. Only valid under a Sim.
  static ThreadId current_thread();

 private:
  friend class thread;

  SimConfig config_;
  Runtime runtime_;
  Scheduler sched_;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;
  bool ran_ = false;
};

}  // namespace rg::rt
