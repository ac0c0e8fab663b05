// rt::TraceSpan — RAII causal-span scope for code running under a Sim.
//
// The span layer lives in obs/ and knows nothing about simulated threads;
// this helper bridges the gap: it resolves the current Sim's SpanTracker
// and the current simulated ThreadId, and degrades to an exact no-op when
// either is missing — so the SIP stack can be traced unconditionally and
// pay nothing when no tracker is attached (the §4.5 baseline stays a
// baseline).
//
// Usage:
//   {
//     rt::TraceSpan span("sip.INVITE", branch_key, obs::TxnClass::Invite);
//     ... handler work; nested TraceSpans stack under it ...
//   }  // span closes, latency observed
//
// Cross-thread hand-off (producer → worker):
//   producer:  job->handoff = rt::trace_handoff();
//   worker:    rt::TraceSpan span("sip.worker", 0, obs::TxnClass::Other,
//                                 job->handoff);
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/span.hpp"
#include "rt/sim.hpp"

namespace rg::rt {

/// The calling simulated thread's (trace, span) for packaging into a job;
/// a null handoff outside a Sim or without a tracker.
inline obs::SpanHandoff trace_handoff() {
  Sim* const sim = Sim::current();
  if (sim == nullptr || sim->spans() == nullptr) return {};
  return sim->spans()->handoff(Sim::current_thread());
}

/// Opens a span on the current simulated thread for the enclosing scope.
/// It continues `from` (the cross-thread flow edge) when that is set, and
/// otherwise nests under the thread's active span or roots a fresh trace.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, std::uint64_t detail = 0,
                     obs::TxnClass cls = obs::TxnClass::Other,
                     const obs::SpanHandoff& from = {}) {
    Sim* const sim = Sim::current();
    tracker_ = sim != nullptr ? sim->spans() : nullptr;
    if (tracker_ == nullptr) return;
    tid_ = Sim::current_thread();
    tracker_->adopt(tid_, from, name, detail, cls);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracker_ != nullptr) tracker_->end_span(tid_);
  }

 private:
  obs::SpanTracker* tracker_;
  ThreadId tid_ = kNoThread;
};

}  // namespace rg::rt
