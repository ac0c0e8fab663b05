// Causal spans — the "which transaction" axis of the observability spine.
//
// A SpanTracker assigns dense trace ids (one per SIP transaction, minted at
// ingress) and dense span ids (one per traced operation: dispatch, worker
// handling, registrar lookups, upstream forwards) and maintains the active
// span per simulated thread. The flight recorder stamps that active span
// into every event it records, which buys three things at once:
//
//  * Attribution. Deadlock/race reports capture the active (trace, span) at
//    warn time, so `rg-debug --explain` names the transaction that drove a
//    warning, not just the racing address.
//  * Causal traces. The Perfetto exporter turns closed spans into nested
//    "X" duration events and cross-thread parent/child edges (dispatch →
//    worker hand-offs) into flow ("s"/"f") event pairs.
//  * Latency percentiles. Spans opened with a transaction class
//    (REGISTER/INVITE/OPTIONS) feed their virtual-time duration into
//    fixed-bound Histograms on close, exportable through MetricsRegistry.
//
// Determinism contract: span and trace ids are assigned in begin order on
// the (deterministic) carrier thread, so two same-seed runs mint identical
// ids; timestamps are scheduler virtual time; span *names* are interned
// symbols kept in side tables (resolved to their text at export, like the
// recorder's lock/thread name tables) and never enter the stream hash —
// only the dense ids do. Begin/end record SpanBegin/SpanEnd events through
// the recorder, so the stream-hash oracle extends to span structure.
// Attaching a tracker never adds a scheduling point.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rt/ids.hpp"
#include "support/intern.hpp"

namespace rg::obs {

constexpr std::uint32_t kNoSpan = 0;
constexpr std::uint32_t kNoTrace = 0;

/// Transaction classes with their own latency distribution. Other covers
/// every method without a dedicated class (ACK, BYE, CANCEL, INFO, ...).
enum class TxnClass : std::uint8_t { Other = 0, Register, Invite, Options };
constexpr std::size_t kTxnClassCount = 4;
const char* to_string(TxnClass cls);

/// The (trace, span) pair a producer packages into a job so a worker on
/// another thread can continue the same trace (the flow-event edge).
struct SpanHandoff {
  std::uint32_t trace = kNoTrace;
  std::uint32_t span = kNoSpan;
};

struct SpanInfo {
  std::uint32_t id = kNoSpan;
  std::uint32_t parent = kNoSpan;
  std::uint32_t trace = kNoTrace;
  support::Symbol name = 0;
  rt::ThreadId tid = rt::kNoThread;
  /// Thread of the parent span; != tid marks a cross-thread hand-off (the
  /// exporter draws a flow arrow for it).
  rt::ThreadId parent_tid = rt::kNoThread;
  std::uint64_t start = 0;  // virtual time
  std::uint64_t end = 0;    // virtual time; valid once closed
  /// Free-form payload: Via-branch request key, chaos message id, ...
  std::uint64_t detail = 0;
  TxnClass cls = TxnClass::Other;
  bool closed = false;
};

class SpanTracker {
 public:
  /// Registers itself with `recorder` (required): the recorder stamps the
  /// tracker's active span into every event and folds it into the stream
  /// hash, and SpanBegin/SpanEnd land in the same event stream. The
  /// recorder also supplies the virtual-time clock. Caller keeps ownership
  /// of both; the recorder must outlive the tracker's use.
  explicit SpanTracker(FlightRecorder* recorder);

  SpanTracker(const SpanTracker&) = delete;
  SpanTracker& operator=(const SpanTracker&) = delete;

  /// Opens a span on `tid`. With an active span on that thread the new span
  /// nests under it (same trace); with an empty stack it roots a fresh
  /// trace (dense trace id). Returns the new span id.
  std::uint32_t begin_span(rt::ThreadId tid, std::string_view name,
                           std::uint64_t detail = 0,
                           TxnClass cls = TxnClass::Other);

  /// Opens a span on `tid` continuing `from` (a producer's handoff). The
  /// parent may live on another thread — that edge becomes a flow event.
  /// A null handoff degrades to begin_span (fresh root).
  std::uint32_t adopt(rt::ThreadId tid, const SpanHandoff& from,
                      std::string_view name, std::uint64_t detail = 0,
                      TxnClass cls = TxnClass::Other);

  /// Closes the innermost open span on `tid` (no-op on an empty stack).
  /// Spans opened with a non-Other class feed their virtual-time duration
  /// into that class's latency histogram here.
  void end_span(rt::ThreadId tid);

  /// The current (trace, span) of `tid`, for packaging into a job.
  SpanHandoff handoff(rt::ThreadId tid) const {
    const std::uint32_t s = active_span(tid);
    return SpanHandoff{s == kNoSpan ? kNoTrace : spans_[s].trace, s};
  }

  std::uint32_t active_span(rt::ThreadId tid) const {
    return tid < active_.size() ? active_[tid] : kNoSpan;
  }
  std::uint32_t active_trace(rt::ThreadId tid) const {
    const std::uint32_t s = active_span(tid);
    return s == kNoSpan ? kNoTrace : spans_[s].trace;
  }

  /// Spans ever opened / traces ever rooted.
  std::uint64_t span_count() const { return spans_.size() - 1; }
  std::uint64_t trace_count() const { return next_trace_ - 1; }
  /// All spans, indexed by id (index 0 is an unused sentinel).
  const std::vector<SpanInfo>& spans() const { return spans_; }
  const SpanInfo& span(std::uint32_t id) const { return spans_[id]; }

  /// Virtual-time latency distribution of closed class-rooted spans.
  const Histogram& latency(TxnClass cls) const {
    return *latency_[static_cast<std::size_t>(cls)];
  }

  /// Publishes per-class latency percentiles (count/p50/p90/p99/max
  /// gauges, ticks) plus span/trace totals into the registry.
  void export_latency(MetricsRegistry& registry) const;

  /// Deterministic JSON summary (--spans-out): totals, per-class latency
  /// percentiles, and the full span list in id order.
  std::string json() const;

 private:
  void ensure_tid(rt::ThreadId tid);
  std::uint32_t open(rt::ThreadId tid, std::uint32_t parent,
                     rt::ThreadId parent_tid, std::uint32_t trace,
                     std::string_view name, std::uint64_t detail,
                     TxnClass cls);

  FlightRecorder* recorder_;
  std::vector<SpanInfo> spans_;  // index 0 unused
  std::uint32_t next_trace_ = 1;
  /// Per-thread open-span stacks; active_[tid] mirrors the stack top so the
  /// recorder's hot path is one bounds check and one load.
  std::vector<std::vector<std::uint32_t>> stacks_;
  std::vector<std::uint32_t> active_;
  /// One fixed-bound histogram per TxnClass (Histogram holds atomics, so
  /// the slots are heap-allocated rather than moved).
  std::vector<std::unique_ptr<Histogram>> latency_;
};

}  // namespace rg::obs
