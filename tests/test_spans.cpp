// Causal spans and the lock-contention observatory: SpanTracker id
// assignment and nesting, cross-thread hand-offs, recorder stamping and
// hash compatibility, Perfetto flow-event well-formedness (round-trip
// parsed), ContentionTable wait/hold accounting, per-class latency
// percentiles, and warning attribution end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "json.hpp"
#include "obs/contention.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"

namespace rg {
namespace {

using obs::ContentionTable;
using obs::Event;
using obs::EventKind;
using obs::FlightRecorder;
using obs::SpanHandoff;
using obs::SpanTracker;
using obs::TxnClass;

TEST(SpanTracker, DenseIdsNestingAndTraceRooting) {
  FlightRecorder rec;
  SpanTracker spans(&rec);
  // First span on an empty stack roots trace 1; a nested span shares it.
  const std::uint32_t a = spans.begin_span(0, "ingress");
  const std::uint32_t b = spans.begin_span(0, "registrar.lookup");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(spans.active_span(0), b);
  EXPECT_EQ(spans.span(b).parent, a);
  EXPECT_EQ(spans.span(b).trace, spans.span(a).trace);
  spans.end_span(0);
  EXPECT_EQ(spans.active_span(0), a);
  spans.end_span(0);
  EXPECT_EQ(spans.active_span(0), obs::kNoSpan);
  // A fresh root after the stack drained mints the next dense trace id.
  const std::uint32_t c = spans.begin_span(0, "ingress");
  EXPECT_EQ(spans.span(c).trace, spans.span(a).trace + 1);
  EXPECT_EQ(spans.span_count(), 3u);
  EXPECT_EQ(spans.trace_count(), 2u);
}

TEST(SpanTracker, AdoptContinuesTraceAcrossThreads) {
  FlightRecorder rec;
  SpanTracker spans(&rec);
  const std::uint32_t parent = spans.begin_span(1, "sip.ingress");
  const SpanHandoff h = spans.handoff(1);
  EXPECT_EQ(h.span, parent);
  spans.end_span(1);  // producer's span closes before the worker runs
  const std::uint32_t child = spans.adopt(2, h, "sip.worker");
  EXPECT_EQ(spans.span(child).trace, spans.span(parent).trace);
  EXPECT_EQ(spans.span(child).parent, parent);
  EXPECT_EQ(spans.span(child).parent_tid, 1u);  // cross-thread edge
  EXPECT_EQ(spans.span(child).tid, 2u);
  // A null handoff degrades to a fresh root instead of crashing.
  const std::uint32_t orphan = spans.adopt(3, SpanHandoff{}, "sip.worker");
  EXPECT_NE(spans.span(orphan).trace, spans.span(parent).trace);
  EXPECT_EQ(spans.span(orphan).parent, obs::kNoSpan);
}

TEST(SpanTracker, RecorderStampsActiveSpanIntoEvents) {
  FlightRecorder rec;
  SpanTracker spans(&rec);
  rec.record(EventKind::Finish, 0, /*tid=*/0, 1, 0);  // before any span
  const std::uint32_t s = spans.begin_span(0, "txn");
  rec.record(EventKind::Finish, 1, /*tid=*/0, 2, 0);  // inside
  spans.end_span(0);
  rec.record(EventKind::Finish, 2, /*tid=*/0, 3, 0);  // after
  const std::vector<Event> events = rec.snapshot();
  // Custom(1), SpanBegin, Custom(2), SpanEnd, Custom(3).
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].span, obs::kNoSpan);
  EXPECT_EQ(events[1].kind, EventKind::SpanBegin);
  EXPECT_EQ(events[1].span, s);  // begin is recorded after the push
  EXPECT_EQ(events[2].span, s);
  EXPECT_EQ(events[3].kind, EventKind::SpanEnd);
  EXPECT_EQ(events[3].span, s);  // end is recorded before the pop
  EXPECT_EQ(events[4].span, obs::kNoSpan);
}

TEST(SpanTracker, AttachedButIdleTrackerLeavesHashUnchanged) {
  // Bit-compatibility of the stream hash: a tracker with no open spans
  // stamps span 0 into every event, which must hash exactly like a
  // recorder with no tracker at all — the soak replay oracle's
  // recorder-only hashes survive this PR unchanged.
  auto feed = [](FlightRecorder& r) {
    r.record(EventKind::PreLock, 1, 2, 7, 0);
    r.record(EventKind::PostLock, 2, 2, 7, 0);
    r.record(EventKind::Access, 3, 2, 0x1000, 8);
    r.record(EventKind::Unlock, 4, 2, 7, 0);
  };
  FlightRecorder bare;
  feed(bare);
  FlightRecorder tracked;
  SpanTracker spans(&tracked);
  feed(tracked);
  EXPECT_EQ(bare.hash(), tracked.hash());
  // An *open* span, by contrast, must perturb the hash: span structure is
  // part of the oracle.
  FlightRecorder active;
  SpanTracker spans2(&active);
  spans2.begin_span(2, "txn");
  feed(active);
  spans2.end_span(2);
  EXPECT_NE(bare.hash(), active.hash());
}

TEST(SpanTracker, ClassedSpansFeedLatencyPercentiles) {
  FlightRecorder rec;
  std::atomic<std::uint64_t> vtime{0};
  rec.set_clock(&vtime);  // span start/end read the recorder's clock
  SpanTracker spans(&rec);
  // Durations 1, 2, ..., 100 ticks into the REGISTER histogram.
  for (std::uint64_t d = 1; d <= 100; ++d) {
    spans.begin_span(0, "sip.REGISTER", 0, TxnClass::Register);
    vtime += d;
    spans.end_span(0);
  }
  const obs::Histogram& h = spans.latency(TxnClass::Register);
  EXPECT_EQ(h.count(), 100u);
  // Power-of-two bounds: the p50 of 1..100 lands in the (32, 64] bucket,
  // p99 and max in (64, 128].
  EXPECT_EQ(h.quantile(0.5), 64u);
  EXPECT_EQ(h.quantile(0.99), 128u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(spans.latency(TxnClass::Invite).count(), 0u);

  obs::MetricsRegistry reg;
  spans.export_latency(reg);
  EXPECT_EQ(reg.counter("spans.count").value(), 100u);
  EXPECT_EQ(reg.gauge("spans.latency.REGISTER.count").value(), 100);
  EXPECT_EQ(reg.gauge("spans.latency.REGISTER.p50").value(), 64);
}

TEST(Histogram, QuantileWalksCumulativeBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("q", {10, 100, 1000});
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (std::uint64_t v : {1, 2, 3, 4, 5, 50, 500, 5000}) h.observe(v);
  EXPECT_EQ(h.quantile(0.0), 10u);    // clamped to the first observation
  EXPECT_EQ(h.quantile(0.5), 10u);    // 4/8 within the first bucket
  EXPECT_EQ(h.quantile(0.75), 100u);  // 6/8 within (10, 100]
  EXPECT_EQ(h.quantile(1.0), 5000u);  // overflow bucket reports max()
}

// --- contention table --------------------------------------------------------

TEST(ContentionTable, WaitHoldAndWaitersBehindAccounting) {
  ContentionTable table;
  const std::uint64_t lk = 3;
  // t1 acquires uncontended at t=10, holds 5 ticks.
  table.on_pre_lock(lk, 1, 10);
  table.on_post_lock(lk, 1, 10, support::kUnknownSite);
  // t2 and t3 queue up while t1 holds.
  table.on_pre_lock(lk, 2, 11);
  table.on_pre_lock(lk, 3, 12);
  table.on_unlock(lk, 1, 15);
  // t2 acquires after 6 ticks of wait, leaving t3 behind.
  table.on_post_lock(lk, 2, 17, support::kUnknownSite);
  table.on_unlock(lk, 2, 20);
  table.on_post_lock(lk, 3, 21, support::kUnknownSite);
  table.on_unlock(lk, 3, 22);

  EXPECT_EQ(table.total_acquisitions(), 3u);
  // Waits: t1 0, t2 17-11=6, t3 21-12=9.
  EXPECT_EQ(table.total_wait_ticks(), 15u);
  ASSERT_EQ(table.lock_count(), 1u);
  const ContentionTable::LockStats& ls = *table.ranked().front();
  EXPECT_EQ(ls.lock, lk);
  EXPECT_EQ(ls.acquisitions, 3u);
  EXPECT_EQ(ls.contended, 2u);  // t1's instant acquisition wasn't
  EXPECT_EQ(ls.wait_ticks, 15u);
  // Holds: t1 15-10=5, t2 20-17=3, t3 22-21=1.
  EXPECT_EQ(ls.hold_ticks, 9u);
  EXPECT_EQ(ls.max_waiters, 2u);
  // Waiters left behind at acquisition: t1 left 0 (none queued yet), t2
  // left 1 (t3), t3 left 0.
  EXPECT_EQ(ls.waiters_behind[0], 2u);
  EXPECT_EQ(ls.waiters_behind[1], 1u);
  // Per-thread rows in first-appearance order.
  ASSERT_EQ(ls.threads.size(), 3u);
  EXPECT_EQ(ls.threads[0].tid, 1u);
  EXPECT_EQ(ls.threads[0].wait_ticks, 0u);
  EXPECT_EQ(ls.threads[0].hold_ticks, 5u);
  EXPECT_EQ(ls.threads[1].wait_ticks, 6u);
  EXPECT_EQ(ls.threads[2].wait_ticks, 9u);
}

TEST(ContentionTable, TryLockAndUnmatchedUnlockStayConsistent) {
  ContentionTable table;
  // PostLock with no PreLock (the runtime's try_lock raises both, but the
  // table does not rely on it): counts as an uncontended acquisition.
  table.on_post_lock(5, 1, 10, support::kUnknownSite);
  table.on_unlock(5, 1, 12);
  // Unlock with no matching acquisition state: ignored, no underflow.
  table.on_unlock(9, 2, 20);
  EXPECT_EQ(table.total_acquisitions(), 1u);
  EXPECT_EQ(table.total_wait_ticks(), 0u);
  const ContentionTable::LockStats& ls = *table.ranked().front();
  EXPECT_EQ(ls.hold_ticks, 2u);
  EXPECT_EQ(ls.contended, 0u);
}

TEST(ContentionTable, RecursiveHoldCountsOutermostInterval) {
  ContentionTable table;
  table.on_pre_lock(4, 1, 10);
  table.on_post_lock(4, 1, 10, support::kUnknownSite);
  table.on_pre_lock(4, 1, 12);  // reader re-acquisition
  table.on_post_lock(4, 1, 12, support::kUnknownSite);
  table.on_unlock(4, 1, 14);
  table.on_unlock(4, 1, 18);  // outermost release
  const ContentionTable::LockStats& ls = *table.ranked().front();
  EXPECT_EQ(ls.acquisitions, 2u);
  EXPECT_EQ(ls.hold_ticks, 8u);  // 18 - 10, not double-counted
}

TEST(ContentionTable, FamiliesPoolPerInstanceLocks) {
  FlightRecorder rec;
  rec.note_lock_name(1, "tx-mutex:branch-a");
  rec.note_lock_name(2, "tx-mutex:branch-b");
  rec.note_lock_name(3, "registrar-mutex");
  ContentionTable table;
  for (std::uint64_t lk : {1, 2, 3}) {
    table.on_pre_lock(lk, 1, 10 * lk);
    table.on_post_lock(lk, 1, 10 * lk + lk, support::kUnknownSite);
    table.on_unlock(lk, 1, 10 * lk + lk + 1);
  }
  const auto fams = table.families(rec);
  ASSERT_EQ(fams.size(), 2u);
  // tx-mutex pooled both instances: wait 1 + 2 = 3 beats registrar's 3?
  // No — equal wait 3 vs 3 breaks ties by name: "registrar-mutex" first.
  EXPECT_EQ(fams[0].wait_ticks, 3u);
  EXPECT_EQ(fams[1].wait_ticks, 3u);
  EXPECT_EQ(fams[0].name, "registrar-mutex");
  EXPECT_EQ(fams[1].name, "tx-mutex");
  EXPECT_EQ(fams[1].locks, 2u);
  EXPECT_EQ(fams[1].acquisitions, 2u);
  // An unnamed lock families as L<id>.
  table.on_post_lock(9, 1, 50, support::kUnknownSite);
  table.on_unlock(9, 1, 51);
  EXPECT_EQ(table.families(rec).size(), 3u);
}

// --- end to end through a Sim ------------------------------------------------

sipp::ExperimentResult run_traced(std::uint64_t seed, int testcase,
                                  FlightRecorder& rec, SpanTracker& spans,
                                  ContentionTable& contention) {
  sipp::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  cfg.recorder = &rec;
  cfg.spans = &spans;
  cfg.contention = &contention;
  const sipp::Scenario sc = sipp::build_testcase(testcase, seed);
  return sipp::run_scenario(sc, cfg);
}

TEST(Spans, SameSeedRunsProduceBitIdenticalSpansAndContention) {
  FlightRecorder r1, r2;
  SpanTracker s1(&r1), s2(&r2);
  ContentionTable c1, c2;
  const sipp::ExperimentResult a = run_traced(11, 5, r1, s1, c1);
  const sipp::ExperimentResult b = run_traced(11, 5, r2, s2, c2);
  EXPECT_GT(a.spans_created, 0u);
  EXPECT_GT(a.traces_created, 0u);
  EXPECT_EQ(a.spans_created, b.spans_created);
  EXPECT_EQ(a.recorder_hash, b.recorder_hash);
  EXPECT_EQ(s1.json(), s2.json());
  EXPECT_EQ(c1.json(r1), c2.json(r2));
  EXPECT_EQ(r1.chrome_trace_json(), r2.chrome_trace_json());
  // Spans genuinely entered the oracle: a recorder-only run of the same
  // seed hashes differently.
  sipp::ExperimentConfig plain;
  plain.seed = 11;
  plain.detector = core::HelgrindConfig::hwlc_dr();
  FlightRecorder r3;
  plain.recorder = &r3;
  const sipp::ExperimentResult c =
      sipp::run_scenario(sipp::build_testcase(5, 11), plain);
  EXPECT_NE(c.recorder_hash, a.recorder_hash);
}

TEST(Spans, ChromeTraceFlowEventsAreWellFormed) {
  FlightRecorder rec;
  SpanTracker spans(&rec);
  ContentionTable contention;
  run_traced(11, 5, rec, spans, contention);
  const test::JsonParseResult doc =
      test::json_parse(rec.chrome_trace_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const test::JsonValue* events = doc.value->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::int64_t> flow_starts, flow_ends;
  std::size_t duration_spans = 0;
  for (const auto& e : events->items) {
    const std::string& ph = e->get("ph")->string;
    EXPECT_TRUE(ph == "i" || ph == "M" || ph == "X" || ph == "s" ||
                ph == "f")
        << ph;
    if (ph == "X") {
      ++duration_spans;
      ASSERT_NE(e->get("dur"), nullptr);
      ASSERT_NE(e->get("args"), nullptr);
      const test::JsonValue* args = e->get("args");
      ASSERT_NE(args->get("span"), nullptr);
      ASSERT_NE(args->get("trace"), nullptr);
      EXPECT_GT(args->get("span")->integer, 0);
    } else if (ph == "s") {
      flow_starts.insert(e->get("id")->integer);
    } else if (ph == "f") {
      flow_ends.insert(e->get("id")->integer);
      // Binding point "enclosing slice" so the arrow lands on the span.
      ASSERT_NE(e->get("bp"), nullptr);
      EXPECT_EQ(e->get("bp")->string, "e");
    }
  }
  EXPECT_EQ(duration_spans, spans.span_count());
  // Every flow start has exactly its matching finish, and the workload's
  // dispatch hand-offs produced at least one edge.
  EXPECT_EQ(flow_starts, flow_ends);
  EXPECT_FALSE(flow_starts.empty());
}

TEST(Spans, WarningsCarryOriginatingTraceId) {
  // The acceptance claim: with spans attached, race/deadlock reports name
  // the transaction that drove them.
  FlightRecorder rec;
  SpanTracker spans(&rec);
  ContentionTable contention;
  const sipp::ExperimentResult r = run_traced(7, 2, rec, spans, contention);
  ASSERT_FALSE(r.reports.empty());
  bool attributed = false;
  for (const core::Report& report : r.reports) {
    if (report.trace_id != 0) {
      attributed = true;
      EXPECT_NE(report.span_id, 0u);
      EXPECT_LE(report.trace_id, spans.trace_count());
      // The rendered log names the driving transaction.
      EXPECT_NE(r.report_text.find("Driven by transaction trace"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(Spans, AttachingSpansDoesNotPerturbDetection) {
  // Same warnings and responses with and without the causal layer: span
  // tracking adds no scheduling points and no detector-visible state.
  sipp::ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  const sipp::Scenario sc = sipp::build_testcase(2, cfg.seed);
  const sipp::ExperimentResult off = sipp::run_scenario(sc, cfg);
  FlightRecorder rec;
  SpanTracker spans(&rec);
  ContentionTable contention;
  cfg.recorder = &rec;
  cfg.spans = &spans;
  cfg.contention = &contention;
  const sipp::ExperimentResult on = sipp::run_scenario(sc, cfg);
  EXPECT_EQ(off.reported_locations, on.reported_locations);
  EXPECT_EQ(off.total_warnings, on.total_warnings);
  EXPECT_EQ(off.responses, on.responses);
  EXPECT_EQ(off.location_keys, on.location_keys);
  EXPECT_EQ(off.sim.steps, on.sim.steps);
}

TEST(Spans, SpansJsonRoundTripsAndCountsAgree) {
  FlightRecorder rec;
  SpanTracker spans(&rec);
  ContentionTable contention;
  run_traced(11, 5, rec, spans, contention);
  const test::JsonParseResult doc = test::json_parse(spans.json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_EQ(doc.value->get("spans")->integer,
            static_cast<std::int64_t>(spans.span_count()));
  EXPECT_EQ(doc.value->get("traces")->integer,
            static_cast<std::int64_t>(spans.trace_count()));
  ASSERT_NE(doc.value->get("span_list"), nullptr);
  EXPECT_EQ(doc.value->get("span_list")->size(), spans.span_count());
  const test::JsonParseResult matrix =
      test::json_parse(contention.json(rec));
  ASSERT_TRUE(matrix.ok()) << matrix.error;
  EXPECT_GT(matrix.value->get("total_acquisitions")->integer, 0);
  ASSERT_NE(matrix.value->get("top"), nullptr);
  EXPECT_FALSE(matrix.value->get("top")->items.empty());
}

}  // namespace
}  // namespace rg
