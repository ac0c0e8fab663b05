// The observability spine: flight recorder semantics (wraparound, drop
// accounting, hash determinism, address normalisation, provenance
// queries, JSON escaping), the metrics registry, ToolStats aggregation
// through its field table, and end-to-end replay through a full Sim.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "rt/tool.hpp"
#include "sipp/experiment.hpp"
#include "sipp/soak.hpp"
#include "sipp/testcases.hpp"

namespace rg {
namespace {

using obs::Event;
using obs::EventKind;
using obs::FlightRecorder;
using obs::RecorderConfig;

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  RecorderConfig cfg;
  cfg.capacity = 5;
  FlightRecorder rec(cfg);
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  RecorderConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.record(EventKind::Custom, /*vtime=*/i, /*tid=*/0, /*a=*/i, /*b=*/0);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::vector<Event> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The flight recorder keeps the *last* N events, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12u + i);
    EXPECT_EQ(events[i].a, 12u + i);
  }
}

TEST(FlightRecorder, HashCoversDroppedEvents) {
  // Two streams identical up to wraparound but different in their (long
  // dropped) prefix must hash differently: the oracle covers the whole
  // execution, not the ring's survivors.
  RecorderConfig cfg;
  cfg.capacity = 4;
  FlightRecorder a(cfg), b(cfg);
  a.record(EventKind::Custom, 0, 0, /*a=*/111, 0);
  b.record(EventKind::Custom, 0, 0, /*a=*/222, 0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    a.record(EventKind::Custom, 1 + i, 0, i, 0);
    b.record(EventKind::Custom, 1 + i, 0, i, 0);
  }
  EXPECT_NE(a.hash(), b.hash());
}

TEST(FlightRecorder, HashIsDeterministicAndOrderSensitive) {
  auto feed = [](FlightRecorder& r, bool swap) {
    r.record(EventKind::PreLock, 1, 2, 7, 0);
    if (swap) {
      r.record(EventKind::Unlock, 3, 2, 7, 0);
      r.record(EventKind::PostLock, 2, 2, 7, 0);
    } else {
      r.record(EventKind::PostLock, 2, 2, 7, 0);
      r.record(EventKind::Unlock, 3, 2, 7, 0);
    }
  };
  FlightRecorder r1, r2, r3;
  feed(r1, false);
  feed(r2, false);
  feed(r3, true);
  EXPECT_EQ(r1.hash(), r2.hash());
  EXPECT_NE(r1.hash(), r3.hash());
}

TEST(FlightRecorder, AddressesNormaliseByFirstAppearance) {
  // Same access pattern at disjoint (ASLR-shifted) raw addresses must
  // produce the same hash: the stream never sees a raw pointer.
  auto feed = [](FlightRecorder& r, std::uint64_t base) {
    r.record(EventKind::Access, 0, 0, base + 0x10, 8);
    r.record(EventKind::Access, 1, 0, base + 0x20, 8);
    r.record(EventKind::Access, 2, 0, base + 0x10, 8);
  };
  FlightRecorder r1, r2;
  feed(r1, 0x7f0000000000ull);
  feed(r2, 0x550000000000ull);
  EXPECT_EQ(r1.hash(), r2.hash());
  const std::vector<Event> e = r1.snapshot();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].norm, e[2].norm);  // same address, same dense id
  EXPECT_NE(e[0].norm, e[1].norm);
}

TEST(FlightRecorder, IdentityOverridesRawAddressNormalisation) {
  // With a caller-supplied identity (allocation seq + offset), the raw
  // address is irrelevant: an allocator reusing a freed address in one
  // run but not the other still hashes identically.
  FlightRecorder reuse, fresh;
  const std::uint64_t ident1 = (1ull << 63) | (1ull << 32);
  const std::uint64_t ident2 = (1ull << 63) | (2ull << 32);
  reuse.record(EventKind::Alloc, 0, 0, 0xAAA0, 16, support::kUnknownSite, 0,
               ident1);
  reuse.record(EventKind::Free, 1, 0, 0xAAA0, 16, support::kUnknownSite, 0,
               ident1);
  reuse.record(EventKind::Alloc, 2, 0, 0xAAA0, 16, support::kUnknownSite, 0,
               ident2);  // reused raw address
  fresh.record(EventKind::Alloc, 0, 0, 0xAAA0, 16, support::kUnknownSite, 0,
               ident1);
  fresh.record(EventKind::Free, 1, 0, 0xAAA0, 16, support::kUnknownSite, 0,
               ident1);
  fresh.record(EventKind::Alloc, 2, 0, 0xBBB0, 16, support::kUnknownSite, 0,
               ident2);  // fresh raw address
  EXPECT_EQ(reuse.hash(), fresh.hash());
}

TEST(FlightRecorder, DenseIdsSurviveAddressMapGrowth) {
  // ~12k distinct addresses grow the first-appearance map several times;
  // the id handed out by the insert that triggers a growth must still be
  // the new one.
  RecorderConfig cfg;
  cfg.capacity = 1u << 15;
  FlightRecorder rec(cfg);
  constexpr std::uint64_t kAddrs = 12000;
  for (std::uint64_t i = 0; i < kAddrs; ++i)
    rec.record(EventKind::Access, i, 0, 0x100000 + 16 * i, 8);
  const std::vector<Event> e = rec.snapshot();
  ASSERT_EQ(e.size(), kAddrs);
  for (std::size_t i = 0; i < e.size(); ++i) ASSERT_EQ(e[i].norm, i + 1) << i;
}

TEST(FlightRecorder, BlockBasesAndOtherKeysShareOneFirstAppearanceOrder) {
  // Block-base identities take the dense by-seq array, everything else the
  // hash table; the ids must still count up in first-appearance order
  // across both, and a repeated key must get its first id back.
  FlightRecorder rec;
  const std::uint64_t far_seq = (1ull << 24) + 5;  // past the dense array
  const std::vector<std::uint64_t> keys = {
      obs::alloc_identity(3, 0),       obs::alloc_identity(3, 8),
      0x7f0000001000ull,               obs::alloc_identity(1, 0),
      obs::alloc_identity(far_seq, 0), obs::alloc_identity(5000, 0),
      obs::alloc_identity(3, 0),       obs::alloc_identity(far_seq, 0),
      obs::alloc_identity(3, 8),       0x7f0000001000ull};
  for (std::uint64_t key : keys)
    rec.record(EventKind::Access, 0, 0, 0x1000, 8, support::kUnknownSite, 0,
               key);
  const std::vector<Event> e = rec.snapshot();
  ASSERT_EQ(e.size(), keys.size());
  const std::vector<std::uint32_t> want = {1, 2, 3, 4, 5, 6, 1, 5, 2, 3};
  for (std::size_t i = 0; i < e.size(); ++i) EXPECT_EQ(e[i].norm, want[i]) << i;
}

TEST(FlightRecorder, NonAddressKindsCarryNoNorm) {
  FlightRecorder rec;
  rec.record(EventKind::SchedSwitch, 0, 1, 0, 0);
  rec.record(EventKind::Access, 1, 1, 0x1234, 8);
  const std::vector<Event> e = rec.snapshot();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].norm, obs::kNoNorm);
  EXPECT_NE(e[1].norm, obs::kNoNorm);
}

TEST(FlightRecorder, ExplainFiltersToAddressAndItsThreadsLockOps) {
  FlightRecorder rec;
  const std::uint64_t racy = 0x1000, other = 0x2000;
  rec.record(EventKind::Access, 0, /*tid=*/1, racy, 8);      // relevant
  rec.record(EventKind::Access, 1, /*tid=*/2, other, 8);     // other addr
  rec.record(EventKind::PreLock, 2, /*tid=*/1, 7, 0);        // t1 lock op
  rec.record(EventKind::PreLock, 3, /*tid=*/2, 7, 0);        // t2 never
                                                             // touched racy
  rec.record(EventKind::Access, 4, /*tid=*/3, racy + 4, 4);  // overlap
  rec.record(EventKind::DetectorWarning, 5, /*tid=*/3, racy, 1);
  const std::vector<Event> got = rec.explain(racy, 8, rec.cursor(), 32);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].vtime, 0u);
  EXPECT_EQ(got[1].vtime, 2u);
  EXPECT_EQ(got[2].vtime, 4u);
  EXPECT_EQ(got[3].vtime, 5u);
  // A cursor before the warning excludes it.
  const std::vector<Event> earlier = rec.explain(racy, 8, 5, 32);
  EXPECT_EQ(earlier.size(), 3u);
}

TEST(FlightRecorder, ChromeTraceIsWellFormedAndNamed) {
  FlightRecorder rec;
  rec.note_thread_name(0, "main");
  rec.note_lock_name(7, "tx-table-mutex");
  rec.record(EventKind::PostLock, 1, 0, 7, 0);
  rec.record(EventKind::Access, 2, 0, 0x1000, 8, support::kUnknownSite,
             obs::kAccessWrite);
  // Round-trip: the export must parse back as one JSON document, not just
  // contain the right substrings.
  const test::JsonParseResult doc =
      test::json_parse(rec.chrome_trace_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const test::JsonValue* events = doc.value->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_thread_name = false, saw_lock = false;
  for (const auto& e : events->items) {
    // Every event carries the Chrome-trace required fields.
    ASSERT_TRUE(e->is_object());
    const test::JsonValue* ph = e->get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    EXPECT_TRUE(ph->string == "i" || ph->string == "M") << ph->string;
    EXPECT_NE(e->get("pid"), nullptr);
    EXPECT_NE(e->get("tid"), nullptr);
    if (ph->string == "M") {
      if (const test::JsonValue* name = e->get("name");
          name != nullptr && name->string == "thread_name") {
        const test::JsonValue* args = e->get("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->get("name")->string, "main");
        saw_thread_name = true;
      }
    } else if (const test::JsonValue* args = e->get("args");
               args != nullptr && args->get("lock_name") != nullptr) {
      EXPECT_EQ(args->get("lock_name")->string, "tx-table-mutex");
      saw_lock = true;
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_lock);
  // Raw addresses never leak into the export: 0x1000 = 4096.
  EXPECT_EQ(rec.chrome_trace_json().find("4096"), std::string::npos);
}

// --- ring wraparound ---------------------------------------------------------

TEST(FlightRecorder, RingFloorTracksDroppedEvents) {
  RecorderConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg);
  EXPECT_EQ(rec.ring_floor(), 0u);
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.record(EventKind::Custom, i, 0, i, 0);
  // The floor is the oldest surviving sequence number; everything below
  // it wrapped away but stays covered by the stream hash.
  EXPECT_EQ(rec.ring_floor(), 12u);
  EXPECT_EQ(rec.ring_floor(), rec.dropped());
  EXPECT_EQ(rec.snapshot().front().seq, rec.ring_floor());
}

TEST(FlightRecorder, ExplainNearWrapBoundaryDegradesGracefully) {
  // A provenance cursor that points below the ring floor (its events
  // wrapped away after the warning fired) must yield an empty story, not
  // stale or out-of-ring events.
  RecorderConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg);
  const std::uint64_t racy = 0x1000;
  rec.record(EventKind::Access, 0, /*tid=*/1, racy, 8);
  const std::uint64_t warn_cursor = rec.cursor();  // story = 1 event
  // 16 unrelated events push the access (and the cursor) out of the ring.
  for (std::uint64_t i = 0; i < 16; ++i)
    rec.record(EventKind::Custom, 1 + i, 0, i, 0);
  ASSERT_LT(warn_cursor, rec.ring_floor());
  EXPECT_TRUE(rec.explain(racy, 8, warn_cursor, 32).empty());
  // A cursor above the floor sees exactly the surviving window: the story
  // rebuilt from the live cursor contains only in-ring events.
  rec.record(EventKind::Access, 20, /*tid=*/1, racy, 8);
  const std::vector<Event> story = rec.explain(racy, 8, rec.cursor(), 32);
  ASSERT_EQ(story.size(), 1u);
  EXPECT_GE(story[0].seq, rec.ring_floor());
  // And a cursor beyond the end clamps instead of reading future slots.
  EXPECT_EQ(rec.explain(racy, 8, rec.cursor() + 1000, 32).size(), 1u);
}

TEST(FlightRecorder, HashStillCoversEventsLostToWraparound) {
  // Same surviving window, different wrapped-away prefix => different
  // hash: replay comparison stays sound even when explain() can no longer
  // show the dropped events.
  RecorderConfig cfg;
  cfg.capacity = 8;  // the recorder's minimum ring
  FlightRecorder a(cfg), b(cfg);
  a.record(EventKind::Access, 0, 0, 0x10, 8);
  b.record(EventKind::Access, 0, 0, 0x10, 4);  // differs only here
  for (std::uint64_t i = 0; i < 8; ++i) {
    a.record(EventKind::Custom, 1 + i, 0, i, 0);
    b.record(EventKind::Custom, 1 + i, 0, i, 0);
  }
  ASSERT_GT(a.dropped(), 0u);
  // Surviving windows are identical...
  const std::vector<Event> sa = a.snapshot(), sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].kind, sb[i].kind);
    EXPECT_EQ(sa[i].a, sb[i].a);
  }
  // ...but the oracle still distinguishes the executions.
  EXPECT_NE(a.hash(), b.hash());
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(Metrics, CountersGaugesAndJsonOrder) {
  obs::MetricsRegistry reg;
  reg.counter("z.second").inc(3);
  reg.gauge("a.first").set(-2);
  reg.gauge("a.first").update_max(5);
  reg.gauge("a.first").update_max(1);  // no-op: 1 < 5
  EXPECT_EQ(reg.counter("z.second").value(), 3u);
  EXPECT_EQ(reg.gauge("a.first").value(), 5);
  EXPECT_TRUE(reg.has("z.second"));
  EXPECT_FALSE(reg.has("missing"));
  // Registration order, not alphabetical.
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("z.second"), json.find("a.first"));
}

TEST(Metrics, HistogramBucketsBoundsInclusive) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {10, 100});
  for (std::uint64_t v : {5, 10, 11, 100, 101}) h.observe(v);
  ASSERT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);  // 5, 10   (v <= 10)
  EXPECT_EQ(h.bucket(1), 2u);  // 11, 100 (10 < v <= 100)
  EXPECT_EQ(h.bucket(2), 1u);  // 101     (overflow)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 227u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 101u);
  EXPECT_DOUBLE_EQ(h.mean(), 227.0 / 5.0);
}

TEST(ToolStats, FieldTableDrivesAggregationAndExport) {
  rt::ToolStats a, b;
  a.lockset_cache_hits = 1;
  a.shadow_tlb_misses = 4;
  b.lockset_cache_hits = 10;
  b.lockset_cache_misses = 20;
  b.shadow_tlb_hits = 30;
  b.shadow_tlb_misses = 40;
  a.shadow_pages = 2;
  b.shadow_pages = 5;
  a += b;
  EXPECT_EQ(a.lockset_cache_hits, 11u);
  EXPECT_EQ(a.lockset_cache_misses, 20u);
  EXPECT_EQ(a.shadow_tlb_hits, 30u);
  EXPECT_EQ(a.shadow_tlb_misses, 44u);
  EXPECT_EQ(a.shadow_pages, 7u);
  // The static_assert on sizeof(ToolStats) == fields.size() * 8 is the
  // real guard; here we only check the table stays in sync at runtime.
  std::uint64_t via_table = 0;
  for (const rt::ToolStats::Field& f : rt::ToolStats::fields)
    via_table += a.*f.member;
  EXPECT_EQ(via_table, 11u + 20u + 30u + 44u + 7u);
  obs::MetricsRegistry reg;
  a.export_to(reg);
  EXPECT_EQ(reg.counter("tool.lockset_cache_hits").value(), 11u);
  EXPECT_EQ(reg.counter("tool.shadow_tlb_misses").value(), 44u);
  EXPECT_EQ(reg.counter("tool.shadow_pages").value(), 7u);
}

// --- end to end through a Sim -----------------------------------------------

TEST(Observability, SameSeedRunsReplayBitIdentically) {
  auto run = [](FlightRecorder& rec) {
    sipp::ExperimentConfig cfg;
    cfg.seed = 11;
    cfg.detector = core::HelgrindConfig::hwlc_dr();
    cfg.recorder = &rec;
    const sipp::Scenario sc = sipp::build_testcase(5, cfg.seed);
    return sipp::run_scenario(sc, cfg);
  };
  FlightRecorder r1, r2;
  const sipp::ExperimentResult a = run(r1);
  const sipp::ExperimentResult b = run(r2);
  EXPECT_GT(a.recorder_events, 0u);
  EXPECT_EQ(a.recorder_hash, b.recorder_hash);
  EXPECT_EQ(a.recorder_events, b.recorder_events);
  EXPECT_EQ(r1.chrome_trace_json(), r2.chrome_trace_json());
  // Warnings carry provenance cursors into the live stream.
  ASSERT_FALSE(a.reports.empty());
  for (const core::Report& r : a.reports) {
    EXPECT_GT(r.recorder_cursor, 0u);
    EXPECT_LE(r.recorder_cursor, a.recorder_events);
  }
  // And explain() on the first warning yields a non-empty story ending
  // in events on the racing address.
  const core::Report& first = a.reports.front();
  const std::vector<Event> story = r1.explain(
      first.access.addr, first.access.size, first.recorder_cursor, 16);
  EXPECT_FALSE(story.empty());
}

TEST(Observability, RecorderOffMatchesRecorderOnOutcomes) {
  // Attaching the recorder must not perturb the run: same warnings, same
  // responses with and without it.
  sipp::ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  const sipp::Scenario sc = sipp::build_testcase(2, cfg.seed);
  const sipp::ExperimentResult off = sipp::run_scenario(sc, cfg);
  FlightRecorder rec;
  cfg.recorder = &rec;
  const sipp::ExperimentResult on = sipp::run_scenario(sc, cfg);
  EXPECT_EQ(off.reported_locations, on.reported_locations);
  EXPECT_EQ(off.total_warnings, on.total_warnings);
  EXPECT_EQ(off.responses, on.responses);
  EXPECT_EQ(off.location_keys, on.location_keys);
}

TEST(Observability, ProfilerCountsMatchDispatchedEvents) {
  sipp::ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.detector = core::HelgrindConfig::hwlc_dr();
  obs::HookProfiler prof;
  cfg.profiler = &prof;
  const sipp::Scenario sc = sipp::build_testcase(2, cfg.seed);
  const sipp::ExperimentResult r = sipp::run_scenario(sc, cfg);
  ASSERT_EQ(prof.tool_count(), 1u);
  EXPECT_EQ(prof.tool_name(0), "helgrind");
  EXPECT_EQ(prof.events(0, obs::Hook::Access), r.sim.access_events);
  EXPECT_EQ(prof.events(0, obs::Hook::Finish), 1u);
  EXPECT_GT(prof.total_cycles(0), 0u);
  const std::string table = prof.render();
  EXPECT_NE(table.find("helgrind"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(Observability, DomainLayersRecordThroughTheSim) {
  // Chaos injection, breaker transitions and SIP transaction states are
  // recorded by layers above the runtime, which find the recorder through
  // Sim::current(). A T5 run with faults on both hops and upstream targets
  // must record all three kinds, and replay them bit-identically. Seed 6
  // opens a breaker under this mix (seed 3, for one, opens none).
  const sipp::SoakMix both_hops = sipp::default_soak_mixes().back();
  ASSERT_EQ(both_hops.name, "both-hops");
  auto run = [&](FlightRecorder& rec) {
    sipp::ExperimentConfig cfg = sipp::soak_experiment(6, both_hops);
    cfg.recorder = &rec;
    return sipp::run_scenario(sipp::build_testcase(5, cfg.seed), cfg);
  };
  RecorderConfig big;
  big.capacity = 1u << 18;
  FlightRecorder r1(big), r2(big);
  const sipp::ExperimentResult a = run(r1);
  const sipp::ExperimentResult b = run(r2);
  ASSERT_EQ(r1.dropped(), 0u);
  ASSERT_GT(a.breaker_opens, 0u);
  std::size_t chaos = 0, breaker = 0, txn = 0;
  for (const Event& e : r1.snapshot()) {
    chaos += e.kind == EventKind::ChaosInject;
    breaker += e.kind == EventKind::BreakerTransition;
    txn += e.kind == EventKind::TxnState;
  }
  EXPECT_GT(chaos, 0u);
  EXPECT_GT(breaker, 0u);
  EXPECT_GT(txn, 0u);
  EXPECT_EQ(a.recorder_hash, b.recorder_hash);
  EXPECT_EQ(a.recorder_events, b.recorder_events);
}

}  // namespace
}  // namespace rg
