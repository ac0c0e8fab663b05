// The flight recorder — one observability spine for the whole stack.
//
// A fixed-capacity ring buffer of virtual-time-stamped binary events:
// scheduler switches, lock operations, memory accesses, chaos injections,
// circuit-breaker transitions, detector state changes and SIP transaction
// milestones all land in the same stream, in the order the (deterministic)
// scheduler produced them. Three contracts make it more than a debug aid:
//
//  * Determinism. Timestamps are scheduler virtual time, identities are
//    dense ids or interned symbols, and raw heap addresses are normalised
//    to first-appearance dense ids before they reach any output — so two
//    runs with the same seed produce byte-identical Chrome traces and an
//    identical stream hash. The hash covers *every* event ever recorded
//    (not just the survivors of ring wraparound), which makes the recorder
//    an equivalence oracle: equal hashes == the two executions raised the
//    same events in the same order.
//
//  * Bounded cost. record() is a seq bump, one slot store and a few
//    multiply-xor rounds for the stream hash; the ring never allocates
//    after construction (the address-normalisation table grows by plain
//    malloc, invisible to the detectors). No locks, no scheduling points:
//    attaching the recorder cannot perturb a schedule.
//
//  * Provenance. Every filed warning captures the recorder cursor at the
//    moment it fired; explain() walks backwards from a cursor and returns
//    the accesses on the racing address plus the lock operations of the
//    threads involved — the events that drove the lockset to ∅.
//
// The exporter emits Chrome trace-event JSON (Perfetto-loadable).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/contention.hpp"
#include "rt/ids.hpp"
#include "support/site.hpp"

namespace rg::obs {

class SpanTracker;

/// The one event vocabulary: the flight recorder's kinds and, by the same
/// values, the hook profiler's cells. ThreadStart to Destruct are the
/// runtime's events, recorded and dispatched to the tools by one call
/// (Runtime::emit), except that ThreadExit and LockDestroy are only
/// recorded (no tool hooks them) and Access is dispatched on every access
/// but recorded only by the detector. SchedSwitch and the kinds after
/// Destruct are only recorded; Finish is only dispatched.
enum class EventKind : std::uint8_t {
  // Scheduler / thread lifecycle.
  SchedSwitch,  // a = previous thread; tid = incoming thread
  ThreadStart,  // a = parent thread
  ThreadExit,
  ThreadJoin,   // a = joined thread
  // Locks (a = lock id; flags = LockMode for the lock ops).
  LockCreate,   // b = is_rw
  LockDestroy,
  PreLock,
  PostLock,
  Unlock,
  // Condvars / semaphores / message queues (a = sync id, b = token).
  CondSignal,
  CondWait,
  SemPost,
  SemWait,
  QueuePut,
  QueueGet,
  // Memory (a = address [normalised on export], b = size).
  Access,       // a detector-state-changing access (lockset refinement /
                // shared transition); steady-state accesses are implied by
                // the recorded schedule. flags = kAccessWrite | kAccessBusLocked
  Alloc,
  Free,
  Destruct,     // the VALGRIND_HG_DESTRUCT annotation
  // Robustness tier.
  ChaosInject,        // a = message/request id, b = detail; flags = FaultKind
  BreakerTransition,  // a = target, b = pack_breaker(from, to, cooldown)
  TxnState,           // a = interned branch symbol, b = new TxState
  // Detector milestones.
  DetectorShare,      // a = address, b = new shadow state (first share only)
  DetectorWarning,    // a = address, b = distinct locations so far
  // Lock-order graph milestones (recorded only while the lock-graph tool
  // is attached, so classic streams keep their hashes).
  DeadlockAcquire,    // a = lock being acquired, b = held-lock count
  DeadlockCycle,      // a = first lock of the predicted cycle, b = length
  // Causal spans (recorded only while a SpanTracker is attached).
  SpanBegin,          // a = span id, b = (trace << 32) | parent span;
                      // flags = TxnClass
  SpanEnd,            // a = span id, b = virtual-time duration
  // End of the run: tools flush (Tool::on_finish). Never recorded.
  Finish,
};
constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::Finish) + 1;

const char* to_string(EventKind kind);

/// Kinds whose `a` is an address: the recorder normalises it (Event::norm).
constexpr bool address_kind(EventKind kind) {
  return kind == EventKind::Access || kind == EventKind::Alloc ||
         kind == EventKind::Free || kind == EventKind::Destruct ||
         kind == EventKind::DetectorShare ||
         kind == EventKind::DetectorWarning;
}

/// Event::flags bits for EventKind::Access.
constexpr std::uint8_t kAccessWrite = 0x1;
constexpr std::uint8_t kAccessBusLocked = 0x2;

/// Packs a breaker transition into Event::b (states are 4-bit enums, the
/// cooldown dominates the low bits).
constexpr std::uint64_t pack_breaker(std::uint8_t from, std::uint8_t to,
                                     std::uint64_t cooldown) {
  return (static_cast<std::uint64_t>(from) << 60) |
         (static_cast<std::uint64_t>(to) << 56) |
         (cooldown & 0x00FF'FFFF'FFFF'FFFFull);
}

/// One recorded event. POD, 56 bytes; `norm` is the first-appearance dense
/// id of `a` for address-bearing kinds (kNoNorm otherwise) — the value the
/// hash and the exporter use instead of the raw, ASLR-dependent address.
/// `span` is the active causal span of `tid` at record time (kNoSpan = 0
/// when no SpanTracker is attached or no span is open).
struct Event {
  std::uint64_t seq = 0;
  std::uint64_t vtime = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  support::SiteId site = support::kUnknownSite;
  std::uint32_t norm = 0;
  rt::ThreadId tid = rt::kNoThread;
  std::uint32_t span = 0;
  EventKind kind = EventKind::Finish;
  std::uint8_t flags = 0;
};

constexpr std::uint32_t kNoNorm = 0xFFFF'FFFFu;

/// The replay-stable identity of byte `offset` of the allocation numbered
/// `seq`, as FlightRecorder::record takes it in `ident`: bit 63 set, the
/// seq in bits 32..62, the offset in the low 32 bits. Never 0.
constexpr std::uint64_t alloc_identity(std::uint64_t seq,
                                       std::uint64_t offset) {
  return (1ull << 63) | (seq << 32) | offset;
}

struct RecorderConfig {
  /// Ring capacity in events; rounded up to a power of two. Wraparound
  /// overwrites the oldest events (and counts them as dropped) — a flight
  /// recorder keeps the *last* N events, like its aviation namesake.
  std::size_t capacity = 1u << 16;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(const RecorderConfig& config = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Virtual-time source (the scheduler's tick counter). Unset == native
  /// mode; record_now() stamps 0 then.
  void set_clock(const std::atomic<std::uint64_t>* vtime) { clock_ = vtime; }
  std::uint64_t now() const {
    return clock_ != nullptr ? clock_->load(std::memory_order_relaxed) : 0;
  }

  /// Attaches a SpanTracker (called by its constructor): `active` is the
  /// tracker's per-thread active-span array, consulted inline by record()
  /// so every event is stamped with the causal span of its thread, and the
  /// span id is folded into the stream hash (a detached tracker stamps 0,
  /// which contributes nothing — recorder-only streams keep their hashes).
  /// `spans` itself is only used by the offline exporter.
  void set_spans(const SpanTracker* spans,
                 const std::vector<std::uint32_t>* active) {
    spans_ = spans;
    active_spans_ = active;
  }
  const SpanTracker* spans() const { return spans_; }

  /// Attaches a contention table: record() forwards the PreLock/PostLock/
  /// Unlock stream into it (virtual-time wait/hold accounting). nullptr =
  /// off; never a scheduling point either way.
  void set_contention(ContentionTable* table) { contention_ = table; }
  ContentionTable* contention() const { return contention_; }

  /// Appends one event. Single-producer (the Sim carrier thread, or one
  /// native thread); readers only run once the recording has stopped.
  ///
  /// `ident` (address-bearing kinds only): a caller-supplied stable
  /// identity for `a` — e.g. the runtime's (allocation seq, offset) pair —
  /// used *instead of* the raw address for normalisation. Heap addresses
  /// alone are not replay-stable: the allocator may reuse a freed address
  /// in one run and not in the other, which changes the first-appearance
  /// pattern even though the executions are equivalent. 0 = no identity;
  /// normalise the raw address.
  void record(EventKind kind, std::uint64_t vtime, rt::ThreadId tid,
              std::uint64_t a, std::uint64_t b,
              support::SiteId site = support::kUnknownSite,
              std::uint8_t flags = 0, std::uint64_t ident = 0);
              // (defined inline below the class: it runs on every traced
              // event, so it must inline into the runtime's hot paths)

  /// record() stamped with the clock's current virtual time.
  void record_now(EventKind kind, rt::ThreadId tid, std::uint64_t a,
                  std::uint64_t b,
                  support::SiteId site = support::kUnknownSite,
                  std::uint8_t flags = 0, std::uint64_t ident = 0) {
    record(kind, now(), tid, a, b, site, flags, ident);
  }

  // --- stream accounting ---------------------------------------------------
  /// Sequence number the *next* event will get; a warning's provenance
  /// cursor (events with seq < cursor lead up to it).
  std::uint64_t cursor() const { return next_seq_; }
  /// Total events ever recorded (== cursor()).
  std::uint64_t recorded() const { return cursor(); }
  /// Events lost to ring wraparound (recorded() - surviving).
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  /// Sequence number of the oldest event still in the ring; a provenance
  /// cursor below this points at wrapped-away (dropped) events.
  std::uint64_t ring_floor() const { return dropped(); }
  std::size_t capacity() const { return capacity_; }
  /// Stream hash over every event ever recorded (address-normalised).
  /// Deterministic per seed; equal hashes == equivalent executions.
  std::uint64_t hash() const { return hash_; }

  // --- name side-tables (exporter labels; not part of the hashed stream) ---
  void note_thread_name(rt::ThreadId tid, std::string name);
  void note_lock_name(std::uint64_t lock, std::string name);
  const std::string* thread_name(rt::ThreadId tid) const;
  const std::string* lock_name(std::uint64_t lock) const;

  // --- queries (offline; run after recording stopped) ----------------------
  /// Surviving events, oldest first.
  std::vector<Event> snapshot() const;

  /// The newest `limit` events with seq < `cursor` matching `filter`,
  /// returned in chronological order.
  std::vector<Event> last_events(std::uint64_t cursor,
                                 const std::function<bool(const Event&)>& filter,
                                 std::size_t limit) const;

  /// Warning provenance, chronological: every event on the racing address
  /// with seq < `cursor` (accesses overlapping [addr, addr+size) and
  /// detector milestones — the detector records only state-changing
  /// accesses, so these are few), padded up to `limit` with the newest
  /// lock operations of the threads that made those accesses.
  std::vector<Event> explain(std::uint64_t addr, std::uint32_t size,
                             std::uint64_t cursor, std::size_t limit) const;

  /// One human-readable line for an event (sites resolved through the
  /// global registry, locks/threads through the name side-tables).
  std::string describe(const Event& e) const;

  /// Chrome trace-event JSON of the surviving events ("traceEvents"
  /// instants plus thread-name metadata). Deterministic per seed:
  /// addresses appear as their normalised ids only.
  std::string chrome_trace_json() const;

 private:
  /// First-appearance map: normalisation key -> dense id. Covers the full
  /// stream (it is consulted at record time, before wraparound can lose
  /// events), so the hash never sees a raw pointer. Block bases
  /// (alloc_identity(seq, 0), which every Alloc and Free event carries)
  /// sit in an array indexed by seq, a few KiB that stay in cache; every
  /// other key goes through an open-addressed table. Which of the two a
  /// key uses depends on the key alone, so each key keeps one id.
  struct AddrMap {
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t id = 0;
    };
    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t size = 0;
    std::vector<std::uint32_t> block_ids;  // by seq; 0 = not seen yet
    std::uint32_t next_id = 1;  // 0 is reserved for the null address

    /// Seqs at or above this go through the table (bounds block_ids).
    static constexpr std::uint64_t kDenseSeqs = 1u << 24;

    AddrMap();

    /// Slot hash. The xor-fold matters: allocation-identity keys differ in
    /// bits >= 32 (the seq field), and multiply-then-mask alone would
    /// throw those bits away — every identity with the same offset would
    /// land in one linear-probe chain.
    static std::size_t slot_hash(std::uint64_t key) {
      key *= 0x9E3779B97F4A7C15ull;
      key ^= key >> 32;
      return static_cast<std::size_t>(key);
    }

    std::uint32_t id_of(std::uint64_t addr) {
      if (addr == 0) return 0;
      const std::uint64_t seq = addr >> 32 & 0x7FFF'FFFF;
      if (addr == alloc_identity(seq, 0) && seq < kDenseSeqs) {
        if (seq >= block_ids.size()) {
          const std::size_t grown =
              std::max<std::size_t>(seq + 1, 2 * block_ids.size());
          block_ids.resize(std::min<std::size_t>(grown, kDenseSeqs));
        }
        std::uint32_t& id = block_ids[seq];
        if (id == 0) id = next_id++;
        return id;
      }
      std::size_t i = slot_hash(addr) & mask;
      while (true) {
        Slot& s = slots[i];
        if (s.key == addr) return s.id;
        if (s.key == 0) {
          const std::uint32_t id = next_id++;
          s.key = addr;
          s.id = id;
          // grow() frees the table `s` points into: return the copy.
          if (++size * 10 >= slots.size() * 7) grow();
          return id;
        }
        i = (i + 1) & mask;
      }
    }

    void grow();
  };

  std::size_t capacity_ = 0;  // power of two
  std::size_t mask_ = 0;
  std::vector<Event> ring_;
  // Plain counter, not atomic: record() is single-producer by contract and
  // a lock-prefixed increment is a full fence — it drains the store buffer
  // (busy with shadow-memory writes) on every traced event.
  std::uint64_t next_seq_ = 0;
  std::uint64_t hash_ = 0x9E3779B97F4A7C15ull;
  const std::atomic<std::uint64_t>* clock_ = nullptr;
  // Span/contention attachments (see set_spans/set_contention). The hot
  // path reads only active_spans_ — a pointer to the tracker's per-thread
  // array — so the tracker type stays an incomplete forward declaration.
  const SpanTracker* spans_ = nullptr;
  const std::vector<std::uint32_t>* active_spans_ = nullptr;
  ContentionTable* contention_ = nullptr;
  AddrMap addr_map_;
  std::unordered_map<std::uint32_t, std::string> thread_names_;
  std::unordered_map<std::uint64_t, std::string> lock_names_;
};

inline void FlightRecorder::record(EventKind kind, std::uint64_t vtime,
                                   rt::ThreadId tid, std::uint64_t a,
                                   std::uint64_t b, support::SiteId site,
                                   std::uint8_t flags, std::uint64_t ident) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t norm =
      address_kind(kind) ? addr_map_.id_of(ident != 0 ? ident : a) : kNoNorm;
  const std::uint32_t span =
      active_spans_ != nullptr && tid < active_spans_->size()
          ? (*active_spans_)[tid]
          : 0;
  ring_[seq & mask_] =
      Event{seq, vtime, a, b, site, norm, tid, span, kind, flags};
  // Fetch a later slot for writing now: the ring is megabytes and a slot
  // is written once per run, so without this every event's store misses.
  __builtin_prefetch(&ring_[(seq + 8) & mask_], 1);
  // Stream hash: order-sensitive polynomial accumulate over an address-
  // normalised digest of the event, so it is reproducible across runs
  // despite ASLR/heap-layout differences. The per-field multiplies are
  // independent (they pipeline); only the final accumulate extends the
  // loop-carried dependency chain.
  std::uint64_t d = vtime * 0x9E3779B97F4A7C15ull;
  d ^= ((static_cast<std::uint64_t>(kind) << 40) |
        (static_cast<std::uint64_t>(flags) << 32) | tid) *
       0xBF58476D1CE4E5B9ull;
  d ^= (norm != kNoNorm ? norm : a) * 0x94D049BB133111EBull;
  d ^= b * 0x2545F4914F6CDD1Dull;
  d ^= static_cast<std::uint64_t>(site) * 0xD6E8FEB86659FD93ull;
  // span == 0 whenever no tracker is attached (or no span is open), and
  // 0 * K == 0: recorder-only streams keep their historical hashes while
  // span-attached runs extend the oracle to the causal structure.
  d ^= static_cast<std::uint64_t>(span) * 0xA24BAED4963EE407ull;
  d ^= d >> 32;
  hash_ = hash_ * 0xD1B54A32D192ED03ull + d;
  if (contention_ == nullptr) return;
  if (kind == EventKind::PreLock) {
    contention_->on_pre_lock(a, tid, vtime);
  } else if (kind == EventKind::PostLock) {
    contention_->on_post_lock(a, tid, vtime, site);
  } else if (kind == EventKind::Unlock) {
    contention_->on_unlock(a, tid, vtime);
  }
}

/// Escapes a string for embedding in a JSON literal (quotes, backslashes,
/// control characters).
std::string json_escape(std::string_view text);

}  // namespace rg::obs
