// The runtime core.
//
// Plays the role of the Valgrind core in the paper's architecture: it owns
// the registry of threads, locks and allocations (freed blocks stay as
// tombstones, so reports on stale pointers still name their block), tags
// every event with bookkeeping (held-lock sets, shadow call stacks) and fans
// events out to the attached tools. It performs no detection itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "rt/ids.hpp"
#include "rt/tool.hpp"
#include "support/assert.hpp"
#include "support/intern.hpp"
#include "support/small_vector.hpp"

namespace rg::rt {

/// One entry of a thread's held-lock multiset.
struct HeldLock {
  LockId lock = kNoLock;
  LockMode mode = LockMode::Exclusive;
  /// Recursion depth (rw-locks may be read-held multiple times in POSIX).
  std::uint32_t count = 1;
  /// Where the outermost acquisition of this hold took the lock; a
  /// recursive re-acquisition keeps it.
  support::SiteId site = support::kUnknownSite;
  /// Identity of this hold span (Sulzmann & Thiemann's critical section):
  /// a Runtime-wide id assigned when the count goes 0 -> 1, never 0. A
  /// re-acquisition after a full release opens a new span.
  std::uint64_t span = 0;
};

/// A heap allocation known to the runtime.
struct AllocInfo {
  Addr base = 0;
  std::uint32_t size = 0;
  support::SiteId site = support::kUnknownSite;
  ThreadId thread = kNoThread;
  /// False once the block is freed: it then stays in the registry as the
  /// tombstone of its granules until a later allocation covers them.
  bool live = true;
  /// Monotonic allocation sequence number; distinguishes reuses of the same
  /// address range.
  std::uint64_t seq = 0;
};

/// Human-readable description of an address, mirroring Helgrind's
/// "Address A is N bytes inside a block of size S alloc'd by thread T".
struct AddrOrigin {
  bool known = false;
  std::uint64_t offset = 0;
  AllocInfo alloc;
  std::string describe() const;
};

/// The runtime's allocation registry: an O(1) map from each 16-byte granule
/// ever covered by an allocation to the most recent block that covered it.
/// malloc's alignment guarantees a granule holds payload of at most one live
/// block, so a live block owns all of its granules. Freeing a block only
/// clears its live bit: the block stays as its granules' tombstone until a
/// later allocation overwrites them, and no slot is ever deleted (linear
/// probing, no backward-shift deletion). The table is therefore bounded by
/// the distinct granules the run ever allocated, which plateaus as the heap
/// reuses addresses. Granule 0 (addresses below 16, never allocated) is
/// the empty key. The initial 4096 slots hold 2867 granules at the 0.7
/// load limit: over a Fig. 6 sweep a Runtime peaks at a median of about
/// 1.2k granules and at most about 2.5k, so the table does not grow there.
class AllocTable {
 public:
  AllocTable() : slots_(1u << 12) {}

  /// The most recent block (live or freed) whose range covered `addr`'s
  /// granule, or nullptr if no allocation ever did.
  const AllocInfo* lookup(Addr addr) const {
    const Slot& s = slots_[probe(addr >> kGranuleBits)];
    return s.key == 0 ? nullptr : &s.block;
  }

  /// Records `block` in every granule of [base, base + max(size, 1)): a
  /// zero-size block still owns its base granule.
  void insert(const AllocInfo& block);
  /// Marks `block` freed in every granule it still owns.
  void kill(const AllocInfo& block);
  /// Occupied slots: the distinct granules ever allocated.
  std::size_t size() const { return count_; }

 private:
  struct Slot {
    std::uint64_t key = 0;  // granule index (addr >> 4); 0 = empty
    AllocInfo block;
  };

  static constexpr unsigned kGranuleBits = 4;
  static std::size_t hash(std::uint64_t key) {
    key *= 0x9E3779B97F4A7C15ull;
    key ^= key >> 32;  // keep the high granule bits in the slot index
    return static_cast<std::size_t>(key);
  }
  /// Granules [first, last] of `block`'s range [base, base + max(size, 1)).
  static std::uint64_t first_granule(const AllocInfo& block) {
    return block.base >> kGranuleBits;
  }
  static std::uint64_t last_granule(const AllocInfo& block) {
    return (block.base + (block.size == 0 ? 1 : block.size) - 1) >>
           kGranuleBits;
  }
  /// Index of `key`'s slot, or of the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask;
    return i;
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// The recorded fields of one event (see FlightRecorder::record). `ident`
/// is the allocation identity of an address-bearing event's `a` when the
/// caller already holds its block; 0 = Runtime::record looks it up.
struct EventFields {
  ThreadId tid = kNoThread;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  support::SiteId site = support::kUnknownSite;
  std::uint8_t flags = 0;
  std::uint64_t ident = 0;
};

/// Event::flags encoding of an access for the flight recorder.
inline std::uint8_t access_flags(const MemoryAccess& a) {
  std::uint8_t flags = 0;
  if (a.kind == AccessKind::Write) flags |= obs::kAccessWrite;
  if (a.bus_locked) flags |= obs::kAccessBusLocked;
  return flags;
}

class Runtime {
 public:
  Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- tool management ---------------------------------------------------
  /// Attaches a tool; the caller keeps ownership and must outlive the run.
  void attach(Tool& tool);
  std::size_t tool_count() const { return tools_.size(); }

  // --- observability -------------------------------------------------------
  /// Records every runtime event into the flight recorder (nullptr = off;
  /// one branch per event). Attach before the run starts so the stream is
  /// complete.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }
  obs::FlightRecorder* recorder() const { return recorder_; }

  /// Records one event (a no-op with no recorder attached): the runtime's
  /// one recording entry, also used by tools for their milestones. An
  /// address-bearing kind (obs::address_kind) is normalised on
  /// `fields.ident`, or else on trace_identity(a). ThreadStart and
  /// LockCreate also give the recorder the new thread's or lock's name.
  void record(obs::EventKind kind, const EventFields& fields) {
    if (recorder_ == nullptr) return;
    if (kind == obs::EventKind::ThreadStart)
      recorder_->note_thread_name(fields.tid, thread(fields.tid).name);
    else if (kind == obs::EventKind::LockCreate)
      recorder_->note_lock_name(fields.a, std::string(lock_name(
                                              static_cast<LockId>(fields.a))));
    std::uint64_t ident = fields.ident;
    if (ident == 0 && obs::address_kind(kind)) ident = trace_identity(fields.a);
    recorder_->record_now(kind, fields.tid, fields.a, fields.b, fields.site,
                          fields.flags, ident);
  }

  /// Wraps each tool-hook dispatch in a cycle stamp (nullptr = off). Tools
  /// already attached are registered immediately; later attaches register
  /// themselves, so set-then-attach and attach-then-set both work.
  void set_profiler(obs::HookProfiler* profiler);
  obs::HookProfiler* profiler() const { return profiler_; }

  // --- thread registry ---------------------------------------------------
  /// Registers a new thread and returns its dense id. Raises
  /// on_thread_start on all tools.
  ThreadId register_thread(std::string_view name, ThreadId parent,
                           support::SiteId site);
  void thread_exited(ThreadId tid);
  void thread_joined(ThreadId joiner, ThreadId joined, support::SiteId site);

  std::size_t thread_count() const { return threads_.size(); }
  std::string_view thread_name(ThreadId tid) const;
  bool thread_alive(ThreadId tid) const;

  // --- locks ---------------------------------------------------------------
  LockId register_lock(std::string_view name, bool is_rw);
  void lock_destroyed(LockId lock);
  void pre_lock(ThreadId tid, LockId lock, LockMode mode, support::SiteId site);
  void post_lock(ThreadId tid, LockId lock, LockMode mode,
                 support::SiteId site);
  void unlock(ThreadId tid, LockId lock, support::SiteId site);

  /// The Eraser locks_held(t): every lock currently held by `tid`, with the
  /// strongest mode it is held in and its hold span. Entries are in
  /// acquisition order, except that a release swaps the last entry into
  /// the freed slot.
  const support::small_vector<HeldLock, 4>& held_locks(ThreadId tid) const;
  std::string_view lock_name(LockId lock) const;
  std::size_t lock_count() const { return locks_.size(); }
  bool lock_is_rw(LockId lock) const {
    RG_ASSERT_MSG(lock < locks_.size(), "lock used before register_lock");
    return locks_[lock].is_rw;
  }

  // --- other sync objects --------------------------------------------------
  SyncId register_sync(std::string_view name);
  std::string_view sync_name(SyncId id) const;
  void cond_signal(ThreadId tid, SyncId cond, support::SiteId site);
  void cond_wait_return(ThreadId tid, SyncId cond, LockId lock,
                        support::SiteId site);
  void sem_post(ThreadId tid, SyncId sem, std::uint64_t token,
                support::SiteId site);
  void sem_wait_return(ThreadId tid, SyncId sem, std::uint64_t token,
                       support::SiteId site);
  void queue_put(ThreadId tid, SyncId queue, std::uint64_t token,
                 support::SiteId site);
  void queue_get(ThreadId tid, SyncId queue, std::uint64_t token,
                 support::SiteId site);

  // --- memory ----------------------------------------------------------------
  void access(const MemoryAccess& a);
  void alloc(ThreadId tid, Addr addr, std::uint32_t size, support::SiteId site);
  void free(ThreadId tid, Addr addr, support::SiteId site);
  void destruct_annotation(ThreadId tid, Addr addr, std::uint32_t size,
                           support::SiteId site);

  /// The most recent allocation to cover `addr`'s granule, live or freed;
  /// known iff `addr` lies inside that block.
  AddrOrigin origin_of(Addr addr) const;

  // --- shadow call stacks --------------------------------------------------
  void push_frame(ThreadId tid, support::SiteId site);
  void pop_frame(ThreadId tid);
  /// Innermost-first call stack of `tid` (most recent frame at index 0).
  std::vector<support::SiteId> stack_of(ThreadId tid) const;

  // --- run lifecycle ---------------------------------------------------------
  /// Signals end-of-execution to all tools.
  void finish();

  // --- statistics --------------------------------------------------------------
  std::uint64_t access_events() const { return access_events_; }
  std::uint64_t sync_events() const { return sync_events_; }
  /// Per-tool counters and gauges (ToolStats), summed over every attached
  /// tool.
  ToolStats tool_stats() const;
  /// Size of the allocation registry: distinct 16-byte granules ever
  /// allocated (live blocks plus tombstones).
  std::size_t alloc_granules() const { return allocs_.size(); }

 private:
  struct ThreadInfo {
    std::string name;
    ThreadId parent = kNoThread;
    bool alive = true;
    support::small_vector<HeldLock, 4> held;
    support::small_vector<support::SiteId, 16> stack;
  };

  struct LockInfo {
    support::Symbol name = 0;
    bool is_rw = false;
    bool alive = true;
  };

  /// Fans one event out to every tool, stamping each handler with cycles
  /// into its profiler row when a profiler is attached. `call` receives
  /// the tool pointer.
  template <typename F>
  void dispatch(obs::EventKind kind, F&& call) {
    if (profiler_ == nullptr) {
      for (Tool* t : tools_) call(t);
      return;
    }
    for (std::size_t i = 0; i < tools_.size(); ++i) {
      const std::uint64_t t0 = obs::cycle_now();
      call(tools_[i]);
      profiler_->add(profiler_rows_[i], kind, obs::cycle_now() - t0);
    }
  }

  /// The one path for an event that is both recorded and dispatched:
  /// record(), then dispatch().
  template <typename F>
  void emit(obs::EventKind kind, const EventFields& fields, F&& call) {
    record(kind, fields);
    dispatch(kind, std::forward<F>(call));
  }

 public:
  /// Replay-stable identity of `addr` for trace normalisation: inside a
  /// live tracked allocation it is (allocation seq, offset) — immune to
  /// the allocator reusing a freed address differently across runs — and 0
  /// (= "normalise the raw address") everywhere else, tombstones included.
  /// Runs on every traced access: a single-entry cache of the last live
  /// allocation hit in front of the O(1) granule probe (untracked
  /// stack/global addresses probe straight to an empty slot).
  std::uint64_t trace_identity(Addr addr) const {
    if (addr - ident_base_ < ident_size_)
      return obs::alloc_identity(ident_seq_, addr - ident_base_);
    const AllocInfo* b = allocs_.lookup(addr);
    if (b == nullptr || !b->live || addr - b->base >= b->size) return 0;
    ident_base_ = b->base;
    ident_size_ = b->size;
    ident_seq_ = b->seq;
    return obs::alloc_identity(b->seq, addr - b->base);
  }

 private:
  /// trace_identity() of a live block's base, from the block itself (its
  /// tombstone keeps it): alloc and free hold the block and skip the lookup.
  static std::uint64_t base_identity(const AllocInfo& block) {
    return block.size != 0 ? obs::alloc_identity(block.seq, 0) : 0;
  }

  ThreadInfo& thread(ThreadId tid) {
    RG_ASSERT_MSG(tid < threads_.size(), "unknown thread id");
    return threads_[tid];
  }
  const ThreadInfo& thread(ThreadId tid) const {
    RG_ASSERT_MSG(tid < threads_.size(), "unknown thread id");
    return threads_[tid];
  }

  std::vector<Tool*> tools_;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::HookProfiler* profiler_ = nullptr;
  // Each tool's profiler row (by attach position), as register_tool gave.
  std::vector<std::size_t> profiler_rows_;
  std::vector<ThreadInfo> threads_;
  std::vector<LockInfo> locks_;
  std::vector<support::Symbol> syncs_;
  // Every allocation, live or freed, by granule: serves free's unknown-
  // allocation check, origin_of and trace_identity.
  AllocTable allocs_;
  // trace_identity's single-entry cache of the last live allocation hit
  // (invalidated when that allocation is freed).
  mutable Addr ident_base_ = 0;
  mutable std::uint64_t ident_size_ = 0;
  mutable std::uint64_t ident_seq_ = 0;
  std::uint64_t alloc_seq_ = 0;
  std::uint64_t hold_seq_ = 0;  // last HeldLock::span handed out
  std::uint64_t access_events_ = 0;
  std::uint64_t sync_events_ = 0;
};

}  // namespace rg::rt
