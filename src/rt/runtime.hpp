// The runtime core.
//
// Plays the role of the Valgrind core in the paper's architecture: it owns
// the registry of threads, locks and live allocations, tags every event with
// bookkeeping (held-lock sets, shadow call stacks) and fans events out to
// the attached tools. It performs no detection itself.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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
};

/// A live heap allocation known to the runtime.
struct AllocInfo {
  Addr base = 0;
  std::uint32_t size = 0;
  support::SiteId site = support::kUnknownSite;
  ThreadId thread = kNoThread;
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

/// O(1) address -> live-allocation map for the trace hot path. One slot per
/// 16-byte granule overlapped by a live allocation (malloc's alignment
/// guarantees a granule holds payload of at most one block), linear
/// probing with backward-shift deletion so long runs never accumulate
/// tombstones. Walking the live_allocs_ tree on every traced access would
/// dominate the recorder's cost budget.
class IdentTable {
 public:
  struct Slot {
    std::uint64_t key = 0;  // granule index (addr >> 4); 0 = empty
    Addr base = 0;
    std::uint64_t seq = 0;
    std::uint32_t size = 0;
  };

  IdentTable() : slots_(1u << 10) {}

  const Slot* lookup(Addr addr) const {
    const std::uint64_t key = addr >> kGranuleBits;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == 0) return nullptr;
      i = (i + 1) & mask;
    }
  }

  void insert(Addr base, std::uint32_t size, std::uint64_t seq);
  void erase(Addr base, std::uint32_t size);

 private:
  static constexpr unsigned kGranuleBits = 4;
  static std::size_t hash(std::uint64_t key) {
    key *= 0x9E3779B97F4A7C15ull;
    key ^= key >> 32;  // keep the high granule bits in the slot index
    return static_cast<std::size_t>(key);
  }
  void put(std::uint64_t key, Addr base, std::uint32_t size,
           std::uint64_t seq);
  void drop(std::uint64_t key);
  void grow();

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
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
  /// Mirrors every runtime event into the flight recorder (nullptr = off;
  /// one branch per event). Attach before the run starts so the stream is
  /// complete.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }
  obs::FlightRecorder* recorder() const { return recorder_; }

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
  /// strongest mode it is held in.
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

  /// Locates the live (or most recent) allocation containing `addr`.
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
  /// Cache counters summed over every attached tool.
  ToolStats tool_stats() const;

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
  /// when a profiler is attached. `call` receives the tool pointer.
  template <typename F>
  void dispatch(obs::Hook hook, F&& call) {
    if (profiler_ == nullptr) {
      for (Tool* t : tools_) call(t);
      return;
    }
    for (std::size_t i = 0; i < tools_.size(); ++i) {
      const std::uint64_t t0 = obs::cycle_now();
      call(tools_[i]);
      profiler_->add(i, hook, obs::cycle_now() - t0);
    }
  }

  /// Mirrors one event into the flight recorder (no-op when detached).
  void trace(obs::EventKind kind, ThreadId tid, std::uint64_t a,
             std::uint64_t b, support::SiteId site = support::kUnknownSite,
             std::uint8_t flags = 0) {
    if (recorder_ != nullptr) recorder_->record_now(kind, tid, a, b, site, flags);
  }

 public:
  /// Replay-stable identity of `addr` for trace normalisation: inside a
  /// live tracked allocation it is (allocation seq, offset) — immune to
  /// the allocator reusing a freed address differently across runs — and 0
  /// (= "normalise the raw address") everywhere else. Runs on every traced
  /// access: a single-entry cache of the last allocation hit in front of
  /// the O(1) granule table (untracked stack/global addresses probe
  /// straight to an empty slot).
  std::uint64_t trace_identity(Addr addr) const {
    if (addr - ident_base_ < ident_size_)
      return (1ull << 63) | (ident_seq_ << 32) | (addr - ident_base_);
    const IdentTable::Slot* s = ident_table_.lookup(addr);
    if (s == nullptr || addr - s->base >= s->size) return 0;
    ident_base_ = s->base;
    ident_size_ = s->size;
    ident_seq_ = s->seq;
    return (1ull << 63) | (s->seq << 32) | (addr - s->base);
  }

  /// trace() for address-bearing events: attaches trace_identity(addr) so
  /// the recorder's normalisation keys on allocation identity. Used by the
  /// runtime's own memory events and by tools recording detector
  /// milestones (DetectorShare / DetectorWarning).
  void trace_addr(obs::EventKind kind, ThreadId tid, Addr addr,
                  std::uint64_t b, support::SiteId site = support::kUnknownSite,
                  std::uint8_t flags = 0) {
    if (recorder_ == nullptr) return;
    recorder_->record_now(kind, tid, addr, b, site, flags,
                          trace_identity(addr));
  }

 private:

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
  std::vector<ThreadInfo> threads_;
  std::vector<LockInfo> locks_;
  std::vector<support::Symbol> syncs_;
  // Live allocations keyed by base address; dead_ keeps the most recent
  // freed allocation per base so reports on stale pointers still resolve.
  std::map<Addr, AllocInfo> live_allocs_;
  std::map<Addr, AllocInfo> dead_allocs_;
  // trace_identity: granule table mirroring live_allocs_, plus a
  // single-entry cache of the last allocation hit (invalidated when that
  // allocation is freed).
  IdentTable ident_table_;
  mutable Addr ident_base_ = 0;
  mutable std::uint64_t ident_size_ = 0;
  mutable std::uint64_t ident_seq_ = 0;
  std::uint64_t alloc_seq_ = 0;
  std::uint64_t access_events_ = 0;
  std::uint64_t sync_events_ = 0;
};

}  // namespace rg::rt
