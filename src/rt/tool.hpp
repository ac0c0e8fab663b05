// The tool ("skin") interface.
//
// Mirrors Valgrind's core/tool split described in the paper (§2.3.1): the
// runtime core turns the program under test into a stream of callbacks and
// any number of registered tools consume it. Detection algorithms (Eraser,
// Helgrind, DJIT, deadlock checking) are tools; so are tracing or counting
// aids used in tests.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "rt/ids.hpp"
#include "support/site.hpp"

namespace rg::rt {

class Runtime;

/// Shadow-map counters a tool may expose (all zero when a tool has no
/// shadow map). Aggregated across tools by Runtime::tool_stats(). The
/// map's last-page TLB feeds the hit/miss pair and its page count feeds
/// the `shadow_pages` gauge.
///
/// Every counter must appear in the `fields` table below: aggregation and
/// metrics export are driven by the table, so a counter missing from it
/// would silently vanish from both. The static_assert under the struct
/// ties the table's length to the struct's size — adding a member without
/// extending the table no longer compiles.
struct ToolStats {
  /// Always 0. The per-thread lockset cache these counted was removed
  /// (locksets are built from Runtime::held_locks on every access); the
  /// members stay because perfbench/session.cpp reads them, and the
  /// benchmark changes only on its own.
  std::uint64_t lockset_cache_hits = 0;
  std::uint64_t lockset_cache_misses = 0;
  /// Shadow-map last-page TLB, access path only (`at`/`find`): alloc and
  /// free resets look pages up without counting.
  std::uint64_t shadow_tlb_hits = 0;
  std::uint64_t shadow_tlb_misses = 0;
  /// Shadow pages the tool's map has created, each covering 256 bytes of
  /// client address space (gauge; summed across tools).
  std::uint64_t shadow_pages = 0;

  struct Field {
    const char* name;
    std::uint64_t ToolStats::*member;
  };
  static constexpr std::array<Field, 5> fields = {{
      {"lockset_cache_hits", &ToolStats::lockset_cache_hits},
      {"lockset_cache_misses", &ToolStats::lockset_cache_misses},
      {"shadow_tlb_hits", &ToolStats::shadow_tlb_hits},
      {"shadow_tlb_misses", &ToolStats::shadow_tlb_misses},
      {"shadow_pages", &ToolStats::shadow_pages},
  }};

  ToolStats& operator+=(const ToolStats& o) {
    for (const Field& f : fields) this->*f.member += o.*f.member;
    return *this;
  }

  /// Publishes every field as `<prefix><field>` counters.
  void export_to(obs::MetricsRegistry& registry,
                 std::string_view prefix = "tool.") const {
    for (const Field& f : fields)
      registry.counter(std::string(prefix) + f.name).set(this->*f.member);
  }
};
// A new counter must be added to ToolStats::fields or aggregation drops it.
static_assert(sizeof(ToolStats) ==
                  ToolStats::fields.size() * sizeof(std::uint64_t),
              "ToolStats member missing from ToolStats::fields");

/// Base class for event consumers. All hooks default to no-ops so a tool
/// only overrides what it needs. Hooks are invoked serially (the scheduler
/// runs exactly one simulated thread at a time), so tools need no internal
/// locking.
class Tool {
 public:
  virtual ~Tool() = default;

  /// Called once when the tool is attached to a runtime.
  virtual void on_attach(Runtime& rt) { rt_ = &rt; }

  // --- thread lifecycle -------------------------------------------------
  /// `parent` is kNoThread for the initial thread.
  virtual void on_thread_start(ThreadId /*tid*/, ThreadId /*parent*/,
                               support::SiteId /*site*/) {}
  /// Raised after `joiner` has successfully joined `joined`.
  virtual void on_thread_join(ThreadId /*joiner*/, ThreadId /*joined*/,
                              support::SiteId /*site*/) {}

  // --- locks --------------------------------------------------------------
  virtual void on_lock_create(LockId /*lock*/, support::Symbol /*name*/,
                              bool /*is_rw*/) {}
  /// Raised before the acquiring thread may block on the lock.
  virtual void on_pre_lock(ThreadId /*tid*/, LockId /*lock*/, LockMode /*mode*/,
                           support::SiteId /*site*/) {}
  /// Raised once the lock has been acquired.
  virtual void on_post_lock(ThreadId /*tid*/, LockId /*lock*/,
                            LockMode /*mode*/, support::SiteId /*site*/) {}
  virtual void on_unlock(ThreadId /*tid*/, LockId /*lock*/,
                         support::SiteId /*site*/) {}

  // --- condition variables / semaphores / message queues ----------------
  virtual void on_cond_signal(ThreadId /*tid*/, SyncId /*cond*/,
                              support::SiteId /*site*/) {}
  virtual void on_cond_wait_return(ThreadId /*tid*/, SyncId /*cond*/,
                                   LockId /*lock*/, support::SiteId /*site*/) {}
  /// `token` pairs a post with the wait it releases (FIFO order).
  virtual void on_sem_post(ThreadId /*tid*/, SyncId /*sem*/,
                           std::uint64_t /*token*/, support::SiteId /*site*/) {}
  virtual void on_sem_wait_return(ThreadId /*tid*/, SyncId /*sem*/,
                                  std::uint64_t /*token*/,
                                  support::SiteId /*site*/) {}
  /// `token` pairs a queue put with the get that receives the same element.
  virtual void on_queue_put(ThreadId /*tid*/, SyncId /*queue*/,
                            std::uint64_t /*token*/, support::SiteId /*site*/) {}
  virtual void on_queue_get(ThreadId /*tid*/, SyncId /*queue*/,
                            std::uint64_t /*token*/, support::SiteId /*site*/) {}

  // --- memory -------------------------------------------------------------
  virtual void on_access(const MemoryAccess& /*access*/) {}
  virtual void on_alloc(ThreadId /*tid*/, Addr /*addr*/, std::uint32_t /*size*/,
                        support::SiteId /*site*/) {}
  virtual void on_free(ThreadId /*tid*/, Addr /*addr*/, std::uint32_t /*size*/,
                       support::SiteId /*site*/) {}
  /// The client request emitted by the destructor annotation (the paper's
  /// VALGRIND_HG_DESTRUCT): `addr..addr+size` is about to be destroyed by
  /// `tid` and should be treated as exclusively owned by it.
  virtual void on_destruct_annotation(ThreadId /*tid*/, Addr /*addr*/,
                                      std::uint32_t /*size*/,
                                      support::SiteId /*site*/) {}

  /// End of the observed execution; tools flush summary state here.
  virtual void on_finish() {}

  /// Cache observability (shadow TLB); defaults to zeros.
  virtual ToolStats stats() const { return {}; }

  /// Short stable identifier used by the hook profiler and metrics export.
  virtual const char* name() const { return "tool"; }

 protected:
  Runtime* rt_ = nullptr;
};

}  // namespace rg::rt
