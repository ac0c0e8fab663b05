// DjitTool — vector-clock happens-before race detection (paper §2.2).
//
// DJIT (Itzkovitz/Schuster/Zeev-Ben-Mordehai) timestamps accesses with the
// accessing thread's vector time frame and reports two accesses to the same
// location as a race when neither happens before the other. Unlike the
// lockset approach it only reports *apparent* races — races that manifest
// in the observed ordering — so it misses order-dependent races the lockset
// algorithm catches, and (faithfully to the original) it reports only the
// first apparent race per location.
#pragma once

#include <unordered_map>

#include "core/report.hpp"
#include "rt/tool.hpp"
#include "shadow/shadow_map.hpp"
#include "shadow/vector_clock.hpp"

namespace rg::core {

struct DjitConfig {
  /// Derive happens-before edges from lock release->acquire (standard).
  bool lock_hb = true;
  /// Derive happens-before edges from queue/semaphore hand-offs.
  bool message_hb = true;
  /// Derive happens-before from condvar signal->wait-return. The paper
  /// (§2.2, on [12]) notes this relation "is not strong enough to impose
  /// the assumed order" — enabling it reproduces that unsoundness, so it
  /// defaults to off.
  bool condvar_hb = false;
};

class DjitTool : public rt::Tool {
 public:
  const char* name() const override { return "djit"; }
  explicit DjitTool(const DjitConfig& config = {});

  ReportManager& reports() { return reports_; }
  const ReportManager& reports() const { return reports_; }

  void on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                       support::SiteId site) override;
  void on_thread_join(rt::ThreadId joiner, rt::ThreadId joined,
                      support::SiteId site) override;
  void on_post_lock(rt::ThreadId tid, rt::LockId lock, rt::LockMode mode,
                    support::SiteId site) override;
  void on_unlock(rt::ThreadId tid, rt::LockId lock,
                 support::SiteId site) override;
  void on_cond_signal(rt::ThreadId tid, rt::SyncId cond,
                      support::SiteId site) override;
  void on_cond_wait_return(rt::ThreadId tid, rt::SyncId cond, rt::LockId lock,
                           support::SiteId site) override;
  void on_queue_put(rt::ThreadId tid, rt::SyncId queue, std::uint64_t token,
                    support::SiteId site) override;
  void on_queue_get(rt::ThreadId tid, rt::SyncId queue, std::uint64_t token,
                    support::SiteId site) override;
  void on_sem_post(rt::ThreadId tid, rt::SyncId sem, std::uint64_t token,
                   support::SiteId site) override;
  void on_sem_wait_return(rt::ThreadId tid, rt::SyncId sem,
                          std::uint64_t token, support::SiteId site) override;
  void on_access(const rt::MemoryAccess& access) override;
  void on_alloc(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
                support::SiteId site) override;
  void on_free(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
               support::SiteId site) override;
  rt::ToolStats stats() const override;

 private:
  struct Cell {
    /// Last write: writer thread + its clock component at write time.
    rt::ThreadId write_tid = rt::kNoThread;
    shadow::VectorClock::Tick write_tick = 0;
    support::SiteId write_site = support::kUnknownSite;
    /// Per-thread maximum read tick (the DJIT read time frame vector).
    shadow::VectorClock reads;
    bool reported = false;
  };

  shadow::VectorClock& clock_of(rt::ThreadId tid);
  void report_race(Cell& cell, const rt::MemoryAccess& a, const char* vs,
                   support::SiteId other_site);

  DjitConfig config_;
  ReportManager reports_;
  std::vector<shadow::VectorClock> thread_clocks_;
  std::unordered_map<rt::LockId, shadow::VectorClock> lock_clocks_;
  std::unordered_map<rt::SyncId, shadow::VectorClock> cond_clocks_;
  std::unordered_map<std::uint64_t, shadow::VectorClock> queue_token_clocks_;
  std::unordered_map<std::uint64_t, shadow::VectorClock> sem_token_clocks_;
  shadow::ShadowMap<Cell> shadow_;
};

}  // namespace rg::core
