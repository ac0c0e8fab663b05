#include "core/djit.hpp"

#include "rt/runtime.hpp"
#include "support/assert.hpp"

namespace rg::core {

DjitTool::DjitTool(const DjitConfig& config)
    : config_(config), reports_("DJIT") {}

shadow::VectorClock& DjitTool::clock_of(rt::ThreadId tid) {
  if (tid >= thread_clocks_.size()) thread_clocks_.resize(tid + 1);
  return thread_clocks_[tid];
}

void DjitTool::on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                               support::SiteId /*site*/) {
  shadow::VectorClock& child = clock_of(tid);
  if (parent != rt::kNoThread) {
    child.merge(clock_of(parent));
    // The creator moves to a new time frame so its post-create accesses are
    // not ordered before the child's.
    clock_of(parent).tick(parent);
  }
  child.tick(tid);
}

void DjitTool::on_thread_join(rt::ThreadId joiner, rt::ThreadId joined,
                              support::SiteId /*site*/) {
  clock_of(joiner).merge(clock_of(joined));
  clock_of(joiner).tick(joiner);
}

void DjitTool::on_post_lock(rt::ThreadId tid, rt::LockId lock,
                            rt::LockMode /*mode*/, support::SiteId /*site*/) {
  if (!config_.lock_hb) return;
  if (auto it = lock_clocks_.find(lock); it != lock_clocks_.end())
    clock_of(tid).merge(it->second);
}

void DjitTool::on_unlock(rt::ThreadId tid, rt::LockId lock,
                         support::SiteId /*site*/) {
  if (!config_.lock_hb) return;
  shadow::VectorClock& mine = clock_of(tid);
  lock_clocks_[lock] = mine;
  mine.tick(tid);  // new time frame after release (DJIT frame boundary)
}

void DjitTool::on_cond_signal(rt::ThreadId tid, rt::SyncId cond,
                              support::SiteId /*site*/) {
  if (!config_.condvar_hb) return;
  cond_clocks_[cond] = clock_of(tid);
  clock_of(tid).tick(tid);
}

void DjitTool::on_cond_wait_return(rt::ThreadId tid, rt::SyncId cond,
                                   rt::LockId /*lock*/,
                                   support::SiteId /*site*/) {
  if (!config_.condvar_hb) return;
  if (auto it = cond_clocks_.find(cond); it != cond_clocks_.end())
    clock_of(tid).merge(it->second);
}

void DjitTool::on_queue_put(rt::ThreadId tid, rt::SyncId /*queue*/,
                            std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.message_hb || token == 0) return;
  queue_token_clocks_[token] = clock_of(tid);
  clock_of(tid).tick(tid);
}

void DjitTool::on_queue_get(rt::ThreadId tid, rt::SyncId /*queue*/,
                            std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.message_hb || token == 0) return;
  if (auto it = queue_token_clocks_.find(token);
      it != queue_token_clocks_.end()) {
    clock_of(tid).merge(it->second);
    queue_token_clocks_.erase(it);
  }
}

void DjitTool::on_sem_post(rt::ThreadId tid, rt::SyncId /*sem*/,
                           std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.message_hb || token == 0) return;
  sem_token_clocks_[token] = clock_of(tid);
  clock_of(tid).tick(tid);
}

void DjitTool::on_sem_wait_return(rt::ThreadId tid, rt::SyncId /*sem*/,
                                  std::uint64_t token,
                                  support::SiteId /*site*/) {
  if (!config_.message_hb || token == 0) return;
  if (auto it = sem_token_clocks_.find(token); it != sem_token_clocks_.end()) {
    clock_of(tid).merge(it->second);
    sem_token_clocks_.erase(it);
  }
}

void DjitTool::on_access(const rt::MemoryAccess& a) {
  shadow::VectorClock& mine = clock_of(a.thread);
  const bool is_write = a.kind == rt::AccessKind::Write;

  shadow_.for_range(a.addr, a.size, [&](Cell& cell) {
    if (cell.reported) return;
    // Check against the last write.
    if (cell.write_tid != rt::kNoThread && cell.write_tid != a.thread &&
        cell.write_tick > mine.get(cell.write_tid)) {
      report_race(cell, a, "earlier write", cell.write_site);
      return;
    }
    if (is_write) {
      // A write must also be ordered after every earlier read.
      for (rt::ThreadId t = 0; t < cell.reads.width(); ++t) {
        if (t == a.thread) continue;
        const auto read_tick = cell.reads.get(t);
        if (read_tick != 0 && read_tick > mine.get(t)) {
          report_race(cell, a, "earlier read", support::kUnknownSite);
          return;
        }
      }
      cell.write_tid = a.thread;
      cell.write_tick = mine.get(a.thread);
      cell.write_site = a.site;
    } else {
      cell.reads.set(a.thread, mine.get(a.thread));
    }
  });
}

void DjitTool::report_race(Cell& cell, const rt::MemoryAccess& a,
                           const char* vs, support::SiteId other_site) {
  Report r = make_report(*rt_, Report::Kind::DataRace, a);
  r.prev_state = std::string("unordered with ") + vs;
  if (other_site != support::kUnknownSite)
    r.extra = "conflicting access at " +
              support::global_sites().describe(other_site);
  reports_.add(std::move(r));
  // DJIT reports only the first apparent race per location.
  cell.reported = true;
}

void DjitTool::on_alloc(rt::ThreadId /*tid*/, rt::Addr addr,
                        std::uint32_t size, support::SiteId /*site*/) {
  shadow_.reset_range(addr, size);
}

void DjitTool::on_free(rt::ThreadId /*tid*/, rt::Addr addr, std::uint32_t size,
                       support::SiteId /*site*/) {
  shadow_.reset_range(addr, size);
}

rt::ToolStats DjitTool::stats() const {
  rt::ToolStats s;
  s.shadow_pages = shadow_.page_count();
  return s;
}

}  // namespace rg::core
