#include "core/eraser.hpp"

#include "rt/runtime.hpp"

namespace rg::core {

EraserBasicTool::EraserBasicTool(const EraserBasicConfig& config)
    : config_(config), reports_("Eraser") {}

shadow::LocksetId EraserBasicTool::held_lockset(rt::ThreadId tid,
                                                bool is_write) {
  shadow::LockVec held;
  for (const rt::HeldLock& h : rt_->held_locks(tid)) {
    if (config_.rw_rule && is_write && h.mode == rt::LockMode::Shared)
      continue;  // write rule: only write-mode locks protect a write
    held.push_back(h.lock);
  }
  return locksets_.intern(std::move(held));
}

void EraserBasicTool::on_access(const rt::MemoryAccess& a) {
  const bool is_write = a.kind == rt::AccessKind::Write;
  const shadow::LocksetId held_id = held_lockset(a.thread, is_write);

  shadow_.for_range(a.addr, a.size, [&](Cell& cell) {
    if (cell.reported) return;
    cell.lockset = locksets_.intersect(cell.lockset, held_id);
    if (!locksets_.empty(cell.lockset)) return;
    if (!is_write && !config_.warn_on_reads) return;
    Report r = make_report(*rt_, Report::Kind::DataRace, a);
    r.prev_state = "lockset emptied (no state machine)";
    r.lockset_desc = "{}";
    reports_.add(std::move(r));
    cell.reported = true;
  });
}

void EraserBasicTool::on_alloc(rt::ThreadId /*tid*/, rt::Addr addr,
                               std::uint32_t size, support::SiteId /*site*/) {
  shadow_.reset_range(addr, size);
}

void EraserBasicTool::on_free(rt::ThreadId /*tid*/, rt::Addr addr,
                              std::uint32_t size, support::SiteId /*site*/) {
  shadow_.reset_range(addr, size);
}

rt::ToolStats EraserBasicTool::stats() const {
  rt::ToolStats s;
  s.shadow_tlb_hits = shadow_.tlb_stats().hits;
  s.shadow_tlb_misses = shadow_.tlb_stats().misses;
  s.shadow_pages = shadow_.page_count();
  return s;
}

}  // namespace rg::core
