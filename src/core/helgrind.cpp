#include "core/helgrind.hpp"

#include "obs/recorder.hpp"
#include "rt/runtime.hpp"

namespace rg::core {

HelgrindTool::HelgrindTool(const HelgrindConfig& config)
    : config_(config), reports_("Helgrind") {
  reports_.set_report_cap(config.report_cap);
}

void HelgrindTool::on_attach(rt::Runtime& rt) {
  Tool::on_attach(rt);
  // The hardware bus lock is a pseudo-lock owned by this tool; it never
  // appears in the runtime's held-lock sets and is injected into effective
  // locksets according to the configured model (never under Basic).
  bus_lock_ = rt.register_lock(
      "<hardware-bus-lock>", config_.bus_lock_model == BusLockModel::RwLock);
}

const char* HelgrindTool::state_name(MemState s) {
  switch (s) {
    case MemState::New:
      return "new";
    case MemState::Exclusive:
      return "exclusive";
    case MemState::SharedRead:
      return "shared RO";
    case MemState::SharedModified:
      return "shared RW";
    case MemState::Destroyed:
      return "exclusive (destroyed)";
  }
  return "?";
}

void HelgrindTool::on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                                   support::SiteId /*site*/) {
  if (parent == rt::kNoThread) {
    segments_.start_thread(tid, shadow::kNoSegment);
    return;
  }
  // Fig. 2: the creating thread's segment ends at the create; the child's
  // first segment happens-after it.
  segments_.start_thread(tid, segments_.current(parent));
  segments_.advance(parent);
}

void HelgrindTool::on_thread_join(rt::ThreadId joiner, rt::ThreadId joined,
                                  support::SiteId /*site*/) {
  segments_.advance(joiner, segments_.current(joined));
}

void HelgrindTool::on_queue_put(rt::ThreadId tid, rt::SyncId /*queue*/,
                                std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.hb_message_passing || token == 0) return;
  queue_tokens_[token] = segments_.current(tid);
  segments_.advance(tid);
}

void HelgrindTool::on_queue_get(rt::ThreadId tid, rt::SyncId /*queue*/,
                                std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.hb_message_passing || token == 0) return;
  auto it = queue_tokens_.find(token);
  if (it == queue_tokens_.end()) return;
  segments_.advance(tid, it->second);
  queue_tokens_.erase(it);
}

void HelgrindTool::on_sem_post(rt::ThreadId tid, rt::SyncId /*sem*/,
                               std::uint64_t token, support::SiteId /*site*/) {
  if (!config_.hb_message_passing || token == 0) return;
  sem_tokens_[token] = segments_.current(tid);
  segments_.advance(tid);
}

void HelgrindTool::on_sem_wait_return(rt::ThreadId tid, rt::SyncId /*sem*/,
                                      std::uint64_t token,
                                      support::SiteId /*site*/) {
  if (!config_.hb_message_passing || token == 0) return;
  auto it = sem_tokens_.find(token);
  if (it == sem_tokens_.end()) return;
  segments_.advance(tid, it->second);
  sem_tokens_.erase(it);
}

shadow::LocksetId HelgrindTool::effective_locks(rt::ThreadId tid,
                                                bool for_write,
                                                bool bus_locked) {
  shadow::LockVec v;
  for (const rt::HeldLock& h : rt_->held_locks(tid)) {
    // Original Helgrind did not intercept pthread_rwlock: those locks are
    // invisible to it.
    if (config_.bus_lock_model != BusLockModel::RwLock &&
        rt_->lock_is_rw(h.lock))
      continue;
    // Eraser write rule: only locks held in write mode protect a write.
    if (for_write && h.mode == rt::LockMode::Shared) continue;
    v.push_back(h.lock);
  }
  switch (config_.bus_lock_model) {
    case BusLockModel::Mutex:
      // The special mutex is held exactly for the duration of a LOCKed
      // instruction.
      if (bus_locked) v.push_back(bus_lock_);
      break;
    case BusLockModel::RwLock:
      // Every read implicitly holds the bus lock in read mode; LOCKed
      // writes hold it in write mode; plain writes do not hold it.
      if (!for_write || bus_locked) v.push_back(bus_lock_);
      break;
  }
  return locksets_.intern(std::move(v));
}

void HelgrindTool::on_access(const rt::MemoryAccess& access) {
  // Branch once per access, not per cell, so the refined levels' path
  // does not pay for Basic.
  if (config_.refinement == Refinement::Basic) {
    basic_access(access);
    return;
  }
  shadow_.for_range(access.addr, access.size,
                    [&](Cell& cell) { touch(cell, access); });
}

void HelgrindTool::basic_access(const rt::MemoryAccess& a) {
  // locks_held(t): every held lock in any mode, no bus lock, no write rule.
  shadow::LockVec v;
  for (const rt::HeldLock& h : rt_->held_locks(a.thread)) v.push_back(h.lock);
  const shadow::LocksetId held = locksets_.intern(std::move(v));
  shadow_.for_range(a.addr, a.size, [&](Cell& cell) {
    if (cell.reported) return;
    const shadow::LocksetId before = cell.lockset;
    cell.lockset = locksets_.intersect(before, held);
    if (cell.lockset != before) trace_refinement(a);
    if (locksets_.empty(cell.lockset))
      warn(cell, a, "lockset emptied (no state machine)", before);
  });
}

/// Mirrors a detector-state-changing access into the flight recorder: the
/// accesses that narrowed a lockset or moved a cell towards
/// SHARED-MODIFIED are exactly the ones --explain replays. Steady-state
/// accesses that leave the shadow state untouched are implied by the
/// recorded schedule and are not re-recorded. Called *before* warn() so
/// the triggering access lands inside the report's provenance cursor.
void HelgrindTool::trace_refinement(const rt::MemoryAccess& a) {
  rt_->trace_addr(obs::EventKind::Access, a.thread, a.addr, a.size, a.site,
                  rt::access_flags(a));
}

void HelgrindTool::touch(Cell& cell, const rt::MemoryAccess& a) {
  if (cell.reported) return;  // Eraser stops checking after the report.
  const shadow::SegmentId seg = segments_.current(a.thread);
  const bool is_write = a.kind == rt::AccessKind::Write;

  switch (cell.state()) {
    case MemState::New:
      cell.set_state(MemState::Exclusive);
      cell.set_owner(seg);
      return;

    case MemState::Exclusive:
    case MemState::Destroyed: {
      bool still_exclusive = segments_.thread_of(cell.owner) == a.thread;
      if (!still_exclusive && config_.refinement == Refinement::Segments)
        // VisualThreads rule (ii): a touch from a segment the owner
        // happens-before just transfers ownership.
        still_exclusive = segments_.happens_before(cell.owner, seg);
      if (still_exclusive) {
        cell.set_owner(seg);
        cell.set_state(MemState::Exclusive);
        return;
      }
      // Genuinely shared now: initialise the lockset from the locks held
      // at this — the first shared — access.
      const MemState prev = cell.state();
      cell.lockset = effective_locks(a.thread, is_write, a.bus_locked);
      rt_->trace_addr(obs::EventKind::DetectorShare, a.thread, a.addr,
                      is_write ? 1 : 0, a.site);
      if (is_write) {
        cell.set_state(MemState::SharedModified);
        if (locksets_.empty(cell.lockset))
          warn(cell, a, state_name(prev), shadow::kUniversalLockset);
      } else {
        cell.set_state(MemState::SharedRead);
      }
      return;  // the DetectorShare event above carries this access
    }

    case MemState::SharedRead: {
      const shadow::LocksetId before = cell.lockset;
      const shadow::LocksetId held =
          effective_locks(a.thread, is_write, a.bus_locked);
      cell.lockset = locksets_.intersect(cell.lockset, held);
      if (is_write) {
        cell.set_state(MemState::SharedModified);
        trace_refinement(a);
        if (locksets_.empty(cell.lockset))
          warn(cell, a, state_name(MemState::SharedRead), before);
        return;
      }
      // Reads in shared-RO never warn (Fig. 1: reports only in
      // SHARED-MODIFIED).
      if (cell.lockset != before) trace_refinement(a);
      return;
    }

    case MemState::SharedModified: {
      const shadow::LocksetId before = cell.lockset;
      const shadow::LocksetId held =
          effective_locks(a.thread, is_write, a.bus_locked);
      cell.lockset = locksets_.intersect(cell.lockset, held);
      if (cell.lockset != before) trace_refinement(a);
      if (locksets_.empty(cell.lockset))
        warn(cell, a, state_name(MemState::SharedModified), before);
      return;
    }
  }
}

void HelgrindTool::warn(Cell& cell, const rt::MemoryAccess& a,
                        const char* prev_state,
                        shadow::LocksetId prev_lockset) {
  // Recorded first so the report's cursor covers the warning event.
  rt_->trace_addr(obs::EventKind::DetectorWarning, a.thread, a.addr,
                  reports_.distinct_locations(), a.site);
  Report r = make_report(*rt_, Report::Kind::DataRace, a);
  r.prev_state = prev_state;
  if (prev_lockset == shadow::kEmptyLockset) {
    r.prev_state += ", no locks";
  } else if (prev_lockset != shadow::kUniversalLockset) {
    r.prev_state += ", lockset " + locksets_.describe(prev_lockset, *rt_);
  }
  r.lockset_desc = "{}";
  reports_.add(std::move(r));
  cell.reported = true;
}

void HelgrindTool::on_alloc(rt::ThreadId /*tid*/, rt::Addr addr,
                            std::uint32_t size, support::SiteId /*site*/) {
  // Fresh allocation: back to NEW regardless of what the address range was
  // used for before (Helgrind intercepts malloc).
  shadow_.reset_range(addr, size);
}

void HelgrindTool::on_free(rt::ThreadId /*tid*/, rt::Addr addr,
                           std::uint32_t size, support::SiteId /*site*/) {
  shadow_.reset_range(addr, size);
}

rt::ToolStats HelgrindTool::stats() const {
  rt::ToolStats s;
  s.shadow_tlb_hits = shadow_.tlb_stats().hits;
  s.shadow_tlb_misses = shadow_.tlb_stats().misses;
  s.shadow_pages = shadow_.page_count();
  return s;
}

void HelgrindTool::on_destruct_annotation(rt::ThreadId tid, rt::Addr addr,
                                          std::uint32_t size,
                                          support::SiteId /*site*/) {
  if (!config_.destructor_annotations) return;  // original tool: unknown
                                                // client request, ignored
  const shadow::SegmentId seg = segments_.current(tid);
  shadow_.for_range(addr, size, [&](Cell& cell) {
    cell.set_state(MemState::Destroyed);
    cell.set_owner(seg);
    cell.lockset = shadow::kUniversalLockset;
    cell.reported = false;
  });
}

}  // namespace rg::core
